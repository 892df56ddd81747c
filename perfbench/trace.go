package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// Times are nanoseconds since the tracer started; Parent 0 marks a root.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    string `json:"job,omitempty"`
}

// Tracer keeps spans in memory until the run ends. Safe for concurrent use.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	open  map[string][]int32 // open spans by name, for parent lookup
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), open: make(map[string][]int32)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID.
func (t *Tracer) begin(name string, parent int32, job string) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: -1, Job: job})
	return id
}

// end closes span id.
func (t *Tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// beginTracked is begin for spans other spans may later attach to by
// name (see openParent).
func (t *Tracer) beginTracked(name string, job string) int32 {
	id := t.begin(name, 0, job)
	t.mu.Lock()
	t.open[name] = append(t.open[name], id)
	t.mu.Unlock()
	return id
}

// endTracked closes a span opened with beginTracked.
func (t *Tracer) endTracked(name string, id int32) {
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.open[name]
	for i, v := range ids {
		if v == id {
			t.open[name] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
}

// openParent reports the oldest open span of the given name, or 0 when
// none is open. Calls that cannot name their caller (a Backend.Submit, a
// job-log fsync) attach to the request that is in flight; the live
// workload submits on one connection, so at most one is.
func (t *Tracer) openParent(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ids := t.open[name]; len(ids) > 0 {
		return ids[0]
	}
	return 0
}

// record adds an already finished span.
func (t *Tracer) record(name string, parent int32, start, end int64, job string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: start, End: end, Job: job})
}

// setJob labels span id with a job ID learned after the span opened.
func (t *Tracer) setJob(id int32, job string) {
	t.mu.Lock()
	t.spans[id-1].Job = job
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *Tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// selfTimes maps each closed span's ID to its self time: its duration
// minus the part of its interval that its children cover. Children may
// overlap each other or stick out of the parent; each instant of the
// parent's interval is subtracted at most once.
func selfTimes(spans []Span) map[int32]int64 {
	type interval struct{ lo, hi int64 }
	byID := make(map[int32]Span, len(spans))
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int32]int64, len(byID))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		var covered int64
		cur := interval{lo: -1, hi: -1}
		flush := func() {
			if cur.hi > cur.lo {
				covered += cur.hi - cur.lo
			}
		}
		for _, k := range kids {
			lo, hi := max(k.lo, s.Start), min(k.hi, s.End)
			if hi <= lo {
				continue
			}
			if cur.hi >= lo && cur.lo >= 0 {
				cur.hi = max(cur.hi, hi)
				continue
			}
			flush()
			cur = interval{lo, hi}
		}
		flush()
		out[id] = s.End - s.Start - covered
	}
	return out
}

// durations collects, per span name, the closed spans' durations (self
// true: self times) in the given unit.
func durations(spans []Span, self bool, unit time.Duration) map[string][]float64 {
	var st map[int32]int64
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		if self {
			d = st[s.ID]
		}
		out[s.Name] = append(out[s.Name], float64(d)/float64(unit))
	}
	return out
}
