package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// maxRecordedPayloads caps the payload mix kept for the codec replay.
const maxRecordedPayloads = 50000

// liveTrace holds the wrappers a traced gateway-live run hands to the
// program in place of its own parts: a simnet.Transport per node (handler,
// timer and send spans), a gateway.Backend (forward and poll spans), the
// gateway's http.Handler (submit and status-read spans) and the job log's
// OnSync hook (fsync spans).
type liveTrace struct {
	tr        *Tracer
	recording atomic.Bool // while driving the schedule: keep payloads and poll sizes
	fsyncs    atomic.Int64

	mu       sync.Mutex
	payloads []simnet.Payload
	pollJobs []int
}

func newLiveTrace(tr *Tracer) *liveTrace { return &liveTrace{tr: tr} }

// tracedTransport times a node's message handler and timer callbacks
// (self time excludes the sends they make) and its sends.
type tracedTransport struct {
	simnet.Transport
	tw  *liveTrace
	cur atomic.Int32 // open handler or timer span on the node's execution context
}

func (tw *liveTrace) wrap(t simnet.Transport) simnet.Transport {
	return &tracedTransport{Transport: t, tw: tw}
}

func (t *tracedTransport) inSpan(name string, fn func()) {
	id := t.tw.tr.begin(name, 0, "")
	t.cur.Store(id)
	fn()
	t.cur.Store(0)
	t.tw.tr.end(id)
}

func (t *tracedTransport) Attach(id graph.NodeID, h simnet.Handler) {
	t.Transport.Attach(id, func(from graph.NodeID, p simnet.Payload) {
		t.inSpan("core.handler", func() { h(from, p) })
	})
}

func (t *tracedTransport) After(id graph.NodeID, d float64, fn func()) simnet.CancelFunc {
	return t.Transport.After(id, d, func() { t.inSpan("core.timer", fn) })
}

func (t *tracedTransport) Send(from, to graph.NodeID, p simnet.Payload) error {
	id := t.tw.tr.begin("wire.send", t.cur.Load(), "")
	err := t.Transport.Send(from, to, p)
	t.tw.tr.end(id)
	if t.tw.recording.Load() {
		t.tw.mu.Lock()
		if len(t.tw.payloads) < maxRecordedPayloads {
			t.tw.payloads = append(t.tw.payloads, p)
		}
		t.tw.mu.Unlock()
	}
	return err
}

// tracedBackend times the gateway's calls into the cluster.
type tracedBackend struct {
	gateway.Backend
	tw *liveTrace
}

func (tw *liveTrace) wrapBackend(b gateway.Backend) gateway.Backend {
	return &tracedBackend{Backend: b, tw: tw}
}

func (b *tracedBackend) Submit(at, deadline float64, graph json.RawMessage) (string, error) {
	tr := b.tw.tr
	id := tr.begin("gateway.forward", tr.openParent("gateway.submit"), "")
	cid, err := b.Backend.Submit(at, deadline, graph)
	tr.end(id)
	tr.setJob(id, cid)
	return cid, err
}

func (b *tracedBackend) Decisions() (map[string]gateway.BackendDecision, error) {
	id := b.tw.tr.begin("gateway.poll", 0, "")
	m, err := b.Backend.Decisions()
	b.tw.tr.end(id)
	if b.tw.recording.Load() {
		b.tw.mu.Lock()
		b.tw.pollJobs = append(b.tw.pollJobs, len(m))
		b.tw.mu.Unlock()
	}
	return m, err
}

func (tw *liveTrace) pollJobsPerCall() float64 {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	var xs []float64
	for _, n := range tw.pollJobs {
		xs = append(xs, float64(n))
	}
	return mean(xs)
}

// onSync is the job log's OnSync hook: the fsync just finished and took d.
// It becomes a child of the submission waiting for it.
func (tw *liveTrace) onSync(d time.Duration) {
	tw.fsyncs.Add(1)
	end := tw.tr.now()
	tw.tr.record("joblog.fsync", tw.tr.openParent("gateway.submit"), end-int64(d), end, "")
}

// tracedHandler times the gateway's submissions and status reads.
type tracedHandler struct {
	h  http.Handler
	tw *liveTrace
}

func (tw *liveTrace) wrapHandler(h http.Handler) http.Handler { return &tracedHandler{h: h, tw: tw} }

func (g *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := g.tw.tr
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		id := tr.beginTracked("gateway.submit", "req-"+r.Header.Get("X-Request-Id"))
		g.h.ServeHTTP(w, r)
		tr.endTracked("gateway.submit", id)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		id := tr.begin("gateway.status_read", 0, strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
		g.h.ServeHTTP(w, r)
		tr.end(id)
	default:
		g.h.ServeHTTP(w, r)
	}
}

// relabel replaces the request-index labels of submit spans with the
// gateway job IDs the replies carried (ids maps index to ID).
func (tw *liveTrace) relabel(ids map[string]string) {
	tw.tr.mu.Lock()
	defer tw.tr.mu.Unlock()
	for i := range tw.tr.spans {
		s := &tw.tr.spans[i]
		if idx, ok := strings.CutPrefix(s.Job, "req-"); ok && ids[idx] != "" {
			s.Job = ids[idx]
		}
	}
}

// loadSpans is the spans that started inside one of the windows.
func (tw *liveTrace) loadSpans(windows [][2]int64) []Span {
	var out []Span
	for _, s := range tw.tr.snapshot() {
		for _, w := range windows {
			if s.Start >= w[0] && s.Start < w[1] {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// wireReplay is the codec cost of the recorded payload mix.
type wireReplay struct {
	msgs, rounds                                     int
	bytesPerMsg, encodeNs, decodeNs, allocsPerDecode float64
}

// replayWire runs the payloads sent during the traced schedule through
// wire.Encode and wire.Decode, outside any transport.
func (tw *liveTrace) replayWire() (wireReplay, error) {
	tw.mu.Lock()
	payloads := append([]simnet.Payload(nil), tw.payloads...)
	tw.mu.Unlock()
	const rounds = 3
	out := wireReplay{msgs: len(payloads), rounds: rounds}
	if len(payloads) == 0 {
		return out, nil
	}
	frames := make([][]byte, len(payloads))
	var total int
	for i, p := range payloads {
		f, err := wire.Encode(p)
		if err != nil {
			return out, err
		}
		frames[i] = f
		total += len(f)
	}
	n := float64(len(payloads) * rounds)
	out.bytesPerMsg = float64(total) / float64(len(payloads))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range payloads {
			if _, err := wire.Encode(p); err != nil {
				return out, err
			}
		}
	}
	out.encodeNs = float64(time.Since(start).Nanoseconds()) / n
	before := readMem()
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if _, err := wire.Decode(f); err != nil {
				return out, err
			}
		}
	}
	out.decodeNs = float64(time.Since(start).Nanoseconds()) / n
	out.allocsPerDecode = float64(readMem().Mallocs-before.Mallocs) / n
	return out, nil
}
