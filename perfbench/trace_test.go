package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "gateway.submit", Start: 0, End: 100},
		// Overlapping children count once; the part sticking out of the
		// parent does not count at all.
		{ID: 2, Parent: 1, Name: "joblog.fsync", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "gateway.forward", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "joblog.fsync", Start: 90, End: 120},
		// A child entirely outside its parent covers nothing.
		{ID: 5, Parent: 1, Name: "joblog.fsync", Start: 150, End: 160},
		// A grandchild is its parent's child, not the root's.
		{ID: 6, Parent: 3, Name: "wire.send", Start: 25, End: 35},
		// A child touching the previous one end to start merges with it.
		{ID: 7, Name: "core.handler", Start: 200, End: 260},
		{ID: 8, Parent: 7, Name: "wire.send", Start: 210, End: 220},
		{ID: 9, Parent: 7, Name: "wire.send", Start: 220, End: 230},
		// Still open: ignored, and not subtracted from its parent.
		{ID: 10, Parent: 7, Name: "wire.send", Start: 240, End: -1},
	}
	want := map[int32]int64{1: 60, 2: 20, 3: 10, 4: 30, 5: 10, 6: 10, 7: 40, 8: 10, 9: 10}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes gave %d spans, want %d: %v", len(got), len(want), got)
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestDurationsByName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "gateway.submit", Start: 0, End: 4000},
		{ID: 2, Parent: 1, Name: "joblog.fsync", Start: 1000, End: 3000},
	}
	self := durations(spans, true, time.Microsecond)
	whole := durations(spans, false, time.Microsecond)
	if got := self["gateway.submit"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("self gateway.submit = %v, want [2]", got)
	}
	if got := whole["gateway.submit"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("whole gateway.submit = %v, want [4]", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {10, 0}, {100, 0.9}, {500, 0.98}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := quantile([]float64{3, 1, 2, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	if p := tr.openParent("gateway.submit"); p != 0 {
		t.Fatalf("openParent with nothing open = %d", p)
	}
	a := tr.beginTracked("gateway.submit", "g1")
	b := tr.beginTracked("gateway.submit", "g2")
	if p := tr.openParent("gateway.submit"); p != a {
		t.Errorf("openParent = %d, want the oldest open span %d", p, a)
	}
	tr.endTracked("gateway.submit", a)
	if p := tr.openParent("gateway.submit"); p != b {
		t.Errorf("openParent after closing %d = %d, want %d", a, p, b)
	}
	tr.endTracked("gateway.submit", b)
	for _, s := range tr.snapshot() {
		if s.End < s.Start {
			t.Errorf("span %d not closed: %+v", s.ID, s)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				p := tr.beginTracked("gateway.submit", "")
				c := tr.begin("gateway.forward", tr.openParent("gateway.submit"), "")
				tr.end(c)
				tr.setJob(c, "j1@0")
				end := tr.now()
				tr.record("joblog.fsync", p, end-1, end, "")
				tr.endTracked("gateway.submit", p)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	spans := tr.snapshot()
	if len(spans) != 4*100*3 {
		t.Fatalf("%d spans, want %d", len(spans), 4*100*3)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d not closed: %+v", s.ID, s)
		}
	}
	if p := tr.openParent("gateway.submit"); p != 0 {
		t.Errorf("span %d still open", p)
	}
}
