package simnet

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

type testMsg struct {
	kind string
	size int
	n    int
}

func (m testMsg) Kind() string   { return m.kind }
func (m testMsg) SizeBytes() int { return m.size }

func lineTopo() *graph.Graph {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1.5)
	return g
}

func TestDESDeliveryDelay(t *testing.T) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	var gotAt float64
	var gotFrom graph.NodeID
	tr.Attach(0, func(from graph.NodeID, p Payload) {})
	tr.Attach(1, func(from graph.NodeID, p Payload) {
		gotAt = tr.Now()
		gotFrom = from
	})
	tr.Attach(2, func(from graph.NodeID, p Payload) {})
	if err := tr.Send(0, 1, testMsg{kind: "x", size: 10}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 2.5 {
		t.Fatalf("delivered at %v, want 2.5", gotAt)
	}
	if gotFrom != 0 {
		t.Fatalf("from = %d, want 0", gotFrom)
	}
}

func TestDESNonNeighborRejected(t *testing.T) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	tr.Attach(0, func(graph.NodeID, Payload) {})
	if err := tr.Send(0, 2, testMsg{kind: "x"}); err == nil {
		t.Fatal("send to non-neighbor accepted")
	}
}

func TestDESFIFOPerLink(t *testing.T) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	var got []int
	tr.Attach(0, func(graph.NodeID, Payload) {})
	tr.Attach(1, func(_ graph.NodeID, p Payload) { got = append(got, p.(testMsg).n) })
	tr.Attach(2, func(graph.NodeID, Payload) {})
	for i := 0; i < 50; i++ {
		if err := tr.Send(0, 1, testMsg{kind: "x", n: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("link not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestDESStats(t *testing.T) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	for i := graph.NodeID(0); i < 3; i++ {
		tr.Attach(i, func(graph.NodeID, Payload) {})
	}
	tr.Send(0, 1, testMsg{kind: "a", size: 100})
	tr.Send(1, 2, testMsg{kind: "a", size: 50})
	tr.Send(1, 0, testMsg{kind: "b", size: 7})
	eng.Run()
	st := tr.Stats()
	if st.Messages() != 3 || st.Bytes() != 157 {
		t.Fatalf("stats %v", st)
	}
	byKind := st.ByKind()
	if byKind["a"] != 2 || byKind["b"] != 1 {
		t.Fatalf("by kind %v", byKind)
	}
	st.Reset()
	if st.Messages() != 0 || st.Bytes() != 0 || len(st.ByKind()) != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestDESTimerCancel(t *testing.T) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	tr.Attach(0, func(graph.NodeID, Payload) {})
	fired := false
	cancel := tr.After(0, 5, func() { fired = true })
	if !cancel() {
		t.Fatal("cancel of pending timer returned false")
	}
	if cancel() {
		t.Fatal("double cancel returned true")
	}
	eng.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestDESAttachTwicePanics(t *testing.T) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	tr.Attach(0, func(graph.NodeID, Payload) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double Attach did not panic")
		}
	}()
	tr.Attach(0, func(graph.NodeID, Payload) {})
}

func BenchmarkDESSend(b *testing.B) {
	eng := sim.New()
	tr := NewDES(eng, lineTopo())
	for i := graph.NodeID(0); i < 3; i++ {
		tr.Attach(i, func(graph.NodeID, Payload) {})
	}
	msg := testMsg{kind: "x", size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, msg)
		if i%1000 == 999 {
			eng.Run()
		}
	}
	eng.Run()
}
