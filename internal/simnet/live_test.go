package simnet_test

// The wall-clock half of the Transport contract, checked on its one
// implementation: wire.NetTransport, every site on its own loopback
// socket. (wire imports simnet, hence the external test package.) The
// deterministic half is checked on the DES in simnet_test.go.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func lineTopo() *graph.Graph {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1.5)
	return g
}

// msg is a payload the wire codec can frame; Task carries a sequence number.
func msg(n int) core.DoneMsg { return core.DoneMsg{Job: "x", Task: 1 + dag.TaskID(n)} }

// listenLive opens one NetTransport per site on loopback ephemeral ports
// with the peer address maps wired; they are closed when the test ends.
func listenLive(t *testing.T, topo *graph.Graph, scale time.Duration) []*wire.NetTransport {
	t.Helper()
	trs := make([]*wire.NetTransport, topo.Len())
	addrs := make(map[graph.NodeID]string, topo.Len())
	for id := range trs {
		tr, err := wire.Listen(wire.NetConfig{
			Self: graph.NodeID(id), Topo: topo, Listen: "127.0.0.1:0", Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs[id] = tr
		addrs[graph.NodeID(id)] = tr.Addr()
	}
	for _, tr := range trs {
		tr.SetPeers(addrs)
	}
	return trs
}

// startLive attaches the given handlers (a no-op at sites without one) and
// starts every transport.
func startLive(t *testing.T, topo *graph.Graph, scale time.Duration, hs map[graph.NodeID]simnet.Handler) []*wire.NetTransport {
	t.Helper()
	trs := listenLive(t, topo, scale)
	for id, tr := range trs {
		h := hs[graph.NodeID(id)]
		if h == nil {
			h = func(graph.NodeID, simnet.Payload) {}
		}
		tr.Attach(graph.NodeID(id), h)
		tr.Start()
	}
	return trs
}

// eventually polls cond for up to 5 s.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestLiveDeliveryAndFIFO(t *testing.T) {
	var mu sync.Mutex
	var got []int
	trs := startLive(t, lineTopo(), 100*time.Microsecond, map[graph.NodeID]simnet.Handler{
		1: func(_ graph.NodeID, p simnet.Payload) {
			mu.Lock()
			got = append(got, int(p.(core.DoneMsg).Task)-1)
			mu.Unlock()
		},
	})
	for i := 0; i < 30; i++ {
		if err := trs[0].Send(0, 1, msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !eventually(func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= 30 }) {
		t.Fatal("transport did not deliver every message")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 30 {
		t.Fatalf("delivered %d messages, want 30", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("live link not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestLivePingPong(t *testing.T) {
	var trs []*wire.NetTransport
	var count atomic.Int64
	trs = startLive(t, lineTopo(), 50*time.Microsecond, map[graph.NodeID]simnet.Handler{
		0: func(graph.NodeID, simnet.Payload) {
			if c := count.Add(1); c < 5 {
				trs[0].Send(0, 1, msg(int(c)))
			}
		},
		1: func(graph.NodeID, simnet.Payload) { trs[1].Send(1, 0, msg(0)) },
	})
	trs[0].Send(0, 1, msg(0))
	if !eventually(func() bool { return count.Load() >= 5 }) {
		t.Fatal("ping-pong did not finish")
	}
	time.Sleep(20 * time.Millisecond) // a sixth pong would arrive by now
	if c := count.Load(); c != 5 {
		t.Fatalf("pong count %d, want 5", c)
	}
}

func TestLiveTimer(t *testing.T) {
	trs := startLive(t, lineTopo(), 50*time.Microsecond, nil)
	var fired, cancelledFired atomic.Bool
	trs[0].After(0, 1, func() { fired.Store(true) })
	cancel := trs[0].After(0, 2, func() { cancelledFired.Store(true) })
	cancel()
	if !eventually(fired.Load) {
		t.Fatal("timer did not fire")
	}
	time.Sleep(10 * time.Millisecond) // 100 times the cancelled delay
	if cancelledFired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestLiveSendBeforeStart(t *testing.T) {
	trs := listenLive(t, lineTopo(), time.Millisecond)
	trs[0].Attach(0, func(graph.NodeID, simnet.Payload) {})
	if err := trs[0].Send(0, 1, msg(0)); err == nil {
		t.Fatal("send before Start accepted")
	}
}

func TestLiveCloseIdempotent(t *testing.T) {
	for _, tr := range startLive(t, lineTopo(), time.Millisecond, nil) {
		tr.Close()
		tr.Close() // must not panic or hang
	}
}

func TestLiveFaultFullLossDropsEverything(t *testing.T) {
	pair := graph.New(2)
	pair.MustAddEdge(0, 1, 1)
	var got atomic.Int64
	trs := startLive(t, pair, 100*time.Microsecond, map[graph.NodeID]simnet.Handler{
		1: func(graph.NodeID, simnet.Payload) { got.Add(1) },
	})
	trs[0].SetFaults(simnet.FaultPlan{Seed: 1, Loss: 1}, 0)
	for i := 0; i < 50; i++ {
		if err := trs[0].Send(0, 1, msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // 200 times the link delay
	if n := got.Load(); n != 0 {
		t.Fatalf("full loss delivered %d messages", n)
	}
	if d := trs[0].Stats().Dropped(); d != 50 {
		t.Fatalf("dropped %d, want 50", d)
	}
}
