package wire

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daggen"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func TestNetTransportDelivers(t *testing.T) {
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	trs, err := listenLoopback(topo, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan simnet.Payload, 8)
	trs[0].Attach(0, func(from graph.NodeID, p simnet.Payload) {})
	trs[1].Attach(1, func(from graph.NodeID, p simnet.Payload) {
		if from != 0 {
			t.Errorf("payload from %d, want 0", from)
		}
		got <- p
	})
	for _, tr := range trs {
		tr.Start()
		defer tr.Close()
	}
	want := core.EnrollReq{Job: "j1@0", Initiator: 0, Window: 2.5}
	if err := trs[0].Send(0, 1, want); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != want {
			t.Fatalf("delivered %#v, want %#v", p, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("payload never delivered")
	}
	// Non-neighbor and foreign-site sends are refused.
	if err := trs[0].Send(0, 0, want); err == nil {
		t.Fatal("self-send succeeded")
	}
	if err := trs[0].Send(1, 0, want); err == nil {
		t.Fatal("send from a foreign site succeeded")
	}
	if n := trs[0].Stats().Messages(); n != 1 {
		t.Fatalf("sender counted %d messages, want 1", n)
	}
}

// TestNetTransportDialsWithBackoff sends to a peer whose process has not
// started listening yet: the writer must keep the frames queued, re-dial
// with backoff and deliver them once the peer appears. This is the
// start-order independence the multi-process bootstrap relies on. (A peer
// crashing mid-stream can still lose frames buffered in the kernel — TCP
// offers nothing better without application acks — which the protocol
// tolerates the same way it tolerates injected loss.)
func TestNetTransportDialsWithBackoff(t *testing.T) {
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	scale := 500 * time.Microsecond

	a, err := Listen(NetConfig{Self: 0, Topo: topo, Listen: "127.0.0.1:0", Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Reserve an address for B, then free it: the peer is down.
	b0, err := Listen(NetConfig{Self: 1, Topo: topo, Listen: "127.0.0.1:0", Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	addrB := b0.Addr()
	b0.Close()

	a.SetPeers(map[graph.NodeID]string{1: addrB})
	a.Attach(0, func(graph.NodeID, simnet.Payload) {})
	a.Start()

	// Queue two frames while nobody listens: dials fail and back off.
	if err := a.Send(0, 1, core.DoneMsg{Job: "x", Task: 1, At: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(0, 1, core.DoneMsg{Job: "x", Task: 2, At: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	b, err := Listen(NetConfig{Self: 1, Topo: topo, Listen: addrB, Scale: scale})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrB, err) // port stolen: environment, not code
	}
	defer b.Close()
	b.SetPeers(map[graph.NodeID]string{0: a.Addr()})
	got := make(chan core.DoneMsg, 8)
	b.Attach(1, func(_ graph.NodeID, p simnet.Payload) { got <- p.(core.DoneMsg) })
	b.Start()

	for want := 1; want <= 2; want++ {
		select {
		case m := <-got:
			if int(m.Task) != want {
				t.Fatalf("frame %d delivered out of order: got task %d", want, m.Task)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("queued frame %d never delivered after the peer came up", want)
		}
	}
}

// liveFriendly returns the configuration the TCP cluster runs: generous
// slack, because real message handling takes real time. The phase
// windows close early once every answer arrives, so on a healthy cluster
// the large slack costs nothing — it only keeps a socket-latency straggler
// from being timed out of the ACS.
func liveFriendly() core.Config {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 8
	cfg.ReleasePadFactor = 30
	return cfg
}

// testWorkload draws a small Std-spec-shaped workload.
func testWorkload(t *testing.T, topo *graph.Graph, horizon float64, seed int64) []workload.Arrival {
	t.Helper()
	arrivals, err := workload.Generate(workload.Spec{
		Sites:       topo.Len(),
		Horizon:     horizon,
		RatePerSite: 0.05,
		TaskSize:    8,
		Params:      daggen.Params{MinComplexity: 0.5, MaxComplexity: 5},
		Tightness:   2.5,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// marginRobustWorkload draws a workload whose decisions do not depend on
// sub-unit timing: deadlines are either loose (tightness 5 — comfortably
// schedulable, locally or distributed) or infeasible (tightness 0.4 —
// below the critical path, rejected by every scheduler). A wall-clock
// cluster cannot pin razor-edge decisions — two runs of the same TCP
// cluster disagree on them — so the transport-equivalence claim is made
// where it is meaningful: every decision with a real margin. The DES suite
// pins the razor's edge deterministically.
func marginRobustWorkload(t *testing.T, topo *graph.Graph, horizon float64, seed int64) []workload.Arrival {
	t.Helper()
	spec := workload.Spec{
		Sites:       topo.Len(),
		Horizon:     horizon,
		RatePerSite: 0.02,
		TaskSize:    8,
		Params:      daggen.Params{MinComplexity: 0.5, MaxComplexity: 5},
		Tightness:   5,
		Seed:        seed,
	}
	feasible, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.RatePerSite = 0.02
	spec.Tightness = 0.4
	spec.Seed = seed + 1
	infeasible, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	merged := append(append([]workload.Arrival(nil), feasible...), infeasible...)
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].At != merged[j].At {
			return merged[i].At < merged[j].At
		}
		return merged[i].Origin < merged[j].Origin
	})
	return merged
}

// TestNetClusterMatchesDESDecisions is the headline proof of the wire
// layer: a cluster of one core.Node per site, real TCP between them,
// reaches the same decision on every arrival as the deterministic DES
// replaying the same arrivals under the same configuration.
func TestNetClusterMatchesDESDecisions(t *testing.T) {
	topo := graph.RandomConnected(8, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, 1)
	cfg := liveFriendly()
	// 5ms per virtual unit keeps loopback socket latency (~0.1ms) and the
	// scheduling delays of a loaded test machine small against the
	// protocol's decision margins, so the TCP cluster resolves every job
	// the same way the load-free DES does. (On a 2-vCPU machine running
	// other race-built tests alongside, 14 of 60 runs disagreed at 2ms and
	// 1 of 60 at 5ms.)
	scale := 5 * time.Millisecond
	arrivals := marginRobustWorkload(t, topo, 80, 7)
	if len(arrivals) < 5 {
		t.Fatalf("workload too small (%d arrivals) to prove anything", len(arrivals))
	}

	// TCP cluster.
	lc, err := NewLiveCluster(topo, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for _, a := range arrivals {
		if _, err := lc.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			t.Fatal(err)
		}
	}
	if !lc.Wait(120 * time.Second) {
		t.Fatal("TCP cluster did not decide every job")
	}
	netStatus := lc.JobStatuses()

	// DES reference, same arrivals.
	des, err := core.NewCluster(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		if _, err := des.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			t.Fatal(err)
		}
	}
	if err := des.Run(); err != nil {
		t.Fatal(err)
	}
	desStatus := des.JobStatuses()

	// Same decisions, arrival by arrival.
	for i := range arrivals {
		if netStatus[i].Outcome != desStatus[i].Outcome {
			t.Errorf("arrival %d (origin %d): TCP decided %v, DES decided %v",
				i, arrivals[i].Origin, netStatus[i].Outcome, desStatus[i].Outcome)
		}
	}

	// Soundness on the TCP side: no violations, no leaked reservations.
	accepted := acceptedIDs(netStatus)
	if v := lc.Violations(); len(v) > 0 {
		t.Errorf("violations: %v", v)
	}
	for site, jobIDs := range lc.ReservationJobIDs() {
		for _, jobID := range jobIDs {
			if !accepted[jobID] {
				t.Errorf("node %d holds reservations of non-accepted job %s", site, jobID)
			}
		}
	}
}

// acceptedIDs collects the IDs of the accepted jobs among the statuses.
func acceptedIDs(statuses []core.JobStatus) map[string]bool {
	accepted := make(map[string]bool)
	for _, st := range statuses {
		if st.Outcome == core.AcceptedLocal || st.Outcome == core.AcceptedDistributed {
			accepted[st.ID] = true
		}
	}
	return accepted
}

// TestNetClusterSurvivesFaults runs the E12 semantics over real sockets:
// loss and jitter applied at the socket layer, with the protocol's
// defensive machinery keeping every job decided and every lock released.
func TestNetClusterSurvivesFaults(t *testing.T) {
	topo := graph.RandomConnected(6, 3, graph.DelayRange{Min: 0.05, Max: 0.3}, 3)
	cfg := liveFriendly()
	cfg.Faults = &simnet.FaultPlan{Seed: 11, Loss: 0.15, MaxJitter: 0.1}
	scale := time.Millisecond

	lc, err := NewLiveCluster(topo, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	arrivals := testWorkload(t, topo, 60, 5)
	for _, a := range arrivals {
		if _, err := lc.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
			t.Fatal(err)
		}
	}
	if !lc.Wait(180 * time.Second) {
		var undecided []string
		for _, st := range lc.JobStatuses() {
			if st.Outcome == core.Pending {
				undecided = append(undecided, st.ID)
			}
		}
		t.Fatalf("faulty TCP cluster did not settle; undecided jobs: %v", undecided)
	}
	var dropped int64
	for _, n := range lc.Nodes() {
		dropped += n.Stats().Dropped()
	}
	if v := lc.Violations(); len(v) > 0 {
		t.Errorf("violations under faults: %v", v)
	}
	if dropped == 0 {
		t.Error("fault plan armed but no traversal was dropped at the socket layer")
	}
	accepted := acceptedIDs(lc.JobStatuses())
	// Give retransmitted aborts a moment to settle, then check for leaks.
	time.Sleep(200 * time.Millisecond)
	for site, jobIDs := range lc.ReservationJobIDs() {
		for _, jobID := range jobIDs {
			if !accepted[jobID] {
				t.Errorf("node %d leaked reservations of %s", site, jobID)
			}
		}
	}
}

// TestBackoffJitterDeterministicPerSeed: the reconnect backoff draws its
// jitter from a seeded source — identical seeds reproduce the exact sleep
// sequence, different seeds (simultaneously restarted nodes) diverge, and
// every sleep stays inside the exponential envelope [cur/2, cur).
func TestBackoffJitterDeterministicPerSeed(t *testing.T) {
	sequence := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		cur := 50 * time.Millisecond
		var out []time.Duration
		for i := 0; i < 8; i++ {
			var sleep time.Duration
			sleep, cur = nextBackoff(cur, 2*time.Second, rng)
			out = append(out, sleep)
		}
		return out
	}
	a, b, c := sequence(1), sequence(1), sequence(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical jitter (no desynchronization)")
	}
	rng := rand.New(rand.NewSource(3))
	cur := 50 * time.Millisecond
	for i := 0; i < 12; i++ {
		sleep, next := nextBackoff(cur, 2*time.Second, rng)
		if sleep < cur/2 || sleep > cur {
			t.Fatalf("sleep %v outside [%v, %v]", sleep, cur/2, cur)
		}
		if next > 2*time.Second {
			t.Fatalf("backoff %v exceeded the cap", next)
		}
		cur = next
	}
	if cur != 2*time.Second {
		t.Fatalf("backoff never reached the cap: %v", cur)
	}
}
