package wire

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/graph"
)

// churnConfig is the membership timing the churn tests run at: virtual
// units scaled to 1ms, so a heartbeat every 25ms and a tenth-second
// suspicion window — fast enough to test, slack enough for CI schedulers.
func churnConfig() core.Config {
	cfg := liveFriendly()
	// The churn ring's links carry 0.5-unit delays, so omega ≈ 1: a pad
	// factor of 10 puts validated slot starts ~10 units (20ms at the test
	// scale) after mapping — real headroom for commit delivery under
	// scheduler noise without pushing deadlines out of reach.
	cfg.ReleasePadFactor = 10
	cfg.Membership = membership.Config{
		Enabled:        true,
		HeartbeatEvery: 25,
		SuspectAfter:   100,
		RepairSettle:   25,
	}
	return cfg
}

// distJob builds a width×dur parallel DAG that cannot pass the local test
// under its deadline, forcing distribution.
func distJob(t *testing.T, width int, dur float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("churn-par")
	for i := 1; i <= width; i++ {
		b.AddTask(dag.TaskID(i), dur)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// membershipSees polls a node's membership view until site has the wanted
// liveness, or times out.
func membershipSees(n *core.Node, site graph.NodeID, dead bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, st := range n.Membership().Sites {
			if st.Site == site && st.Dead == dead {
				return true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// TestNetClusterChurnJoin is the in-process version of the churn soak: a
// 5-node TCP ring loses one process without warning (transport killed, no
// goodbye), the survivors detect the death through heartbeats and repair
// their routes, keep deciding jobs, and then a REPLACEMENT process for the
// same site joins the running cluster through JoinReq/JoinAck, becomes
// ready, and serves an accepted enrollment.
func TestNetClusterChurnJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn scenario")
	}
	topo := graph.New(5)
	for i := 0; i < 5; i++ {
		topo.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%5), 0.5)
	}
	scale := 2 * time.Millisecond
	cfg := churnConfig()

	lc, err := NewLiveCluster(topo, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	trs, nodes := lc.trs, lc.Nodes()
	victimAddr := trs[1].Addr()

	// Phase 1: a healthy-cluster job, distributed.
	if _, err := nodes[0].Submit(0, distJob(t, 3, 10), 25); err != nil {
		t.Fatal(err)
	}
	if !waitAllDecided(nodes, 30*time.Second) {
		t.Fatal("healthy-phase job never decided")
	}

	// SIGKILL equivalent: the victim's transport dies mid-run, no goodbye.
	trs[1].Close()
	survivors := []*core.Node{nodes[0], nodes[2], nodes[3], nodes[4]}
	for _, n := range survivors {
		if !membershipSees(n, 1, true, 30*time.Second) {
			t.Fatalf("node %d never declared the killed site dead", n.Self())
		}
	}

	// Phase 2: the 4 survivors keep serving — distribution included, over
	// the repaired ring arc.
	if _, err := nodes[2].Submit(0, distJob(t, 3, 10), 25); err != nil {
		t.Fatal(err)
	}
	if !waitAllDecided(survivors, 30*time.Second) {
		t.Fatal("survivor-phase job never decided")
	}

	// Phase 3: a REPLACEMENT process for site 1 joins the running cluster.
	replTr, err := Listen(NetConfig{Self: 1, Topo: topo, Listen: victimAddr, Scale: scale})
	if err != nil {
		t.Skipf("could not rebind %s: %v", victimAddr, err) // port stolen: environment, not code
	}
	peers := map[graph.NodeID]string{0: trs[0].Addr(), 2: trs[2].Addr()}
	replTr.SetPeers(peers)
	defer replTr.Close()
	joiner, err := core.NewNode(topo, cfg, replTr, 1)
	if err != nil {
		t.Fatal(err)
	}
	replTr.Start()
	if err := joiner.StartJoin(); err != nil {
		t.Fatal(err)
	}
	if !joiner.WaitReady(30 * time.Second) {
		t.Fatal("joiner never became ready")
	}
	joiner.Seal()
	for _, n := range survivors {
		if !membershipSees(n, 1, false, 30*time.Second) {
			t.Fatalf("node %d never resurrected the joiner", n.Self())
		}
	}
	snap := joiner.Membership()
	if snap.Inc == 0 {
		t.Fatal("joiner kept incarnation 0 — admission did not mint a fresh one")
	}

	// Phase 4: the joiner serves — as an enrolled member of a neighbor's
	// distributed job, and as an initiator for its own.
	all := append(append([]*core.Node(nil), survivors...), joiner)
	var distributed *core.Job
	var outcomes []string
	for try := 0; try < 4 && distributed == nil; try++ {
		job, err := nodes[0].Submit(0, distJob(t, 3, 10), 25)
		if err != nil {
			t.Fatal(err)
		}
		if !waitAllDecided(all, 30*time.Second) {
			t.Fatal("post-join job never decided")
		}
		st := nodes[0].JobStatuses()
		last := st[len(st)-1]
		outcomes = append(outcomes, last.OutcomeName+"/"+string(last.RejectStage))
		if job.Outcome == core.AcceptedDistributed {
			distributed = job
		}
	}
	if distributed == nil {
		t.Fatalf("no post-join job was accepted distributed; outcomes: %v", outcomes)
	}
	if acks := joiner.Stats().ByKind()["rtds.enroll-ack"]; acks == 0 {
		t.Fatal("joiner never answered an enrollment — it is not serving")
	}
	own, err := joiner.Submit(0, distJob(t, 1, 5), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !waitAllDecided(all, 30*time.Second) {
		t.Fatal("joiner's own job never decided")
	}
	if !own.Accepted() {
		t.Fatalf("joiner's own job %v/%s, want accepted", own.Outcome, own.RejectStage)
	}

	// No churn anomaly may masquerade as a protocol bug, and no rejected
	// job may leave reservations anywhere.
	for _, n := range all {
		if v := n.Violations(); len(v) > 0 {
			t.Fatalf("node %d causality violations: %v", n.Self(), v)
		}
		accepted := make(map[string]bool)
		for _, st := range n.JobStatuses() {
			if st.Outcome == core.AcceptedLocal || st.Outcome == core.AcceptedDistributed {
				accepted[st.ID] = true
			}
		}
		for _, other := range all {
			for _, st := range other.JobStatuses() {
				if st.Outcome == core.AcceptedLocal || st.Outcome == core.AcceptedDistributed {
					accepted[st.ID] = true
				}
			}
		}
		for _, jobID := range n.ReservationJobIDs() {
			if !accepted[jobID] {
				t.Errorf("node %d holds reservations of non-accepted job %s", n.Self(), jobID)
			}
		}
	}
}

// waitAllDecided polls the nodes' synchronized snapshots until every
// submitted job has an outcome and every node is idle, or the timeout
// elapses. Unlike LiveCluster.Wait it covers any subset of nodes, so a
// killed node can be left out and a joiner added.
func waitAllDecided(nodes []*core.Node, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if allDecided(nodes) && allIdle(nodes) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func allDecided(nodes []*core.Node) bool {
	for _, n := range nodes {
		for _, st := range n.JobStatuses() {
			if st.Outcome == core.Pending {
				return false
			}
		}
	}
	return true
}

func allIdle(nodes []*core.Node) bool {
	for _, n := range nodes {
		if !n.Idle() {
			return false
		}
	}
	return true
}
