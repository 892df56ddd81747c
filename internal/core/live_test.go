package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// The live tests run the protocol on wire.LiveCluster: one core.Node per
// site, each on its own loopback TCP transport.

// TestLiveMatchesDESDecisions runs the same single-job scenarios on the
// deterministic DES transport and the loopback TCP cluster and requires
// identical admission decisions (experiment E10).
func TestLiveMatchesDESDecisions(t *testing.T) {
	type scenario struct {
		name string
		par  int     // independent tasks
		dur  float64 // per-task duration
		dl   float64 // relative deadline
		want core.Outcome
	}
	scenarios := []scenario{
		{"local", 1, 5, 50, core.AcceptedLocal},
		// Deadline 19 < 20 (serial) forces distribution while leaving ~4
		// virtual units of margin over protocol latency and real jitter.
		{"distributed", 2, 10, 19, core.AcceptedDistributed},
		{"impossible", 2, 10, 3, core.Rejected},
	}
	// On a wall-clock cluster message handling takes real time that the
	// DES models as zero, so the timeouts derived from link delays alone
	// (enrollment window, release padding) need real slack. The same config
	// drives both transports; the DES outcome is insensitive to the extra
	// slack because every site answers immediately in virtual time.
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			topo := core.FastLine(3)
			des := core.MustCluster(t, topo, cfg)
			dj, err := des.Submit(0, 0, core.ParJob(t, sc.par, sc.dur), sc.dl)
			if err != nil {
				t.Fatal(err)
			}
			core.RunAll(t, des)
			if dj.Outcome != sc.want {
				t.Fatalf("DES outcome %v, want %v", dj.Outcome, sc.want)
			}

			// The live clock is wall-clock-driven: the scale must dwarf Go
			// scheduling jitter or real latency eats the virtual deadline.
			live, err := wire.NewLiveCluster(topo, cfg, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			lj, err := live.Submit(0, 0, core.ParJob(t, sc.par, sc.dur), sc.dl)
			if err != nil {
				t.Fatal(err)
			}
			if !live.Wait(30 * time.Second) {
				t.Fatal("live cluster did not quiesce")
			}
			if lj.Outcome != dj.Outcome {
				t.Fatalf("live outcome %v != DES outcome %v", lj.Outcome, dj.Outcome)
			}
			if v := live.Violations(); len(v) != 0 {
				t.Fatalf("live violations: %v", v)
			}
		})
	}
}

// TestLiveAllIdleDuringTraffic calls AllIdle concurrently with protocol
// activity. The probe is routed through each site's execution context, so
// under -race this test proves the check never reads site state from a
// foreign goroutine.
func TestLiveAllIdleDuringTraffic(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	topo := core.FastLine(3)
	live, err := wire.NewLiveCluster(topo, cfg, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Distribution-forcing deadline (as in TestLiveMatchesDESDecisions) keeps
	// lock/transaction traffic flowing between the sites while we probe.
	job, err := live.Submit(0, 0, core.ParJob(t, 2, 10), 19)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			live.AllIdle() // value irrelevant mid-run; must not race
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	if !live.Wait(30 * time.Second) {
		t.Fatal("live cluster did not quiesce")
	}
	if job.Outcome != core.AcceptedDistributed {
		t.Fatalf("outcome %v, want %v", job.Outcome, core.AcceptedDistributed)
	}
	if !live.AllIdle() {
		t.Fatal("cluster not idle after quiescence")
	}
}

// TestLiveSubmitValidatesLikeDES: the live cluster must reject the same
// invalid submissions the DES cluster rejects, instead of silently
// clamping negative arrival times.
func TestLiveSubmitValidatesLikeDES(t *testing.T) {
	topo := core.FastLine(2)
	live, err := wire.NewLiveCluster(topo, core.DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	g := core.ParJob(t, 1, 5)
	if _, err := live.Submit(-1, 0, g, 50); err == nil {
		t.Error("negative submission time accepted")
	}
	if _, err := live.Submit(0, 99, g, 50); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if _, err := live.Submit(0, 0, g, 0); err == nil {
		t.Error("non-positive deadline accepted")
	}
}

func TestLiveClusterBootstrap(t *testing.T) {
	topo := core.FastLine(4)
	live, err := wire.NewLiveCluster(topo, core.DefaultConfig(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	msgs, _ := live.BootstrapCost()
	// Same bootstrap cost formula as the DES cluster.
	want := int64((2*core.DefaultConfig().Radius - 1) * 2 * topo.NumEdges())
	if msgs != want {
		t.Fatalf("live bootstrap messages %d, want %d", msgs, want)
	}
	for id, n := range live.Nodes() {
		if len(n.Sphere()) == 0 {
			t.Fatalf("site %d has empty sphere", id)
		}
	}
}

// TestLiveClusterUnderLossAndJitter runs the live cluster with injected
// message loss at the socket layer, delay jitter and a transient site
// outage: whatever is lost, Wait must reach quiescence (no wedged locks —
// the phase timeouts and lock leases must fire), every job must be decided,
// and no site may end holding reservations of a rejected job. Run under
// -race in CI.
func TestLiveClusterUnderLossAndJitter(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 25
	cfg.Faults = &simnet.FaultPlan{
		Seed:      7,
		Loss:      0.25,
		MaxJitter: 0.5,
		Crashes:   []simnet.Crash{{Site: 2, At: 6, For: 6}},
	}
	topo := core.FastLine(4)
	live, err := wire.NewLiveCluster(topo, cfg, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var jobs []*core.Job
	for i := 0; i < 10; i++ {
		// Serial needs 20 > deadline 19: every job must try to distribute,
		// crossing the lossy links in every protocol phase.
		j, err := live.Submit(float64(i)*2, graph.NodeID(i%4), core.ParJob(t, 2, 10), 19)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !live.Wait(60 * time.Second) {
		t.Fatal("live cluster did not quiesce under faults: wedged lock or timer")
	}
	if !live.AllIdle() {
		t.Fatal("sites hold locks or open transactions after quiescence")
	}
	rejected := make(map[string]bool)
	for _, j := range jobs {
		if j.Outcome == core.Pending {
			t.Errorf("job %s never decided", j.ID)
		}
		if j.Outcome == core.Rejected {
			rejected[j.ID] = true
		}
	}
	for site, jobIDs := range live.ReservationJobIDs() {
		for _, id := range jobIDs {
			if rejected[id] {
				t.Errorf("site %d retains reservations of rejected job %s", site, id)
			}
		}
	}
}
