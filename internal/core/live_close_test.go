package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestLiveClusterCloseIdempotent exercises the shutdown ordering the node
// binary depends on: Close must be safe to call repeatedly and from several
// goroutines at once, must tear down in-flight protocol traffic without
// panicking mid-cascade, and must leave the process able to build and run a
// fresh cluster afterwards. Run under -race in CI.
func TestLiveClusterCloseIdempotent(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 30
	lc, err := wire.NewLiveCluster(core.FastLine(4), cfg, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// Submit jobs and close immediately: the transactions are mid-flight
	// when teardown starts, which is exactly the reuse hazard.
	for i := 0; i < 3; i++ {
		if _, err := lc.Submit(0, 0, core.ParJob(t, 3, 5), 1000); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc.Close()
		}()
	}
	wg.Wait()
	lc.Close() // and once more after everything returned

	// The process must remain healthy: a fresh cluster on the same topology
	// bootstraps and decides jobs after the old one was torn down.
	lc2, err := wire.NewLiveCluster(core.FastLine(4), cfg, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer lc2.Close()
	job, err := lc2.Submit(0, 1, core.ChainJob(t, 2, 1), 500)
	if err != nil {
		t.Fatal(err)
	}
	if !lc2.Wait(30 * time.Second) {
		t.Fatal("fresh cluster did not quiesce")
	}
	if job.Outcome == core.Pending {
		t.Fatal("fresh cluster left the job undecided")
	}
	if v := lc2.Violations(); len(v) != 0 {
		t.Fatalf("violations on fresh cluster: %v", v)
	}
}
