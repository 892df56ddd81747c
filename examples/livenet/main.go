// Livenet: the same RTDS protocol running in real (scaled) time instead of
// the deterministic event simulator. Every site is its own node on its own
// loopback TCP socket, so the protocol messages travel as length-prefixed
// binary frames exactly as between rtds-node processes; only the processes
// are folded into one. Demonstrates that the protocol logic is
// transport-agnostic and survives genuine concurrency.
package main

import (
	"fmt"
	"log"
	"time"

	rtds "repro"
)

func ring() *rtds.Network {
	topo := rtds.NewNetwork(5)
	topo.MustAddEdge(0, 1, 0.05)
	topo.MustAddEdge(1, 2, 0.05)
	topo.MustAddEdge(2, 3, 0.05)
	topo.MustAddEdge(3, 4, 0.05)
	topo.MustAddEdge(4, 0, 0.08)
	return topo
}

func burst() *rtds.DAG {
	// Three independent tasks: needs parallelism under a tight deadline.
	// 30 units of work, deadline 26: impossible on one site, easy on three.
	return rtds.NewJob("burst").
		Task(1, 10).Task(2, 10).Task(3, 10).
		MustBuild()
}

func liveConfig() rtds.Config {
	cfg := rtds.DefaultConfig()
	// Real message handling takes real time, which the pure-delay timeouts
	// of the simulator do not model — give wall-clock runs generous slack.
	cfg.EnrollSlack = 2
	cfg.ReleasePadFactor = 30
	return cfg
}

func main() {
	start := time.Now()
	cluster, err := rtds.NewLiveCluster(ring(), liveConfig(), 2*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	bootMsgs, _ := cluster.BootstrapCost()
	fmt.Printf("live PCS bootstrap over TCP sockets: %d messages in %v\n",
		bootMsgs, time.Since(start).Round(time.Millisecond))

	if _, err := cluster.Submit(0, 0, burst(), 26); err != nil {
		log.Fatal(err)
	}
	if !cluster.Wait(30 * time.Second) {
		log.Fatal("cluster did not quiesce")
	}
	st := cluster.JobStatuses()[0]
	fmt.Printf("job outcome: %s (ACS %d sites, |U| = %d), wall time %v\n",
		st.OutcomeName, st.ACSSize, st.NumProcs, time.Since(start).Round(time.Millisecond))
	if st.Outcome == rtds.Pending {
		log.Fatal("job left undecided")
	}
	if v := cluster.Violations(); len(v) > 0 {
		log.Fatalf("causality violations: %v", v)
	}
}
