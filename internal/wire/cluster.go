package wire

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/graph"
)

// LiveCluster runs every site of a topology in this process, each as a
// core.Node on its own NetTransport listening on a loopback ephemeral port.
// Protocol messages cross real sockets through this package's codec and
// framing, exactly as between rtds-node processes; only the processes are
// folded into one. It is the wall-clock counterpart of core.Cluster, used
// by the examples, the rtds facade and the transport-equivalence tests;
// experiments use the deterministic DES.
type LiveCluster struct {
	trs   []*NetTransport
	nodes []*core.Node

	mu  sync.Mutex
	ids []string // job IDs in global submission order
}

// NewLiveCluster opens one loopback transport per site, builds a node on
// each, runs the distributed PCS bootstrap and seals every node once all
// are ready. scale is the wall-clock duration of one virtual time unit.
func NewLiveCluster(topo *graph.Graph, cfg core.Config, scale time.Duration) (*LiveCluster, error) {
	trs, err := listenLoopback(topo, scale)
	if err != nil {
		return nil, err
	}
	lc := &LiveCluster{trs: trs}
	for id, tr := range lc.trs {
		n, err := core.NewNode(topo, cfg, tr, graph.NodeID(id))
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.nodes = append(lc.nodes, n)
	}
	for _, tr := range lc.trs {
		tr.Start()
	}
	for _, n := range lc.nodes {
		n.StartBootstrap()
	}
	for id, n := range lc.nodes {
		if !n.WaitReady(30 * time.Second) {
			lc.Close()
			return nil, fmt.Errorf("wire: site %d never finished the PCS bootstrap", id)
		}
	}
	for _, n := range lc.nodes {
		n.Seal()
	}
	return lc, nil
}

// Submit injects a job arriving at origin `at` virtual time units after the
// epoch, validated like the DES Cluster.Submit; an arrival the wall clock
// has already passed is clamped to now.
func (lc *LiveCluster) Submit(at float64, origin graph.NodeID, g *dag.Graph, relDeadline float64) (*core.Job, error) {
	if int(origin) < 0 || int(origin) >= len(lc.nodes) {
		return nil, fmt.Errorf("wire: origin site %d out of range", origin)
	}
	job, err := lc.nodes[origin].Submit(at, g, relDeadline)
	if err != nil {
		return nil, err
	}
	lc.mu.Lock()
	lc.ids = append(lc.ids, job.ID)
	lc.mu.Unlock()
	return job, nil
}

// Wait polls until every submitted job is decided, every accepted job has
// finished and every node is idle, or the timeout elapses, and reports
// whether that state was reached. An accepted job counts as finished once
// Done, or once its deadline has passed on its origin's clock: no
// reservation runs past the deadline, and a DoneMsg lost to an injected
// fault plan must not stall Wait.
func (lc *LiveCluster) Wait(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !lc.settled() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func (lc *LiveCluster) settled() bool {
	for _, n := range lc.nodes {
		now := lc.trs[n.Self()].Now()
		for _, st := range n.JobStatuses() {
			if st.Outcome == core.Pending {
				return false
			}
			if st.Outcome != core.Rejected && !st.Done && now < st.AbsDeadline {
				return false
			}
		}
	}
	return lc.AllIdle()
}

// AllIdle reports whether every site has released its lock, drained its
// deferred queue and closed its transactions. Each probe runs on its
// site's execution context, so it does not race with message handlers; on
// a closed cluster it reports false.
func (lc *LiveCluster) AllIdle() bool {
	for _, n := range lc.nodes {
		if !n.Idle() {
			return false
		}
	}
	return true
}

// ReservationJobIDs reports, per site, the distinct job IDs with committed
// reservations in that site's plan; sites holding none are omitted.
func (lc *LiveCluster) ReservationJobIDs() map[graph.NodeID][]string {
	out := make(map[graph.NodeID][]string, len(lc.nodes))
	for _, n := range lc.nodes {
		if jobs := n.ReservationJobIDs(); len(jobs) > 0 {
			out[n.Self()] = jobs
		}
	}
	return out
}

// JobStatuses snapshots every submitted job's decision state, in global
// submission order (safe while the protocol is still running).
func (lc *LiveCluster) JobStatuses() []core.JobStatus {
	// Snapshot the IDs first, so every one of them is already recorded at
	// its node. Submit only appends, so the prefix is safe to read unlocked.
	lc.mu.Lock()
	ids := lc.ids[:len(lc.ids):len(lc.ids)]
	lc.mu.Unlock()
	byID := make(map[string]core.JobStatus)
	for _, n := range lc.nodes {
		for _, st := range n.JobStatuses() {
			byID[st.ID] = st
		}
	}
	out := make([]core.JobStatus, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out
}

// Violations lists the causality violations detected at every site.
func (lc *LiveCluster) Violations() []string {
	var out []string
	for _, n := range lc.nodes {
		out = append(out, n.Violations()...)
	}
	return out
}

// BootstrapCost reports the PCS construction traffic summed over sites.
func (lc *LiveCluster) BootstrapCost() (messages, bytes int64) {
	for _, n := range lc.nodes {
		m, b := n.BootstrapCost()
		messages += m
		bytes += b
	}
	return messages, bytes
}

// Nodes lists the per-site nodes, indexed by site.
func (lc *LiveCluster) Nodes() []*core.Node {
	return append([]*core.Node(nil), lc.nodes...)
}

// Close shuts every transport down; in-flight messages are dropped.
// Idempotent and safe to call concurrently, because NetTransport.Close is.
func (lc *LiveCluster) Close() {
	for _, tr := range lc.trs {
		tr.Close()
	}
}

// listenLoopback opens one transport per site of the topology on a
// loopback ephemeral port and gives each the full peer address map.
func listenLoopback(topo *graph.Graph, scale time.Duration) ([]*NetTransport, error) {
	trs := make([]*NetTransport, 0, topo.Len())
	addrs := make(map[graph.NodeID]string, topo.Len())
	for id := graph.NodeID(0); int(id) < topo.Len(); id++ {
		tr, err := Listen(NetConfig{Self: id, Topo: topo, Listen: "127.0.0.1:0", Scale: scale})
		if err != nil {
			for _, tr := range trs {
				tr.Close()
			}
			return nil, err
		}
		trs = append(trs, tr)
		addrs[id] = tr.Addr()
	}
	for _, tr := range trs {
		tr.SetPeers(addrs)
	}
	return trs, nil
}
