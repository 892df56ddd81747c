package core

import "repro/internal/graph"

// Test helpers shared with the external core_test package, whose live
// tests drive wire.LiveCluster (wire imports core, so they cannot live in
// package core).
var (
	FastLine    = fastLine
	ParJob      = parJob
	ChainJob    = chainJob
	MustCluster = mustCluster
	RunAll      = runAll
)

// Sphere reads a node's PCS. Call it only after WaitReady: the probe that
// reported readiness orders the read after the bootstrap wrote the sphere.
func (n *Node) Sphere() []graph.NodeID { return n.c.SiteSphere(n.site.id) }
