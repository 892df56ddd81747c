package lockorder

// DocumentedHierarchy is the canonical lock hierarchy of the repository's
// lock-using packages (internal/core, internal/simnet, internal/wire), as
// derived by Hierarchy and verified against the derivation by
// TestDocumentedHierarchyMatchesDerived — editing one without the other
// fails the build's test leg.
//
// It is currently EMPTY, and that is the interesting fact: the repository's
// lock discipline is flat. No mutex is acquired — directly or through any
// chain of calls — while another mutex is held. The code achieves this by
// snapshotting under a lock and working on the snapshot after release:
// wire.NetTransport.Send drops its mu before enqueueing on the peer's
// frame queue (whose own mu is taken enqueue/dequeue-local), the
// wire.NetTransport accessors hand out field pointers without locking,
// wire.LiveCluster takes its mu only around its job-ID list, and
// core.Cluster calls only lock-free accessors (Transport.Stats,
// Transport.Now, payload Kind/SizeBytes) under Cluster.mu.
//
// A flat discipline cannot deadlock on mutexes at all, which is a stronger
// property than any ordering. If a future change nests acquisitions, the
// lockorder analyzer starts ordering the classes involved, this list stops
// matching the derivation, and the agreement test forces the new hierarchy
// to be recorded — and thought about — here.
var DocumentedHierarchy []string
