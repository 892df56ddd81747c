package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/workload"
)

// simCase is one discrete-event workload: a fixed set of instances (each a
// topology plus an arrival sequence derived from the run's seed), run
// pass after pass until the measured time is spent.
type simCase struct {
	sites     int
	hier      bool // scheme rtds-hier instead of flat rtds
	workers   int  // core.Config.KernelWorkers
	load      float64
	horizon   float64
	instances int // per pass
	minPasses int // setup_s needs several samples per run
}

// simDense: the run phase dominates (event heap, handlers, admission).
var simDense = simCase{sites: 64, workers: 0, load: 0.8, horizon: 150, instances: 12, minPasses: 3}

// simWide: set-up dominates (1.2 M bootstrap messages at 4,096 sites).
var simWide = simCase{sites: 4096, hier: true, workers: min(2, runtime.NumCPU()), load: 0.3, horizon: 80, instances: 1, minPasses: 3}

// fingerprint is what a deterministic instance must reproduce exactly.
type fingerprint struct {
	events, msgs, bytes int64
	submitted, accepted int
}

// instResult is one instance's measurements.
type instResult struct {
	fp        fingerprint
	decided   int
	setup     time.Duration
	run       time.Duration
	runCPU    time.Duration // process CPU time during Cluster.Run
	acceptMS  []float64     // per job: its Submit call
	decideMS  []float64     // per job: accept plus its virtual decision latency x liveScale
	sum       core.Summary
	boot      [2]int64 // bootstrap messages, bytes
	rounds    int
	tableMax  [2]int // routing-state bytes, entries (largest site)
	outcomes  outcomes
	layerSpan map[string]time.Duration
	alloc     map[string]memDelta
	failed    int      // undecided, late or unfinished accepted jobs, verify errors, violations
	problems  []string // correctness-gate breaches
}

// memDelta is the allocation cost of one traced call.
type memDelta struct {
	bytes, mallocs uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs, b.NumGC - a.NumGC, b.PauseTotalNs - a.PauseTotalNs}
}

// instanceSeed derives instance i's seed from the run seed.
func instanceSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// traced runs fn inside a span; with tr nil it only runs fn. A traced
// call also records its allocation cost (a stop-the-world read on each
// side, so only traced runs pay it).
func traced(tr *Tracer, res *instResult, name, job string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	before := readMem()
	id := tr.begin(name, 0, job)
	start := time.Now()
	err := fn()
	res.layerSpan[name] += time.Since(start)
	tr.end(id)
	res.alloc[name] = diffMem(before, readMem())
	return err
}

// runInstance builds, runs and checks one instance.
//
// With check set the run is re-derived by verify.CheckCluster, which costs
// more than the run itself at 4,096 sites; a pass without it is pinned to
// a checked pass by comparePasses instead.
func runInstance(c simCase, seed int64, workers int, check bool, tr *Tracer) (*instResult, error) {
	res := &instResult{layerSpan: make(map[string]time.Duration), alloc: make(map[string]memDelta)}
	job := fmt.Sprintf("instance-%d", seed)
	t0 := time.Now()
	var topo *graph.Graph
	if err := traced(tr, res, "graph.topology", job, func() (err error) {
		topo, err = graph.Generate(graph.TopologyKind("random"), c.sites, experiments.StdDelays, seed)
		return err
	}); err != nil {
		return nil, err
	}
	var arrivals []workload.Arrival
	if err := traced(tr, res, "workload.generate", job, func() (err error) {
		spec := experiments.StdSpec(c.sites, c.horizon, seed)
		spec.RatePerSite = workload.RateForLoad(c.load, workload.ExpectedWorkPerJob(spec, 200))
		arrivals, err = workload.Generate(spec)
		return err
	}); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Hier = c.hier
	cfg.KernelWorkers = workers
	var cl *core.Cluster
	if err := traced(tr, res, "core.new_cluster", job, func() (err error) {
		cl, err = core.NewCluster(topo, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)
	// Set-up garbage is collected before the jobs are submitted, outside
	// every timed span. A job is due when its Submit call starts: the DES
	// takes each job synchronously, with nothing queued ahead of it.
	runtime.GC()
	res.acceptMS = make([]float64, len(arrivals))
	jobs := make([]*core.Job, len(arrivals))
	submitStart := time.Now()
	if err := traced(tr, res, "core.submit", job, func() (err error) {
		for i, a := range arrivals {
			due := time.Now()
			if jobs[i], err = cl.Submit(a.At, a.Origin, a.Graph, a.Deadline); err != nil {
				return err
			}
			res.acceptMS[i] = ms(time.Since(due))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res.setup += time.Since(submitStart)

	runStart, cpu0 := time.Now(), cpuTime()
	if err := traced(tr, res, "core.run", job, cl.Run); err != nil {
		return nil, err
	}
	res.run, res.runCPU = time.Since(runStart), cpuTime()-cpu0
	// The decision latency the protocol gave each job, in virtual time,
	// at the live deployment's time scale: the same formula as on
	// gateway-live, where accept is the HTTP round trip.
	res.decideMS = make([]float64, len(jobs))
	for i, j := range jobs {
		res.decideMS[i] = res.acceptMS[i] + (j.DecisionAt-j.Arrival)*ms(liveScale)
	}

	// Correctness gate: every verdict re-derived from first principles,
	// no causality violation, every job decided, every accepted job on time.
	var verr []error
	if check {
		_ = traced(tr, res, "verify.check", job, func() error {
			verr = verify.CheckCluster(cl, topo, cfg.Throughput, cfg.Preemptive)
			return nil
		})
	}
	if len(verr) > 0 {
		res.problems = append(res.problems, fmt.Sprintf("instance %d: verify: %d errors, first: %v", seed, len(verr), verr[0]))
	}
	violations := cl.Violations()
	if len(violations) > 0 {
		res.problems = append(res.problems, fmt.Sprintf("instance %d: %d causality violations, first: %s", seed, len(violations), violations[0]))
	}
	sum := cl.Summarize()
	if bad := sum.Undecided + sum.CompletedLate + sum.AcceptedNotCompleted; bad > 0 {
		res.problems = append(res.problems, fmt.Sprintf("instance %d: %d undecided, %d accepted but late, %d accepted but unfinished",
			seed, sum.Undecided, sum.CompletedLate, sum.AcceptedNotCompleted))
	}
	res.failed = sum.Undecided + sum.CompletedLate + sum.AcceptedNotCompleted + len(verr) + len(violations)
	res.sum = sum
	accepted := sum.AcceptedLocal + sum.AcceptedDistributed
	res.fp = fingerprint{cl.EventsProcessed(), sum.Messages, sum.Bytes, sum.Submitted, accepted}
	res.decided = sum.Submitted - sum.Undecided
	res.boot[0], res.boot[1] = cl.BootstrapCost()
	res.rounds = cl.BootstrapRounds()
	res.tableMax[0], res.tableMax[1] = cl.RoutingState()
	res.outcomes.addSummary(sum)
	for _, j := range cl.Jobs() {
		res.outcomes.addJob(j.Outcome, j.RejectStage, j.ACSSize)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pass runs every instance once.
func pass(c simCase, seed int64, workers int, check bool, tr *Tracer) ([]*instResult, error) {
	out := make([]*instResult, c.instances)
	for i := range out {
		r, err := runInstance(c, instanceSeed(seed, i), workers, check, tr)
		if err != nil {
			return nil, err
		}
		out[i] = r
		// Collect the finished cluster before the next instance, so that
		// timings do not pay for its garbage.
		runtime.GC()
	}
	return out, nil
}

// gate adds a pass's correctness-gate results to res.
func gate(res *result, p []*instResult) {
	for _, r := range p {
		res.failed += r.failed
		res.problems = append(res.problems, r.problems...)
	}
}

// comparePasses records a determinism failure when two passes differ.
func comparePasses(res *result, what string, a, b []*instResult) {
	for i := range a {
		if a[i].fp != b[i].fp {
			res.fail("determinism: instance %d differs between %s: %+v vs %+v", i, what, a[i].fp, b[i].fp)
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runSim(c simCase, o options) (*result, error) {
	if o.trace {
		return runSimTraced(c, o)
	}
	res := &result{}
	// A warm-up pass first, which is also the one verify.CheckCluster
	// re-derives: the process's first pass runs measurably slower (heap
	// growth, cold caches), which no user pays per job.
	warm, err := pass(c, o.seed, c.workers, true, nil)
	if err != nil {
		return nil, err
	}
	gate(res, warm)
	// peak_rss_mb is the measured passes', not verify.CheckCluster's
	// (an all-pairs distance matrix, 128 MiB at 4,096 sites).
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var passes [][]*instResult
	start := time.Now()
	for len(passes) < c.minPasses || time.Since(start).Seconds() < o.seconds {
		p, err := pass(c, o.seed, c.workers, false, nil)
		if err != nil {
			return nil, err
		}
		gate(res, p)
		comparePasses(res, "passes", warm, p)
		passes = append(passes, p)
	}

	var setup, jobsPerS, accept, decide []float64
	for _, p := range passes {
		var decided int
		var runCPU time.Duration
		for _, r := range p {
			setup = append(setup, r.setup.Seconds())
			decided += r.decided
			runCPU += r.runCPU
			accept = append(accept, r.acceptMS...)
			decide = append(decide, r.decideMS...)
		}
		jobsPerS = append(jobsPerS, float64(decided)/runCPU.Seconds())
	}
	var submitted, accepted int
	for _, r := range passes[0] {
		submitted += r.fp.submitted
		accepted += r.fp.accepted
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.notef("%d passes x %d instances of %d sites, %d jobs per pass", len(passes), c.instances, c.sites, submitted)
	res.add("setup_s", median(setup), "s", len(setup), "median over instance set-ups")
	res.add("jobs_per_s", median(jobsPerS), "1/s", len(jobsPerS), "median over passes of decided jobs / process CPU time of Cluster.Run")
	res.add("guarantee_ratio", float64(accepted)/float64(submitted), "ratio", submitted, "")
	res.add("peak_rss_mb", rss, "MB", 1, "VmHWM")
	addLatencies(res, accept, decide)
	res.attempted = submitted * (len(passes) + 1)
	return res, nil
}

// addLatencies reports the medians of per-job accept and decide samples in
// milliseconds, and their tails (p99, or the highest percentile with ten
// samples beyond it) as report lines: the tails do not repeat across runs
// closely enough to be gated.
func addLatencies(res *result, accept, decide []float64) {
	res.add("accept_p50_ms", median(accept), "ms", len(accept), "")
	res.add("decide_p50_ms", median(decide), "ms", len(decide), "")
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"accept", accept}, {"decide", decide}} {
		t, q := tail(l.xs)
		res.notef("%s_p99_ms %.6g ms at p%.4g, n=%d (reported, not gated)", l.name, t, 100*q, len(l.xs))
	}
}

// runSimTraced runs a verified pass on the serial kernel, an untraced and
// a traced pass and, on the parallel kernel, a P=1 control pass; pins
// their totals against each other; and reports the per-layer metrics of
// the traced pass.
func runSimTraced(c simCase, o options) (*result, error) {
	res := &result{}
	// The serial kernel is the reference, so its pass is the verified one;
	// it runs first and doubles as the warm-up.
	serial, err := pass(c, o.seed, 0, true, nil)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	plain, err := pass(c, o.seed, c.workers, false, nil)
	if err != nil {
		return nil, err
	}
	cpuPlain := cpuTime() - cpu0
	tr := newTracer()
	cpu0 = cpuTime()
	tp, err := pass(c, o.seed, c.workers, false, tr)
	if err != nil {
		return nil, err
	}
	cpuTraced := cpuTime() - cpu0
	for _, p := range [][]*instResult{serial, plain, tp} {
		gate(res, p)
	}
	comparePasses(res, fmt.Sprintf("the serial kernel and KernelWorkers=%d", c.workers), serial, plain)
	comparePasses(res, "the untraced and traced runs", plain, tp)
	var p1Run time.Duration
	if c.workers > 0 {
		p1, err := pass(c, o.seed, 1, false, nil)
		if err != nil {
			return nil, err
		}
		gate(res, p1)
		comparePasses(res, fmt.Sprintf("P=1 and P=%d", c.workers), p1, plain)
		for _, r := range p1 {
			p1Run += r.run
		}
	}
	path, err := tr.write(buildDir+"/spans", spanFile(o))
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)

	n := float64(len(tp))
	var sumSpan = make(map[string]time.Duration)
	var alloc = make(map[string]memDelta)
	var events, bootMsgs, bootBytes int64
	var rounds, tBytes, tEntries int
	var oc outcomes
	for _, r := range tp {
		for k, v := range r.layerSpan {
			sumSpan[k] += v
		}
		for k, v := range r.alloc {
			a := alloc[k]
			alloc[k] = memDelta{a.bytes + v.bytes, a.mallocs + v.mallocs, a.gcs + v.gcs, a.pauseNs + v.pauseNs}
		}
		events += r.fp.events
		oc.merge(r.outcomes)
		bootMsgs += r.boot[0]
		bootBytes += r.boot[1]
		rounds = max(rounds, r.rounds)
		tBytes = max(tBytes, r.tableMax[0])
		tEntries = max(tEntries, r.tableMax[1])
	}
	inst := len(tp)
	perInst := func(d time.Duration) float64 { return d.Seconds() / n }
	mb := func(b uint64) float64 { return float64(b) / n / (1 << 20) }
	run := alloc["core.run"]
	res.notef("%d instances of %d sites, %d jobs; per-layer times and allocations are per instance", inst, c.sites, oc.submitted)
	res.add("workload.generate_s", perInst(sumSpan["workload.generate"]), "s", inst, "")
	res.add("workload.alloc_mb", mb(alloc["workload.generate"].bytes), "MB", inst, "")
	res.add("graph.topology_s", perInst(sumSpan["graph.topology"]), "s", inst, "")
	res.add("core.new_cluster_s", perInst(sumSpan["core.new_cluster"]), "s", inst, "")
	res.add("core.new_cluster_alloc_mb", mb(alloc["core.new_cluster"].bytes), "MB", inst, "")
	res.add("routing.bootstrap_msgs", float64(bootMsgs)/n, "count", inst, "")
	res.add("routing.bootstrap_mb", float64(bootBytes)/n/(1<<20), "MB", inst, "")
	res.add("routing.bootstrap_rounds", float64(rounds), "count", inst, "largest")
	res.add("routing.table_bytes_max", float64(tBytes), "bytes", inst, "largest site")
	res.add("routing.entries_max", float64(tEntries), "count", inst, "largest site")
	res.add("core.run_s", perInst(sumSpan["core.run"]), "s", inst, "")
	res.add("sim.events", float64(events), "count", inst, "all instances")
	res.add("sim.ns_per_event", share(float64(sumSpan["core.run"].Nanoseconds()), float64(events)), "ns", int(events), "")
	res.add("core.run_alloc_bytes_per_event", share(float64(run.bytes), float64(events)), "bytes", int(events), "")
	res.add("core.run_mallocs_per_event", share(float64(run.mallocs), float64(events)), "count", int(events), "")
	res.add("runtime.gc_cycles", float64(run.gcs), "count", inst, "during Cluster.Run, all instances")
	res.add("runtime.gc_pause_ms", float64(run.pauseNs)/1e6, "ms", int(run.gcs), "during Cluster.Run, all instances")
	res.add("sim.p1_run_s", perInst(p1Run), "s", inst, "Cluster.Run at KernelWorkers=1; 0 on the serial kernel")
	addOutcomes(res, oc)
	res.add("trace.overhead_share", cpuTraced.Seconds()/cpuPlain.Seconds()-1, "share", 2, "CPU time of the traced pass over the untraced one, minus 1")
	res.attempted = oc.submitted * 3
	if c.workers > 0 {
		res.attempted += oc.submitted
	}
	return res, nil
}

// outcomes accumulates the protocol's per-job outcomes and traffic.
type outcomes struct {
	submitted                 int
	msgs, ctrl, bytes, cross  int64
	distAttempts, distAccepts int
	acsSum                    float64
	acsN                      int
	rejected                  map[core.RejectStage]int
}

func (o *outcomes) addSummary(s core.Summary) {
	o.submitted += s.Submitted
	o.msgs += s.Messages
	o.ctrl += s.ControlMessages
	o.bytes += s.Bytes
	o.cross += s.CrossRegionMessages
	if o.rejected == nil {
		o.rejected = make(map[core.RejectStage]int)
	}
	for k, v := range s.RejectedByStage {
		o.rejected[k] += v
	}
}

// addJob counts one job's distribution attempt: every job that was not
// accepted locally and not refused before distribution entered it.
func (o *outcomes) addJob(out core.Outcome, stage core.RejectStage, acs int) {
	if acs > 0 {
		o.acsSum += float64(acs)
		o.acsN++
	}
	switch {
	case out == core.AcceptedDistributed:
		o.distAttempts++
		o.distAccepts++
	case out == core.Rejected && stage != core.StageLocalOnly && stage != core.StageNoSphere:
		o.distAttempts++
	}
}

func (o *outcomes) merge(p outcomes) {
	o.addSummary(core.Summary{Submitted: p.submitted, Messages: p.msgs, ControlMessages: p.ctrl,
		Bytes: p.bytes, CrossRegionMessages: p.cross, RejectedByStage: p.rejected})
	o.distAttempts += p.distAttempts
	o.distAccepts += p.distAccepts
	o.acsSum += p.acsSum
	o.acsN += p.acsN
}

// addOutcomes reports the core protocol-outcome metrics.
func addOutcomes(res *result, o outcomes) {
	n := float64(o.submitted)
	res.add("core.msgs_per_job", share(float64(o.msgs-o.ctrl), n), "count", o.submitted, "control traffic excluded")
	res.add("core.bytes_per_job", share(float64(o.bytes), n), "bytes", o.submitted, "")
	res.add("core.acs_mean", share(o.acsSum, float64(o.acsN)), "sites", o.acsN, "")
	res.add("core.cross_region_msgs", float64(o.cross), "count", o.submitted, "")
	res.add("core.distributed_success_ratio", share(float64(o.distAccepts), float64(o.distAttempts)), "ratio", o.distAttempts, "distributed accepts / distribution attempts")
	res.add("core.reject_empty_acs", float64(o.rejected[core.StageEmptyACS]), "count", o.submitted, "")
	res.add("core.reject_mapper", float64(o.rejected[core.StageMapper]), "count", o.submitted, "")
	res.add("core.reject_matching", float64(o.rejected[core.StageMatching]), "count", o.submitted, "")
}
