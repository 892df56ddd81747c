package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/joblog"
	"repro/internal/nodeapi"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The gateway-live deployment: the cmd/rtds-node live configuration on
// loopback TCP behind an in-process gateway with its deployed defaults.
const (
	liveSites    = 8
	liveScale    = 2 * time.Millisecond // wall time of one virtual unit
	liveSlack    = 8                    // EnrollSlack, virtual units
	livePad      = 30                   // ReleasePadFactor
	liveHB       = 25                   // membership heartbeat period, virtual units
	liveSlice    = 6.0                  // seconds of schedule per fresh deployment
	liveSetups   = 15                   // set-ups per run, the driven ones included (setup_s is their median)
	liveTenant   = "bench"
	drainTimeout = 60 * time.Second
)

// The open-loop schedule: liveBaseRate submissions per second for the
// measured time, split evenly over fresh deployments of about liveSlice
// seconds each (the gateway's decision poll grows with the job history, so
// one long phase would measure a drifting system). The tenant quota sits
// far above the rate, so every 429 comes from the gateway's laxity gate.
const liveBaseRate = 70.0

var liveQuota = gateway.Quota{Rate: 10000, Burst: 10000, MaxInflight: 100000}

// liveSpec is the job shape of the soak acceptance run: Std DAGs,
// deadlines 8x the critical path (margin-robust: verdicts do not flip on
// timing noise) and 30% extra infeasible jobs (0.4x). At liveBaseRate the
// cluster's virtual offered load is about 0.47 (0.36 from the feasible
// jobs alone).
func liveSpec(seed int64, horizon float64) workload.Spec {
	spec := experiments.StdSpec(liveSites, horizon, seed)
	spec.Tightness = 8
	return spec
}

// liveJob is one pre-generated submission.
type liveJob struct {
	body     []byte
	due      time.Duration // after its deployment's schedule starts
	feasible bool
}

// liveDeployments is the number of deployments a schedule of measured
// seconds is split over.
func liveDeployments(measured float64) int { return max(1, int(math.Round(measured/liveSlice))) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// genJobs pre-generates the whole schedule from the seed before timing,
// one job list per deployment.
func genJobs(seed int64, measured float64, tr *Tracer) ([][]liveJob, error) {
	deployments := liveDeployments(measured)
	slice := measured / float64(deployments)
	type slot struct {
		dep int
		due time.Duration
	}
	var slots []slot
	for dep := 0; dep < deployments; dep++ {
		for i := 0; float64(i)/liveBaseRate < slice; i++ {
			slots = append(slots, slot{dep, seconds(float64(i) / liveBaseRate)})
		}
	}
	var id int32
	if tr != nil {
		id = tr.begin("workload.generate", 0, "")
		defer tr.end(id)
	}
	// Feasible and infeasible streams merged by arrival time, as the
	// rtds-load harness draws them; the arrival times only order the jobs.
	// The first horizon is sized to yield about 10% more jobs than needed.
	var arrivals []workload.Arrival
	perUnit := 1.3 * liveSites * liveSpec(seed, 1).RatePerSite
	for horizon := 1.1 * float64(len(slots)) / perUnit; len(arrivals) < len(slots); horizon *= 2 {
		spec := liveSpec(seed, horizon)
		feasible, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		spec.Tightness = 0.4
		spec.Seed = seed + 1
		spec.RatePerSite *= 0.3
		infeasible, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		arrivals = append(feasible, infeasible...)
		sort.SliceStable(arrivals, func(i, j int) bool {
			if arrivals[i].At != arrivals[j].At {
				return arrivals[i].At < arrivals[j].At
			}
			return arrivals[i].Origin < arrivals[j].Origin
		})
	}
	jobs := make([][]liveJob, deployments)
	for i, s := range slots {
		a := arrivals[i]
		graphJSON, err := json.Marshal(a.Graph)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(gateway.SubmitRequest{
			Tenant: liveTenant, ClientKey: fmt.Sprintf("perfbench-%d-%d", seed, i),
			Deadline: a.Deadline, Graph: graphJSON,
		})
		if err != nil {
			return nil, err
		}
		jobs[s.dep] = append(jobs[s.dep], liveJob{body: body, due: s.due, feasible: a.Deadline >= a.Graph.CriticalPathLength()})
	}
	return jobs, nil
}

// deployment is one running gateway-live stack.
type deployment struct {
	topo    *graph.Graph
	cfg     core.Config
	trs     []*wire.NetTransport
	nodes   []*core.Node
	srvs    []*http.Server
	gw      *gateway.Server
	gwSrv   *http.Server
	gwURL   string
	logPath string
	serving sync.WaitGroup

	bootAlloc uint64 // bytes allocated by the bootstrap (traced runs)
}

// serve runs srv on a fresh loopback listener and returns its base URL.
func (d *deployment) serve(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// deploy boots the cluster over TCP through Seal and opens the gateway
// and its job log: the set-up that setup_s times.
func deploy(seed int64, logPath string, tr *Tracer, tw *liveTrace) (*deployment, error) {
	d := &deployment{logPath: logPath}
	if err := os.Remove(logPath); err != nil && !os.IsNotExist(err) {
		return nil, err // a replayed log would turn submissions into duplicates
	}
	var err error
	var tid int32
	if tr != nil {
		tid = tr.begin("graph.topology", 0, "")
	}
	d.topo, err = graph.Generate(graph.TopologyKind("random"), liveSites, experiments.StdDelays, seed)
	if tr != nil {
		tr.end(tid)
	}
	if err != nil {
		return nil, err
	}
	d.cfg = core.DefaultConfig()
	d.cfg.EnrollSlack = liveSlack
	d.cfg.ReleasePadFactor = livePad
	d.cfg.Membership = membership.Config{Enabled: true, HeartbeatEvery: liveHB}

	var before runtime.MemStats
	if tr != nil {
		before = readMem()
		tid = tr.begin("core.new_cluster", 0, "")
	}
	peers := make(map[graph.NodeID]string, liveSites)
	for id := 0; id < liveSites; id++ {
		t, err := wire.Listen(wire.NetConfig{
			Self: graph.NodeID(id), Topo: d.topo, Listen: "127.0.0.1:0",
			Scale: liveScale, Seed: seed*1000 + int64(id),
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.trs = append(d.trs, t)
		peers[graph.NodeID(id)] = t.Addr()
	}
	bases := make([]string, liveSites)
	apis := make([]*nodeapi.Server, liveSites)
	for id, t := range d.trs {
		t.SetPeers(peers)
		var nt simnet.Transport = t
		if tw != nil {
			nt = tw.wrap(t)
		}
		node, err := core.NewNode(d.topo, d.cfg, nt, graph.NodeID(id))
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, node)
		apis[id] = nodeapi.New(node)
		srv := &http.Server{Handler: apis[id]}
		d.srvs = append(d.srvs, srv)
		if bases[id], err = d.serve(srv); err != nil {
			d.close()
			return nil, err
		}
	}
	for _, t := range d.trs {
		t.Start()
	}
	for _, n := range d.nodes {
		n.StartBootstrap()
	}
	// Poll Ready every millisecond rather than through WaitReady, whose
	// 5 ms sleeps would quantize a bootstrap that takes a few of them.
	bootDeadline := time.Now().Add(30 * time.Second)
	for id, n := range d.nodes {
		for !n.Ready() {
			if time.Now().After(bootDeadline) {
				d.close()
				return nil, fmt.Errorf("site %d: PCS bootstrap did not complete", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for id, n := range d.nodes {
		n.Seal()
		apis[id].SetReady()
	}
	if tr != nil {
		tr.end(tid)
		d.bootAlloc = diffMem(before, readMem()).bytes
	}

	var backend gateway.Backend
	backend, err = gateway.NewHTTPBackend(bases, 10*time.Second)
	if err != nil {
		d.close()
		return nil, err
	}
	opts := gateway.Options{
		Tenants: map[string]gateway.Quota{liveTenant: liveQuota},
		LogPath: logPath,
	}
	if tw != nil {
		backend = tw.wrapBackend(backend)
		opts.Log.OnSync = tw.onSync
	}
	opts.Backend = backend
	if d.gw, err = gateway.New(opts); err != nil {
		d.close()
		return nil, err
	}
	var h http.Handler = d.gw
	if tw != nil {
		h = tw.wrapHandler(d.gw)
	}
	d.gwSrv = &http.Server{Handler: h}
	if d.gwURL, err = d.serve(d.gwSrv); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// stopGateway shuts the gateway's HTTP server down and closes the server
// (poller and job log).
func (d *deployment) stopGateway() error {
	if d.gwSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = d.gwSrv.Shutdown(ctx)
		d.gwSrv = nil
	}
	if d.gw != nil {
		err := d.gw.Close()
		d.gw = nil
		return err
	}
	return nil
}

// close stops everything and waits for the serving goroutines.
func (d *deployment) close() error {
	err := d.stopGateway()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range d.srvs {
		_ = s.Shutdown(ctx)
	}
	for _, t := range d.trs {
		t.Close()
	}
	d.serving.Wait()
	return err
}

// sample is one scheduled submission as the generator saw it.
type sample struct {
	dep       int // deployment index
	due       time.Time
	late      time.Duration // send start after max(due, previous reply)
	acked     time.Time
	status    int
	id        string // gateway job ID (202 only)
	feasible  bool
	outcome   string
	clusterID string
	decision  float64 // cluster-reported DecisionLatency, virtual units
	decided   bool
}

func (s *sample) acceptMS() float64 { return ms(s.acked.Sub(s.due)) }

// refusedInfeasible reports a laxity 429 for a job whose deadline is below
// its own critical path: no schedule could meet it, so the refusal is a
// correct rejection, not a failure.
func (s *sample) refusedInfeasible() bool {
	return s.status == http.StatusTooManyRequests && !s.feasible
}

// failedSubmit reports a sent submission that was neither acked nor
// correctly refused.
func (s *sample) failedSubmit() bool {
	return s.status != http.StatusAccepted && !s.refusedInfeasible()
}

func (s *sample) decideMS() float64 {
	return s.acceptMS() + s.decision*float64(liveScale)/float64(time.Millisecond)
}

// oneConnClient is an HTTP client that keeps a single connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// drive runs the open-loop schedule: the calling goroutine submits on
// schedule over one connection, and a second goroutine reads every acked
// job's status over another until it is decided. It also returns the
// process CPU time spent while submitting.
//
// Requests carry their index in the run's schedule, first+i, as
// X-Request-Id, so that spans can be matched to replies afterwards.
func drive(d *deployment, jobs []liveJob, first int) ([]*sample, time.Duration, error) {
	samples := make([]*sample, len(jobs))
	acked := make(chan *sample, len(jobs)) // sized to the number of sends
	submitter, reader := oneConnClient(), oneConnClient()
	defer submitter.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = readStatuses(reader, d.gwURL, acked)
	}()

	start := time.Now().Add(20 * time.Millisecond)
	cpu0 := cpuTime()
	var prevDone time.Time
	var submitErr error
	for i, j := range jobs {
		s := &sample{due: start.Add(j.due), feasible: j.feasible}
		samples[i] = s
		if w := time.Until(s.due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		ready := s.due
		if prevDone.After(ready) {
			ready = prevDone
		}
		s.late = sent.Sub(ready)
		req, err := http.NewRequest(http.MethodPost, d.gwURL+"/v1/jobs", bytes.NewReader(j.body))
		if err != nil {
			submitErr = err
			break
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", strconv.Itoa(first+i))
		resp, err := submitter.Do(req)
		if err != nil {
			submitErr = fmt.Errorf("submit %d: %w", i, err)
			break
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.acked = time.Now()
		prevDone = s.acked
		s.status = resp.StatusCode
		if err != nil {
			submitErr = fmt.Errorf("submit %d: %w", i, err)
			break
		}
		if resp.StatusCode == http.StatusAccepted {
			var reply struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &reply); err != nil || reply.ID == "" {
				submitErr = fmt.Errorf("submit %d: malformed ack %q", i, data)
				break
			}
			s.id = reply.ID
			acked <- s
		}
	}
	cpu := cpuTime() - cpu0
	close(acked)
	wg.Wait()
	if submitErr != nil {
		return nil, 0, submitErr
	}
	return samples, cpu, readErr
}

// jobReply is the part of GET /v1/jobs/{id} the benchmark reads.
type jobReply struct {
	State           string  `json:"state"`
	Outcome         string  `json:"outcome"`
	ClusterID       string  `json:"cluster_id"`
	DecisionLatency float64 `json:"decision_latency"`
}

func getJob(c *http.Client, base, id string) (jobReply, int, error) {
	var j jobReply
	resp, err := c.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return j, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return j, resp.StatusCode, nil
	}
	return j, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&j)
}

// readStatuses polls every acked job until it is decided. A sweep over
// the pending jobs runs every 100 ms: half the gateway's poll period, so
// no decision waits long to be read, without flooding the gateway.
func readStatuses(c *http.Client, base string, acked <-chan *sample) error {
	var pending []*sample
	open := true
	deadline := time.Time{}
	for open || len(pending) > 0 {
		sweep := time.Now()
		for open {
			select {
			case s, ok := <-acked:
				if !ok {
					open = false
					deadline = time.Now().Add(drainTimeout)
					break
				}
				pending = append(pending, s)
				continue
			default:
			}
			break
		}
		kept := pending[:0]
		for _, s := range pending {
			j, code, err := getJob(c, base, s.id)
			if err != nil {
				return fmt.Errorf("read %s: %w", s.id, err)
			}
			if code == http.StatusOK && j.State == gateway.StateDecided {
				s.decided, s.outcome, s.clusterID, s.decision = true, j.Outcome, j.ClusterID, j.DecisionLatency
				continue
			}
			kept = append(kept, s)
		}
		pending = kept
		if !open && !deadline.IsZero() && time.Now().After(deadline) {
			return nil // still-undecided jobs count as failed
		}
		if w := 100*time.Millisecond - time.Since(sweep); w > 0 {
			time.Sleep(w)
		}
	}
	return nil
}

// liveRun is the whole schedule driven through its deployments.
type liveRun struct {
	setups    []float64     // seconds
	samples   []*sample     // every deployment's, in schedule order
	cpu       time.Duration // process CPU time while submitting
	gc        memDelta      // runtime GC cost while driving the schedule
	windows   [][2]int64    // tracer times while driving the schedule
	records   int           // job-log records found on reopen
	nodes     nodeReport    // the last deployment's
	bootAlloc uint64        // the last deployment's
	problems  []string
	failed    map[int]bool // samples failing the correctness gate
}

// runLiveOnce sets up a fresh deployment for each part of the schedule,
// drives it and checks the outcome.
func runLiveOnce(o options, schedule [][]liveJob, dir string, tr *Tracer, tw *liveTrace) (*liveRun, error) {
	lr := &liveRun{failed: make(map[int]bool)}
	// A set-up takes a few milliseconds, so most samples come from
	// deployments that are closed again at once.
	for i := len(schedule); i < liveSetups; i++ {
		t0 := time.Now()
		d, err := deploy(o.seed, filepath.Join(dir, fmt.Sprintf("setup-%d.log", i)), tr, tw)
		if err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	for i, jobs := range schedule {
		logPath := filepath.Join(dir, fmt.Sprintf("jobs-%d.log", i))
		t0 := time.Now()
		d, err := deploy(o.seed, logPath, tr, tw)
		if err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
		err = lr.driveAndCheck(d, jobs, tr, tw, i == len(schedule)-1)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		runtime.GC() // the next deployment starts on a collected heap
	}
	return lr, nil
}

func (lr *liveRun) driveAndCheck(d *deployment, jobs []liveJob, tr *Tracer, tw *liveTrace, last bool) error {
	var from int64
	if tr != nil {
		from = tr.now()
		tw.recording.Store(true)
	}
	before := readMem()
	samples, cpu, err := drive(d, jobs, len(lr.samples))
	if err != nil {
		return err
	}
	gc := diffMem(before, readMem())
	lr.cpu += cpu
	lr.gc = memDelta{lr.gc.bytes + gc.bytes, lr.gc.mallocs + gc.mallocs, lr.gc.gcs + gc.gcs, lr.gc.pauseNs + gc.pauseNs}
	if tr != nil {
		tw.recording.Store(false)
		lr.windows = append(lr.windows, [2]int64{from, tr.now()})
	}
	offset := len(lr.samples)
	dep := 0
	if len(lr.samples) > 0 {
		dep = lr.samples[len(lr.samples)-1].dep + 1
	}
	for _, s := range samples {
		s.dep = dep
	}
	lr.samples = append(lr.samples, samples...)
	checkLive(lr, d, offset)
	if last {
		lr.nodes = reportNodes(d)
		lr.bootAlloc = d.bootAlloc
	}
	return nil
}

// checkLive is the gateway-live correctness gate: every acked job is known
// to the gateway and decided, the reopened job log holds every acked job,
// every accepted job finished by its deadline, and no node holds a
// reservation or a causality violation once the cluster drains.
func checkLive(lr *liveRun, d *deployment, offset int) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	for i := offset; i < len(lr.samples); i++ {
		s := lr.samples[i]
		if s.failedSubmit() {
			lr.failed[i] = true
		}
		if s.status != http.StatusAccepted {
			continue
		}
		j, code, err := getJob(c, d.gwURL, s.id)
		switch {
		case err != nil || code == http.StatusNotFound:
			lr.problems = append(lr.problems, fmt.Sprintf("acked job %s lost by the gateway (code %d, %v)", s.id, code, err))
			lr.failed[i] = true
		case j.State != gateway.StateDecided || !s.decided:
			lr.problems = append(lr.problems, fmt.Sprintf("acked job %s undecided", s.id))
			lr.failed[i] = true
		}
	}
	if err := d.stopGateway(); err != nil {
		lr.problems = append(lr.problems, "gateway close: "+err.Error())
	}
	log, records, err := joblog.Open(d.logPath, joblog.Options{NoSync: true})
	if err != nil {
		lr.problems = append(lr.problems, "reopen job log: "+err.Error())
	} else {
		lr.records += len(records)
		logged := make(map[string]bool)
		for _, j := range joblog.Summarize(records).Jobs {
			logged[j.Submitted.ID] = true
		}
		for i := offset; i < len(lr.samples); i++ {
			if s := lr.samples[i]; s.status == http.StatusAccepted && !logged[s.id] {
				lr.problems = append(lr.problems, fmt.Sprintf("acked job %s missing from the reopened job log", s.id))
				lr.failed[i] = true
			}
		}
		_ = log.Close() // read only
	}

	// Let every accepted job run to completion, then look for late jobs,
	// leaked reservations and violations.
	status := make(map[string]core.JobStatus)
	deadline := time.Now().Add(drainTimeout)
	for {
		running := 0
		for _, n := range d.nodes {
			for _, st := range n.JobStatuses() {
				status[st.ID] = st
				if (st.Outcome == core.AcceptedLocal || st.Outcome == core.AcceptedDistributed) && !st.Done {
					running++
				}
			}
		}
		if running == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := offset; i < len(lr.samples); i++ {
		s := lr.samples[i]
		st, ok := status[s.clusterID]
		if !s.decided || !ok {
			continue
		}
		if st.Outcome == core.AcceptedLocal || st.Outcome == core.AcceptedDistributed {
			if !st.Done || st.CompletedAt > st.AbsDeadline+1e-9 {
				lr.problems = append(lr.problems, fmt.Sprintf("accepted job %s (%s) finished late or never", s.id, s.clusterID))
				lr.failed[i] = true
			}
		}
	}
	// Plans keep the reservations of executed jobs; one held for a job
	// that was not accepted is a leak (the abort path failed).
	for id, n := range d.nodes {
		var leaked []string
		for _, job := range n.ReservationJobIDs() {
			if st := status[job]; st.Outcome != core.AcceptedLocal && st.Outcome != core.AcceptedDistributed {
				leaked = append(leaked, job)
			}
		}
		if len(leaked) > 0 {
			lr.problems = append(lr.problems, fmt.Sprintf("site %d holds reservations of jobs it did not accept: %v", id, leaked))
		}
		if v := n.Violations(); len(v) > 0 {
			lr.problems = append(lr.problems, fmt.Sprintf("site %d: %d causality violations, first: %s", id, len(v), v[0]))
		}
	}
}

// nodeReport is what the nodes say about themselves after the run.
type nodeReport struct {
	bootMsgs, bootBytes      int64
	rounds                   int
	tableBytes, tableEntries int // largest site
	outcomes                 outcomes
}

// reportNodes reads every node's counters; the transports must still run
// (routing state is probed through each site's execution context).
func reportNodes(d *deployment) nodeReport {
	nr := nodeReport{rounds: routing.RoundsForRadius(d.cfg.Radius)}
	for _, n := range d.nodes {
		m, b := n.BootstrapCost()
		nr.bootMsgs += m
		nr.bootBytes += b
		tb, te := n.RoutingState()
		nr.tableBytes, nr.tableEntries = max(nr.tableBytes, tb), max(nr.tableEntries, te)
		nr.outcomes.addSummary(n.Summarize())
		for _, st := range n.JobStatuses() {
			nr.outcomes.addJob(st.Outcome, st.RejectStage, st.ACSSize)
		}
	}
	return nr
}

func runLive(o options) (*result, error) {
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.trace {
		return runLiveTraced(o, dir)
	}
	jobs, err := genJobs(o.seed, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	// peak_rss_mb is the deployment's, not the generator's: drop the
	// generation garbage and restart the high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	lr, err := runLiveOnce(o, jobs, dir, nil, nil)
	if err != nil {
		return nil, err
	}
	res := &result{problems: lr.problems, attempted: len(lr.samples)}
	var accept, decide []float64
	var accepted, decided, refused, refusedFeasible int
	codes := make(map[int]int)
	for i, s := range lr.samples {
		codes[s.status]++
		if lr.failed[i] {
			res.failed++
		}
		if s.status == http.StatusTooManyRequests && s.feasible {
			refusedFeasible++
		}
		switch {
		case s.refusedInfeasible():
			refused++ // the 429 is the verdict
		case s.status == http.StatusAccepted && s.decided:
			if (gateway.BackendDecision{Outcome: s.outcome}).Accepted() {
				accepted++
			}
			accept = append(accept, s.acceptMS())
			decide = append(decide, s.decideMS())
		default:
			continue
		}
		decided++
	}
	res.notef("%d submissions at %.0f/s over %d deployments; HTTP status counts %v; %d laxity 429s on infeasible jobs count as rejections, %d on feasible jobs as failures",
		len(lr.samples), liveBaseRate, len(jobs), codes, refused, refusedFeasible)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.add("setup_s", median(lr.setups), "s", len(lr.setups), "median over set-ups")
	res.add("jobs_per_s", float64(decided)/lr.cpu.Seconds(), "1/s", decided, "decided jobs / process CPU time while submitting")
	res.add("guarantee_ratio", share(float64(accepted), float64(len(lr.samples))), "ratio", len(lr.samples), "")
	res.add("peak_rss_mb", rss, "MB", 1, "VmHWM")
	addLatencies(res, accept, decide)
	return res, nil
}

func runLiveTraced(o options, dir string) (*result, error) {
	jobs, err := genJobs(o.seed, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	plain, err := runLiveOnce(o, jobs, dir, nil, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	tw := newLiveTrace(tr)
	before := readMem()
	genStart := time.Now()
	if jobs, err = genJobs(o.seed, o.seconds, tr); err != nil {
		return nil, err
	}
	genTime := time.Since(genStart)
	genAlloc := diffMem(before, readMem())
	lr, err := runLiveOnce(o, jobs, dir, tr, tw)
	if err != nil {
		return nil, err
	}
	res := &result{problems: append(plain.problems, lr.problems...)}
	ids := make(map[string]string)
	for i, s := range lr.samples {
		ids[strconv.Itoa(i)] = s.id
	}
	for _, run := range []*liveRun{plain, lr} {
		res.attempted += len(run.samples)
		res.failed += len(run.failed)
	}
	tw.relabel(ids)
	path, err := tr.write(buildDir+"/spans", spanFile(o))
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)

	spans := tw.loadSpans(lr.windows)
	selfMS, wholeMS := durations(spans, true, time.Millisecond), durations(spans, false, time.Millisecond)
	selfUS, wholeUS := durations(spans, true, time.Microsecond), durations(spans, false, time.Microsecond)
	pct := func(name string, xs []float64, unit string) {
		t, q := tail(xs)
		res.add(name+"_p50", median(xs), unit, len(xs), "")
		res.add(name+"_p99", t, unit, len(xs), fmt.Sprintf("p%.4g", 100*q))
	}

	// Set-up layers: the last deployment's spans.
	setupSpans := durations(tr.snapshot(), false, time.Second)
	lastOf := func(name string) float64 {
		if xs := setupSpans[name]; len(xs) > 0 {
			return xs[len(xs)-1]
		}
		return 0
	}
	nr := lr.nodes
	res.notef("per-layer metrics of the traced run: %d submissions over %.0f s; set-up layers from its last deployment", len(lr.samples), o.seconds)
	res.add("workload.generate_s", genTime.Seconds(), "s", 1, "pre-generating the schedule")
	res.add("workload.alloc_mb", float64(genAlloc.bytes)/(1<<20), "MB", 1, "")
	res.add("graph.topology_s", lastOf("graph.topology"), "s", 1, "")
	res.add("core.new_cluster_s", lastOf("core.new_cluster"), "s", 1, "TCP bootstrap of every node through Seal")
	res.add("core.new_cluster_alloc_mb", float64(lr.bootAlloc)/(1<<20), "MB", 1, "process-wide, during the bootstrap")
	res.add("routing.bootstrap_msgs", float64(nr.bootMsgs), "count", liveSites, "")
	res.add("routing.bootstrap_mb", float64(nr.bootBytes)/(1<<20), "MB", liveSites, "")
	res.add("routing.bootstrap_rounds", float64(nr.rounds), "count", 1, "")
	res.add("routing.table_bytes_max", float64(nr.tableBytes), "bytes", liveSites, "largest site")
	res.add("routing.entries_max", float64(nr.tableEntries), "count", liveSites, "largest site")
	res.add("runtime.gc_cycles", float64(lr.gc.gcs), "count", 1, "while driving the schedule")
	res.add("runtime.gc_pause_ms", float64(lr.gc.pauseNs)/1e6, "ms", int(lr.gc.gcs), "while driving the schedule")
	addOutcomes(res, nr.outcomes)

	pct("gateway.submit_self_ms", selfMS["gateway.submit"], "ms")
	pct("gateway.forward_ms", wholeMS["gateway.forward"], "ms")
	pct("gateway.status_read_ms", wholeMS["gateway.status_read"], "ms")
	pct("gateway.poll_ms", wholeMS["gateway.poll"], "ms")
	res.add("gateway.poll_jobs_per_call", tw.pollJobsPerCall(), "count", len(wholeMS["gateway.poll"]), "jobs returned by Backend.Decisions")
	var refused int
	for _, s := range lr.samples {
		if s.status == http.StatusTooManyRequests {
			refused++
		}
	}
	res.add("gateway.rejected_429", float64(refused), "count", len(lr.samples), "")
	pct("joblog.fsync_ms", wholeMS["joblog.fsync"], "ms")
	res.add("joblog.records_per_fsync", share(float64(lr.records), float64(tw.fsyncs.Load())), "count", int(tw.fsyncs.Load()), "records in the reopened log / OnSync calls")
	pct("core.handler_us", selfUS["core.handler"], "us")
	res.add("core.handler_msgs", float64(len(selfUS["core.handler"])), "count", 1, "while driving the schedule")
	pct("core.timer_us", selfUS["core.timer"], "us")
	pct("wire.send_us", wholeUS["wire.send"], "us")
	replay, err := tw.replayWire()
	if err != nil {
		return nil, err
	}
	res.add("wire.bytes_per_msg", replay.bytesPerMsg, "bytes", replay.msgs, "encoded frames of the recorded payload mix")
	res.add("wire.encode_ns_per_msg", replay.encodeNs, "ns", replay.msgs*replay.rounds, "")
	res.add("wire.decode_ns_per_msg", replay.decodeNs, "ns", replay.msgs*replay.rounds, "")
	res.add("wire.allocs_per_decode", replay.allocsPerDecode, "count", replay.msgs*replay.rounds, "")
	var late []float64
	for _, s := range lr.samples {
		late = append(late, ms(s.late))
	}
	lt, lq := tail(late)
	res.add("gen.late_ms_p99", lt, "ms", len(late), fmt.Sprintf("p%.4g", 100*lq))
	res.add("trace.overhead_share", lr.cpu.Seconds()/plain.cpu.Seconds()-1, "share", 2, "process CPU time of the traced schedule over the untraced one, minus 1")
	return res, nil
}
