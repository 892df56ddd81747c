// Package gateway is the cluster's production front door: an HTTP job
// submission API (cmd/rtds-gateway) in front of the rtds-node control
// planes.
//
// A submission (POST /v1/jobs) passes four gates before it is acked:
//
//  1. payload validation — the DAG must parse (dag JSON schema) and must
//     survive the wire codec (a job too large for wire.MaxFrame is
//     refused at the door, not deep inside the commit phase);
//  2. tenant admission — a per-tenant token bucket (rate/burst) and an
//     inflight cap, configured by -tenants;
//  3. laxity backpressure — when the job's relative deadline is below
//     the cluster's observed p99 decision latency the gateway answers
//     429 with Retry-After, because the protocol's surplus-based offer
//     phase would reject the job anyway after burning cluster messages;
//  4. durability — the submission is appended to a write-ahead job log
//     (internal/joblog) and fsynced before the 202 ack leaves.
//
// Once acked, a job survives gateway crashes: on restart the log is
// replayed, undecided jobs re-enter the cluster, and clients can keep
// polling GET /v1/jobs/{id}. Forwarding is at-least-once — a crash
// between the cluster accepting a submission and the Forwarded record
// reaching disk makes the job run twice in the cluster; clients that
// need exactly-once semantics supply a client_key, which dedupes retries
// of the same logical job at the gateway.
package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/joblog"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Job states, exposed in the /v1/jobs/{id} reply.
const (
	// StateQueued means the job is durable in the log but not yet in the
	// cluster (the forward failed; the poller retries).
	StateQueued = "queued"
	// StateForwarded means the cluster holds the job and the gateway is
	// polling for its decision.
	StateForwarded = "forwarded"
	// StateDecided means the cluster reached a verdict (see Outcome).
	StateDecided = "decided"
)

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Tenant names the quota bucket; must be declared in -tenants.
	Tenant string `json:"tenant"`
	// ClientKey is an optional idempotency key: retries of the same
	// (tenant, client_key) return the original job instead of submitting
	// a duplicate.
	ClientKey string `json:"client_key,omitempty"`
	// At is the virtual arrival time (0 = now), forwarded to the node.
	At float64 `json:"at,omitempty"`
	// Deadline is the relative deadline in virtual seconds.
	Deadline float64 `json:"deadline"`
	// Graph is the job DAG in the dag package's JSON schema.
	Graph json.RawMessage `json:"graph"`
}

// Job is the gateway's record of one accepted submission, returned by
// POST /v1/jobs and GET /v1/jobs/{id}.
type Job struct {
	// ID is the gateway-assigned durable ID ("g17"), stable across
	// restarts.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// ClusterID is the cluster-assigned job ID ("j3@7"), empty while
	// queued.
	ClusterID string `json:"cluster_id,omitempty"`
	// State is StateQueued, StateForwarded or StateDecided.
	State string `json:"state"`
	// Outcome is the cluster verdict once decided ("accepted-local",
	// "accepted-distributed", "rejected").
	Outcome string `json:"outcome,omitempty"`
	// Deadline echoes the submission's relative deadline.
	Deadline float64 `json:"deadline"`
	// DecisionLatency is the cluster-reported decision latency in
	// virtual seconds, once decided.
	DecisionLatency float64 `json:"decision_latency,omitempty"`

	clientKey  string
	graph      json.RawMessage
	at         float64
	acceptedAt time.Time
}

// TenantStats is the GET /v1/tenants/{t}/stats reply.
type TenantStats struct {
	// Tenant is the tenant name.
	Tenant string `json:"tenant"`
	// Quota echoes the configured admission envelope.
	Quota Quota `json:"quota"`
	// Inflight is the current number of undecided jobs.
	Inflight int `json:"inflight"`
	// Submitted counts durably accepted submissions (incl. replays).
	Submitted int `json:"submitted"`
	// Accepted counts cluster-accepted decisions.
	Accepted int `json:"accepted"`
	// Rejected counts cluster-rejected decisions.
	Rejected int `json:"rejected"`
	// RateLimited counts 429s from the token bucket.
	RateLimited int `json:"rate_limited"`
	// QuotaLimited counts 429s from the inflight cap.
	QuotaLimited int `json:"quota_limited"`
	// LaxityLimited counts 429s from the laxity gate.
	LaxityLimited int `json:"laxity_limited"`
	// Duplicates counts idempotent client_key replays.
	Duplicates int `json:"duplicates"`
}

// Options configures a gateway Server.
type Options struct {
	// Tenants maps tenant name to admission quota; required, see
	// ParseTenants.
	Tenants map[string]Quota
	// Backend is the cluster connection; required.
	Backend Backend
	// LogPath is the write-ahead job log file; required. The file is
	// created if absent and replayed if present.
	LogPath string
	// Log configures the write-ahead log (NoSync, OnSync).
	Log joblog.Options
	// PollInterval is the decision/stats poll period (default 200ms).
	PollInterval time.Duration
}

// Server is the gateway HTTP front door. Create with New, serve via
// ServeHTTP, stop with Close.
type Server struct {
	backend Backend
	adm     *Admitter
	log     *joblog.Log
	m       *gwMetrics
	mux     *http.ServeMux
	poll    time.Duration

	mu          sync.Mutex
	jobs        map[string]*Job   // by gateway ID
	byClientKey map[string]string // tenant+"\x00"+key -> gateway ID
	byClusterID map[string]string // cluster ID -> gateway ID
	tstats      map[string]*TenantStats
	seq         uint64

	stop chan struct{}
	done sync.WaitGroup
}

// New opens (and replays) the write-ahead log, restores undecided jobs
// and starts the decision poller. Callers must Close the server to stop
// the poller and release the log.
func New(opts Options) (*Server, error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants configured")
	}
	if opts.Backend == nil {
		return nil, fmt.Errorf("gateway: no backend configured")
	}
	if opts.LogPath == "" {
		return nil, fmt.Errorf("gateway: no job-log path configured")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}

	s := &Server{
		backend:     opts.Backend,
		adm:         NewAdmitter(opts.Tenants),
		m:           newGWMetrics(),
		poll:        opts.PollInterval,
		jobs:        make(map[string]*Job),
		byClientKey: make(map[string]string),
		byClusterID: make(map[string]string),
		tstats:      make(map[string]*TenantStats),
		stop:        make(chan struct{}),
	}
	for name, q := range opts.Tenants {
		s.tstats[name] = &TenantStats{Tenant: name, Quota: q}
	}

	logOpts := opts.Log
	userOnSync := logOpts.OnSync
	logOpts.OnSync = func(d time.Duration) {
		s.m.fsyncLatency.Observe(d.Seconds())
		if userOnSync != nil {
			userOnSync(d)
		}
	}
	l, records, err := joblog.Open(opts.LogPath, logOpts)
	if err != nil {
		return nil, fmt.Errorf("gateway: open job log: %w", err)
	}
	s.log = l
	s.restore(records)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleTenantStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.done.Add(1)
	go s.pollLoop()
	return s, nil
}

// restore rebuilds in-memory state from the replayed log records.
// Undecided jobs re-occupy their tenant's inflight slot and are pushed
// back toward the cluster by the poller (queued jobs are re-submitted;
// forwarded jobs are re-polled).
func (s *Server) restore(records []joblog.Record) {
	rep := joblog.Summarize(records)
	s.seq = rep.NextSeq
	for _, rj := range rep.Jobs {
		sub := rj.Submitted
		j := &Job{
			ID:        sub.ID,
			Tenant:    sub.Tenant,
			ClusterID: rj.ClusterID,
			Deadline:  sub.Deadline,
			clientKey: sub.ClientKey,
			graph:     sub.Graph,
			at:        sub.At,
		}
		switch {
		case rj.Outcome != "":
			j.State = StateDecided
			j.Outcome = rj.Outcome
		case rj.ClusterID != "":
			j.State = StateForwarded
		default:
			j.State = StateQueued
		}
		s.jobs[j.ID] = j
		if j.clientKey != "" {
			s.byClientKey[clientKeyIndex(j.Tenant, j.clientKey)] = j.ID
		}
		if j.ClusterID != "" {
			s.byClusterID[j.ClusterID] = j.ID
		}
		ts := s.tenantStats(j.Tenant)
		ts.Submitted++
		switch {
		case j.State != StateDecided:
			s.adm.Restore(j.Tenant)
			s.m.inflight.With(j.Tenant).Inc()
			s.m.replayed.Inc()
		case isAccepted(j.Outcome):
			ts.Accepted++
		default:
			ts.Rejected++
		}
	}
}

// tenantStats returns (creating if needed) the per-tenant counters.
// Callers hold s.mu or run before the server is shared.
func (s *Server) tenantStats(tenant string) *TenantStats {
	ts, ok := s.tstats[tenant]
	if !ok {
		ts = &TenantStats{Tenant: tenant, Quota: s.adm.Quota(tenant)}
		s.tstats[tenant] = ts
	}
	return ts
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the poller and closes the write-ahead log. The final log
// flush is synchronous: a clean shutdown loses nothing.
func (s *Server) Close() error {
	close(s.stop)
	s.done.Wait()
	return s.log.Close()
}

// MetricsText renders the current /metrics exposition (tests, debugging).
func (s *Server) MetricsText() string { return s.m.reg.Expose() }

// ---------------------------------------------------------------------------
// handlers

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.reject(w, req.Tenant, "invalid", http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return
	}
	if !s.adm.Known(req.Tenant) {
		s.reject(w, req.Tenant, "unknown", http.StatusForbidden,
			fmt.Sprintf("unknown tenant %q", req.Tenant), 0)
		return
	}
	if req.Deadline <= 0 {
		s.reject(w, req.Tenant, "invalid", http.StatusBadRequest, "deadline must be > 0", 0)
		return
	}

	// Validate the DAG against both codecs at the door: the dag JSON
	// schema (what the node API re-parses) and the wire codec (what the
	// commit phase ships between sites — a job that cannot fit in a
	// wire frame must not enter the cluster).
	g, err := dag.UnmarshalGraph(req.Graph)
	if err != nil {
		s.reject(w, req.Tenant, "invalid", http.StatusBadRequest, "bad graph: "+err.Error(), 0)
		return
	}
	if _, err := wire.Encode(core.CommitMsg{Job: "probe", Graph: g}); err != nil {
		s.reject(w, req.Tenant, "invalid", http.StatusRequestEntityTooLarge,
			"graph exceeds wire limits: "+err.Error(), 0)
		return
	}

	// Idempotent retry: same (tenant, client_key) returns the original.
	if req.ClientKey != "" {
		s.mu.Lock()
		if id, ok := s.byClientKey[clientKeyIndex(req.Tenant, req.ClientKey)]; ok {
			j := *s.jobs[id]
			s.tenantStats(req.Tenant).Duplicates++
			s.mu.Unlock()
			s.m.submissions.With(req.Tenant, "duplicate").Inc()
			writeJSON(w, http.StatusOK, j)
			return
		}
		s.mu.Unlock()
	}

	dec := s.adm.Admit(req.Tenant, req.Deadline)
	if !dec.OK {
		s.countLimited(req.Tenant, dec.Reason)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(dec.RetryAfter.Seconds()))))
		s.reject(w, req.Tenant, "rejected_"+dec.Reason, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over %s limit", req.Tenant, dec.Reason), dec.RetryAfter.Seconds())
		return
	}

	s.mu.Lock()
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("g%d", s.seq),
		Tenant:    req.Tenant,
		State:     StateQueued,
		Deadline:  req.Deadline,
		clientKey: req.ClientKey,
		graph:     req.Graph,
		at:        req.At,
	}
	rec := joblog.Record{
		Type:      joblog.TypeSubmitted,
		ID:        j.ID,
		Seq:       s.seq,
		Tenant:    j.Tenant,
		ClientKey: j.clientKey,
		At:        j.at,
		Deadline:  j.Deadline,
		Graph:     j.graph,
	}
	s.mu.Unlock()

	// Durability gate: the 202 ack must not leave before the Submitted
	// record is fsynced. Append group-commits: submissions that arrive
	// during a running fsync share the next one.
	if err := s.log.Append(rec); err != nil {
		s.adm.Release(req.Tenant)
		s.reject(w, req.Tenant, "error", http.StatusInternalServerError,
			"job log write failed: "+err.Error(), 0)
		return
	}
	s.m.joblogRecords.Inc()

	s.mu.Lock()
	s.jobs[j.ID] = j
	if j.clientKey != "" {
		s.byClientKey[clientKeyIndex(j.Tenant, j.clientKey)] = j.ID
	}
	s.tenantStats(j.Tenant).Submitted++
	s.mu.Unlock()
	s.m.inflight.With(j.Tenant).Inc()
	s.m.submissions.With(j.Tenant, "accepted").Inc()

	// Forward inline; a failure leaves the job queued for the poller.
	if clusterID, err := s.backend.Submit(j.at, j.Deadline, j.graph); err != nil {
		s.m.backendErrors.Inc()
	} else {
		s.recordForwarded(j.ID, clusterID)
	}

	s.mu.Lock()
	reply := *s.jobs[j.ID]
	s.jobs[j.ID].acceptedAt = start
	s.mu.Unlock()
	s.m.acceptLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusAccepted, reply)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var reply Job
	if ok {
		reply = *j
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !s.adm.Known(tenant) {
		http.Error(w, "no such tenant", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	reply := *s.tenantStats(tenant)
	s.mu.Unlock()
	reply.Inflight = s.adm.Inflight(tenant)
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.m.reg.WriteTo(w)
}

// reject writes an error reply and counts it against the tenant's
// submissions metric (unknown tenants land on the "unknown" label).
func (s *Server) reject(w http.ResponseWriter, tenant, result string, code int, msg string, retryAfter float64) {
	label := tenant
	if !s.adm.Known(tenant) {
		label = "unknown"
	}
	s.m.submissions.With(label, result).Inc()
	body := map[string]any{"error": msg, "result": result}
	if retryAfter > 0 {
		body["retry_after_seconds"] = math.Ceil(retryAfter)
	}
	writeJSON(w, code, body)
}

func (s *Server) countLimited(tenant, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantStats(tenant)
	switch reason {
	case "rate":
		ts.RateLimited++
	case "quota":
		ts.QuotaLimited++
	case "laxity":
		ts.LaxityLimited++
	}
}

// ---------------------------------------------------------------------------
// forwarding and decision polling

// recordForwarded marks a job as held by the cluster and logs the
// Forwarded record. The log append is after the cluster accepted the
// submission — a crash in between replays the submission (at-least-once,
// see the package comment).
func (s *Server) recordForwarded(gatewayID, clusterID string) {
	s.mu.Lock()
	j, ok := s.jobs[gatewayID]
	if !ok || j.State != StateQueued {
		s.mu.Unlock()
		return
	}
	j.State = StateForwarded
	j.ClusterID = clusterID
	s.byClusterID[clusterID] = gatewayID
	s.mu.Unlock()
	if err := s.log.Append(joblog.Record{
		Type: joblog.TypeForwarded, ID: gatewayID, Tenant: j.Tenant, ClusterID: clusterID,
	}); err == nil {
		s.m.joblogRecords.Inc()
	}
}

// pollLoop drives everything asynchronous: re-submitting queued jobs,
// harvesting cluster decisions and refreshing the laxity gate.
func (s *Server) pollLoop() {
	defer s.done.Done()
	ticker := time.NewTicker(s.poll)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.pollOnce()
		}
	}
}

// pollOnce runs one poller iteration; exported to tests via PollNow.
func (s *Server) pollOnce() {
	if st, err := s.backend.Stats(); err == nil {
		s.adm.ObserveDecisionLatency(st.DecisionLatencyP99)
		s.m.clusterLaxity.Set(st.DecisionLatencyP99)
	} else {
		s.m.backendErrors.Inc()
	}

	// Re-submit queued jobs (failed forwards, replayed submissions).
	s.mu.Lock()
	var queued []*Job
	for _, id := range determinism.SortedKeys(s.jobs) {
		if j := s.jobs[id]; j.State == StateQueued {
			queued = append(queued, j)
		}
	}
	s.mu.Unlock()
	for _, j := range queued {
		if clusterID, err := s.backend.Submit(j.at, j.Deadline, j.graph); err != nil {
			s.m.backendErrors.Inc()
		} else {
			s.recordForwarded(j.ID, clusterID)
		}
	}

	decisions, err := s.backend.Decisions()
	if err != nil {
		s.m.backendErrors.Inc()
		return
	}
	s.mu.Lock()
	var decided []*Job
	for _, clusterID := range determinism.SortedKeys(s.byClusterID) {
		j := s.jobs[s.byClusterID[clusterID]]
		if j.State != StateForwarded {
			continue
		}
		d, ok := decisions[clusterID]
		if !ok || !d.Decided() {
			continue
		}
		j.State = StateDecided
		j.Outcome = d.Outcome
		j.DecisionLatency = d.Latency
		ts := s.tenantStats(j.Tenant)
		if isAccepted(d.Outcome) {
			ts.Accepted++
		} else {
			ts.Rejected++
		}
		decided = append(decided, j)
	}
	s.mu.Unlock()
	recs := make([]joblog.Record, 0, len(decided))
	for _, j := range decided {
		s.adm.Release(j.Tenant)
		s.m.inflight.With(j.Tenant).Dec()
		s.m.decisions.With(j.Tenant, j.Outcome).Inc()
		if !j.acceptedAt.IsZero() {
			s.m.decideLatency.Observe(time.Since(j.acceptedAt).Seconds())
		}
		recs = append(recs, joblog.Record{
			Type: joblog.TypeDecided, ID: j.ID, Tenant: j.Tenant,
			ClusterID: j.ClusterID, Outcome: j.Outcome, DecisionLatency: j.DecisionLatency,
		})
	}
	// One append for the whole poll: its Decided records share one fsync.
	if err := s.log.Append(recs...); err == nil {
		s.m.joblogRecords.Add(float64(len(recs)))
	}
}

// PollNow runs one synchronous poller iteration (tests and shutdown
// drains); the background loop keeps its own cadence.
func (s *Server) PollNow() { s.pollOnce() }

func isAccepted(outcome string) bool {
	return outcome == "accepted-local" || outcome == "accepted-distributed"
}

func clientKeyIndex(tenant, key string) string { return tenant + "\x00" + key }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
