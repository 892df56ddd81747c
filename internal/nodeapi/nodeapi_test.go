package nodeapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// startPair boots a 2-site TCP cluster and returns both nodes' API
// servers behind httptest.
func startPair(t *testing.T) (srv0, srv1 *httptest.Server, cleanup func()) {
	t.Helper()
	topo := graph.New(2)
	topo.MustAddEdge(0, 1, 0.05)
	cfg := core.DefaultConfig()
	cfg.EnrollSlack = 4
	cfg.ReleasePadFactor = 30
	cfg.Membership = membership.Config{Enabled: true, HeartbeatEvery: 25, SuspectAfter: 100}
	scale := time.Millisecond

	lc, err := wire.NewLiveCluster(topo, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	nodes := lc.Nodes()
	s0, s1 := httptest.NewServer(New(nodes[0])), httptest.NewServer(New(nodes[1]))
	return s0, s1, func() {
		s0.Close()
		s1.Close()
		lc.Close()
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestControlPlane(t *testing.T) {
	srv0, _, cleanup := startPair(t)
	defer cleanup()

	// Readiness gating: SetReady was not called yet, so submissions and
	// readyz are refused while healthz answers.
	if resp, err := http.Get(srv0.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	if resp, _ := http.Get(srv0.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: status %d, want 503", resp.StatusCode)
	}
	g := dag.NewBuilder("one").AddTask(1, 2).MustBuild()
	graphJSON, _ := json.Marshal(g)
	body := fmt.Sprintf(`{"at":0,"deadline":50,"graph":%s}`, graphJSON)
	resp, err := http.Post(srv0.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit before ready: status %d, want 503", resp.StatusCode)
	}

	// Flip ready on the server under test (the peer stays implicit).
	serverOf(t, srv0).SetReady()
	if resp, _ := http.Get(srv0.URL + "/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz after SetReady: status %d", resp.StatusCode)
	}

	resp, err = http.Post(srv0.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitReply struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitReply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if submitReply.ID == "" {
		t.Fatal("submit returned no job id")
	}

	// Poll /jobs until the trivial job is decided (locally, instantly).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var reply struct {
			Jobs []core.JobStatus `json:"jobs"`
		}
		getJSON(t, srv0.URL+"/jobs", &reply)
		if len(reply.Jobs) == 1 && reply.Jobs[0].OutcomeName != "pending" {
			if reply.Jobs[0].OutcomeName != "accepted-local" {
				t.Fatalf("trivial job decided %q, want accepted-local", reply.Jobs[0].OutcomeName)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never decided")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var stats StatsReply
	getJSON(t, srv0.URL+"/stats", &stats)
	if stats.Jobs != 1 || stats.Decided != 1 || stats.Accepted != 1 {
		t.Fatalf("stats: %+v, want 1 job decided and accepted", stats)
	}
	if stats.BootstrapMessages == 0 {
		t.Fatal("stats reports no bootstrap messages")
	}

	var res struct {
		Jobs []string `json:"jobs"`
	}
	getJSON(t, srv0.URL+"/reservations", &res)
	if len(res.Jobs) != 1 || res.Jobs[0] != submitReply.ID {
		t.Fatalf("reservations %v, want exactly %q", res.Jobs, submitReply.ID)
	}

	var idle struct {
		Idle bool `json:"idle"`
	}
	getJSON(t, srv0.URL+"/idle", &idle)
	if !idle.Idle {
		t.Fatal("node not idle after its only job was decided")
	}

	// Malformed submissions are 400s, not crashes.
	for _, bad := range []string{"{", `{"at":0,"deadline":50,"graph":{"tasks":[]}}`} {
		resp, err := http.Post(srv0.URL+"/submit", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad submit %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Membership view: the layer is armed, heartbeating, and the peer is
	// alive (snapshot fields are stable even while beacons keep flowing).
	var mem membership.Snapshot
	getJSON(t, srv0.URL+"/membership", &mem)
	if !mem.Started || mem.Joining {
		t.Fatalf("membership snapshot %+v, want started and not joining", mem)
	}
	foundPeer := false
	for _, st := range mem.Sites {
		if st.Site == 1 {
			foundPeer = true
			if st.Dead {
				t.Fatal("healthy peer reported dead")
			}
			if !st.Neighbor {
				t.Fatal("direct peer not flagged as neighbor")
			}
		}
	}
	if !foundPeer {
		t.Fatalf("membership snapshot misses the peer: %+v", mem.Sites)
	}

	// expvar surface exists and carries the rtds map.
	var vars map[string]json.RawMessage
	getJSON(t, srv0.URL+"/debug/vars", &vars)
	if _, ok := vars["rtds"]; !ok {
		t.Fatal("/debug/vars has no rtds entry")
	}

	// The Prometheus plane: valid text format, live values.
	resp, err = http.Get(srv0.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("/metrics content type %q", ct)
	}
	if err := metrics.ValidateText(promBody); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, promBody)
	}
	for _, want := range []string{
		"rtds_node_ready 1",
		"rtds_node_jobs_accepted_total 1",
		`rtds_node_messages_by_kind_total{kind=`,
	} {
		if !strings.Contains(string(promBody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, promBody)
		}
	}
}

// Every family a live scrape can emit must be in MetricNames (the set
// docs/metrics.md is tested against).
func TestMetricNamesCoverLiveScrape(t *testing.T) {
	live := buildPromRegistry(StatsReply{
		Ready: true, Messages: 3, ByKind: map[string]int64{"rtds.enroll": 2},
	}).Names()
	declared := make(map[string]bool)
	for _, n := range MetricNames() {
		declared[n] = true
	}
	for _, n := range live {
		if !declared[n] {
			t.Errorf("live scrape emits %s, absent from MetricNames()", n)
		}
	}
}

// serverOf digs the *Server back out of the httptest handler (it is the
// handler).
func serverOf(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T, want *Server", ts.Config.Handler)
	}
	return s
}
