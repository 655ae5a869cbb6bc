package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
)

func testServer(t *testing.T) *server {
	t.Helper()
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 15, NumVertices: 20, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// slowThreshold 0 retains every query in the slow log, which the
	// slow-log tests rely on; cacheEntries 16 wraps the engine in the
	// result cache.
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{cacheEntries: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// graphText serializes a graph for request bodies.
func graphText(t *testing.T, g *sq.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sq.WriteGraph(&buf, 0, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// testQuery returns a query drawn from the test database (so it has
// answers).
func testQuery(t *testing.T, srv *server) *sq.Graph {
	t.Helper()
	qs, err := sq.GenerateQuerySet(srv.db, sq.QuerySetConfig{
		Count: 1, Edges: 3, Method: sq.QueryRandomWalk, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return qs[0]
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Query drawn from graph 0: must return at least graph 0.
	q := testQuery(t, srv)
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(graphText(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) == 0 {
		t.Error("generated query should have answers")
	}
	if out.Engine != "CFQL+cache" {
		t.Errorf("engine = %q", out.Engine)
	}
	if out.Trace != nil {
		t.Error("trace returned without ?trace=1")
	}
}

func TestQueryRejectsBadInput(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"garbage":      "not a graph",
		"disconnected": "t 0 4 2\nv 0 0 1\nv 1 0 1\nv 2 0 1\nv 3 0 1\ne 0 1\ne 2 3\n",
	} {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
	if got := srv.rejected.Value(); got != 2 {
		t.Errorf("queries_rejected_total = %d, want 2", got)
	}
}

func TestAppendEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	g, err := sq.FromEdges([]sq.Label{0, 1, 2}, []sq.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/graphs", "text/plain", strings.NewReader(graphText(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out["id"] != 15 {
		t.Errorf("appended id = %d, want 15", out["id"])
	}

	// The appended graph is immediately queryable.
	q, _ := sq.FromEdges([]sq.Label{1, 2}, []sq.Edge{{U: 0, V: 1}})
	resp2, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(graphText(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	found := false
	for _, id := range qr.Answers {
		if id == 15 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("appended graph missing from answers %v", qr.Answers)
	}
}

func getStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	out := getStats(t, ts.URL)
	if out["graphs"].(float64) != 15 {
		t.Errorf("graphs = %v, want 15", out["graphs"])
	}
	if out["engine"] != "CFQL+cache" {
		t.Errorf("engine = %v", out["engine"])
	}
}

// TestStatsCacheInvalidation: /stats is cached between requests, and an
// append invalidates the cache so the new graph count is visible.
func TestStatsCacheInvalidation(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	if n := getStats(t, ts.URL)["graphs"].(float64); n != 15 {
		t.Fatalf("graphs = %v, want 15", n)
	}
	if srv.statsCache.Load() == nil {
		t.Error("stats cache not populated after GET /stats")
	}

	g, err := sq.FromEdges([]sq.Label{0, 1}, []sq.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/graphs", "text/plain", strings.NewReader(graphText(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if n := getStats(t, ts.URL)["graphs"].(float64); n != 16 {
		t.Errorf("graphs after append = %v, want 16", n)
	}
}

// TestStatsStorm: goroutines alternate appends and GET /stats beside
// readers that only GET /stats. A /stats
// issued after an append returned id k must count graph k: a computation
// that read the database before the append may not outlive it in the
// cache. Run with -race -count=20.
func TestStatsStorm(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	g, err := sq.FromEdges([]sq.Label{0, 1}, []sq.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	body := graphText(t, g)
	// decode reads one response into out; the workers report failures
	// with t.Error, since t.Fatal may not be called off the test goroutine.
	decode := func(resp *http.Response, err error, out any) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// Readers keep refilling the cache, so a computation is nearly always
	// in flight when an append lands.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var stats map[string]any
				resp, err := http.Get(ts.URL + "/stats")
				if err = decode(resp, err, &stats); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var appended struct {
					ID int `json:"id"`
				}
				var stats struct {
					Graphs int `json:"graphs"`
				}
				resp, err := http.Post(ts.URL+"/graphs", "text/plain", strings.NewReader(body))
				if err = decode(resp, err, &appended); err != nil {
					t.Error(err)
					return
				}
				resp, err = http.Get(ts.URL + "/stats")
				if err = decode(resp, err, &stats); err != nil {
					t.Error(err)
					return
				}
				if stats.Graphs < appended.ID+1 {
					t.Errorf("/stats after the append of graph %d reports %d graphs", appended.ID, stats.Graphs)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// metricsResponse mirrors the /metrics JSON shape.
type metricsResponse struct {
	Engine     string           `json:"engine"`
	UptimeS    int64            `json:"uptime_s"`
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count  uint64 `json:"count"`
		MeanUS int64  `json:"mean_us"`
		P50US  int64  `json:"p50_us"`
		P90US  int64  `json:"p90_us"`
		P99US  int64  `json:"p99_us"`
	} `json:"histograms"`
}

// TestMetricsEndpoint: after a handful of queries, /metrics reports
// per-engine query counts, cache outcomes and latency quantiles.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := graphText(t, testQuery(t, srv))
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}

	if m.Engine != "CFQL+cache" {
		t.Errorf("engine = %q", m.Engine)
	}
	if got := m.Counters["queries_total/CFQL+cache"]; got != n {
		t.Errorf("queries_total = %d, want %d", got, n)
	}
	// Identical repeated queries: first misses, the rest hit the cache.
	if hits := m.Counters["cache_hits_total"]; hits < 1 {
		t.Errorf("cache_hits_total = %d, want >= 1", hits)
	}
	if misses := m.Counters["cache_misses_total"]; misses < 1 {
		t.Errorf("cache_misses_total = %d, want >= 1", misses)
	}
	if g, ok := m.Gauges["queries_inflight"]; !ok || g != 0 {
		t.Errorf("queries_inflight = %d (present %v), want 0", g, ok)
	}
	h, ok := m.Histograms["query_latency/CFQL+cache"]
	if !ok {
		t.Fatal("query_latency histogram missing")
	}
	if h.Count != n {
		t.Errorf("latency count = %d, want %d", h.Count, n)
	}
	if h.P50US <= 0 || h.P90US < h.P50US || h.P99US < h.P90US {
		t.Errorf("quantiles not ordered: p50=%d p90=%d p99=%d", h.P50US, h.P90US, h.P99US)
	}
}

// TestMetricsCacheAdmission: /metrics reports what the result cache
// admitted and what it refused. With one slot, a query asked for twice
// holds it against a one-off.
func TestMetricsCacheAdmission(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{NumGraphs: 15, NumVertices: 20, NumLabels: 3, Degree: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{cacheEntries: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	oneOff, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{Count: 1, Edges: 2, Method: sq.QueryBFS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	repeat := testQuery(t, srv)
	for _, q := range []*sq.Graph{repeat, repeat, oneOff[0]} {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(graphText(t, q)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if got := m.Gauges["cache_admitted_total"]; got != 1 {
		t.Errorf("cache_admitted_total = %d, want 1 (the repeated query)", got)
	}
	if got := m.Gauges["cache_rejected_total"]; got != 1 {
		t.Errorf("cache_rejected_total = %d, want 1 (the one-off)", got)
	}
	if hits, misses := m.Counters["cache_hits_total"], m.Counters["cache_misses_total"]; hits+misses != 3 || hits < 1 {
		t.Errorf("cache_hits_total %d, cache_misses_total %d, want three lookups with the repeat a hit", hits, misses)
	}
}

// TestQueryTrace: ?trace=1 inlines the per-query trace, with exactly one
// filter span and one verify span that account for the reported
// filter/verify times — also behind a sharded coordinator whose hedged
// shard attempts each ran the engine.
func TestQueryTrace(t *testing.T) {
	cached := testServer(t)
	coord, err := cluster.New(cluster.Config{
		Shards:     2,
		Replicas:   2,
		Factory:    core.NewCFQL,
		BaseName:   "CFQL",
		HedgeAfter: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := newServer(cached.db, coord, serverConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for _, tc := range []struct {
		name   string
		srv    *server
		probes int // result-cache probes per query
	}{
		{"cached", cached, 1},
		{"sharded", sharded, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.srv.handler())
			defer ts.Close()

			q := testQuery(t, tc.srv)
			resp, err := http.Post(ts.URL+"/query?trace=1", "text/plain", strings.NewReader(graphText(t, q)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Trace == nil {
				t.Fatal("no trace in response")
			}

			spans := map[string]int{}
			var filterUS, verifyUS int64
			for _, sp := range out.Trace.Phases {
				spans[sp.Name]++
				switch sp.Name {
				case "filter":
					filterUS += sp.DurationUS
				case "verify":
					verifyUS += sp.DurationUS
				}
			}
			if spans["filter"] != 1 || spans["verify"] != 1 || len(out.Trace.Phases) != 2 {
				t.Errorf("phases %+v, want exactly one filter and one verify span", out.Trace.Phases)
			}
			// The spans are the engine's own FilterTime/VerifyTime measurements,
			// so the sums agree up to microsecond truncation per span.
			if diff := filterUS + verifyUS - (out.FilterUS + out.VerifyUS); diff < -4 || diff > 4 {
				t.Errorf("span sum %dus != filter_us+verify_us %dus",
					filterUS+verifyUS, out.FilterUS+out.VerifyUS)
			}
			if out.Candidates > 0 && len(out.Trace.Verifications) == 0 {
				t.Error("no verification events despite candidates")
			}
			for _, ev := range out.Trace.Verifications {
				if ev.Graph < 0 || ev.Graph >= tc.srv.db.Len() {
					t.Errorf("verification event graph %d out of range", ev.Graph)
				}
			}
			if out.Trace.CacheMisses+out.Trace.CacheHits != tc.probes {
				t.Errorf("cache events = %d hits + %d misses, want %d probes",
					out.Trace.CacheHits, out.Trace.CacheMisses, tc.probes)
			}
		})
	}
}

// TestQueryExplain: ?explain=1 inlines the EXPLAIN report with the CFL
// filter stages and the engine name.
func TestQueryExplain(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := testQuery(t, srv)
	resp, err := http.Post(ts.URL+"/query?explain=1", "text/plain", strings.NewReader(graphText(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil {
		t.Fatal("no explain in response")
	}
	if out.Explain.Engine != "CFQL+cache" {
		t.Errorf("explain engine = %q", out.Explain.Engine)
	}
	stages := map[string]bool{}
	for _, st := range out.Explain.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"cfl.ldf", "cfl.topdown", "cfl.bottomup"} {
		if !stages[want] {
			t.Errorf("stage %q missing (have %v)", want, stages)
		}
	}

	// Without ?explain=1 the response stays lean.
	resp2, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(graphText(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	var out2 queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if out2.Explain != nil {
		t.Error("explain returned without ?explain=1")
	}
}

// slowLogBody is the JSON body of GET /debug/slowlog.
type slowLogBody struct {
	ThresholdUS int64 `json:"threshold_us"`
	Capacity    int   `json:"capacity"`
	Seen        int64 `json:"seen"`
	Kept        int64 `json:"kept"`
	Queries     []struct {
		DurationUS    int64           `json:"duration_us"`
		Engine        string          `json:"engine"`
		Fingerprint   string          `json:"fingerprint"`
		QueryVertices int             `json:"query_vertices"`
		QueryEdges    int             `json:"query_edges"`
		Error         bool            `json:"error"`
		QueryText     string          `json:"query_text"`
		Trace         json.RawMessage `json:"trace"`
		Explain       json.RawMessage `json:"explain"`
	} `json:"queries"`
}

func getSlowLog(t *testing.T, url string) slowLogBody {
	t.Helper()
	resp, err := http.Get(url + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out slowLogBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSlowLogEndpoint: with a zero threshold every query is retained, and
// each entry is the query's record plus its text — no Trace, no Explain.
func TestSlowLogEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	query := testQuery(t, srv)
	q := graphText(t, query)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	out := getSlowLog(t, ts.URL)
	if out.Seen != 3 || out.Kept != 3 || len(out.Queries) != 3 {
		t.Fatalf("seen=%d kept=%d len=%d, want 3/3/3", out.Seen, out.Kept, len(out.Queries))
	}
	if out.Capacity != slowLogSize || out.ThresholdUS != 0 {
		t.Errorf("capacity=%d threshold_us=%d, want %d/0", out.Capacity, out.ThresholdUS, slowLogSize)
	}
	for i, rec := range out.Queries {
		if rec.Engine != "CFQL+cache" {
			t.Errorf("queries[%d].engine = %q", i, rec.Engine)
		}
		if rec.QueryVertices != query.NumVertices() || rec.QueryEdges != query.NumEdges() {
			t.Errorf("queries[%d] shape %dv/%de, want %dv/%de", i,
				rec.QueryVertices, rec.QueryEdges, query.NumVertices(), query.NumEdges())
		}
		if rec.QueryText != q {
			t.Errorf("queries[%d].query_text = %q, want the posted query", i, rec.QueryText)
		}
		if rec.Trace != nil || rec.Explain != nil {
			t.Errorf("queries[%d] carries a trace or explain nobody asked for", i)
		}
	}
}

// TestSlowLogReplay: the verbose views of a slow query are materialised on
// demand — take query_text from /debug/slowlog, POST it back with
// ?trace=1&explain=1, and the Trace and Explain the log no longer keeps
// come back, for the same shape.
func TestSlowLogReplay(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(graphText(t, testQuery(t, srv))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	entry := getSlowLog(t, ts.URL).Queries[0]

	resp, err = http.Post(ts.URL+"/query?trace=1&explain=1", "text/plain", strings.NewReader(entry.QueryText))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || len(out.Trace.Phases) == 0 {
		t.Errorf("replay trace = %+v, want phases", out.Trace)
	}
	if out.Explain == nil || out.Explain.Engine == "" {
		t.Errorf("replay explain = %+v, want an engine", out.Explain)
	}
	if out.Trace != nil && out.Trace.Fingerprint != entry.Fingerprint {
		t.Errorf("replayed fingerprint %s, slow-log entry %s", out.Trace.Fingerprint, entry.Fingerprint)
	}
}

// TestQueryTextBound: a query whose text is over
// maxQueryText keeps its slow-log entry but not its text.
func TestQueryTextBound(t *testing.T) {
	b := sq.NewBuilder(0, 0)
	const n = 1200 // a path: about 13 bytes a vertex and an edge
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(sq.VertexID(i), sq.VertexID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if text := queryText(g); text != "" {
		t.Fatalf("kept %d bytes of query text, want none over %d", len(text), maxQueryText)
	}
}

// TestSlowLogDisabled: a negative threshold disables the log and the
// endpoint reports 404.
func TestSlowLogDisabled(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 5, NumVertices: 12, NumLabels: 3, Degree: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{slowThreshold: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestBudgetExpiryIsATimeout: a query that outlives -budget is a timeout,
// never a cancellation. A 7-clique over single-label random graphs of 400
// vertices cannot finish in 20 ms, so every answer must say timed_out and
// none cancelled, however the expiry reaches the engine first (its own
// clock reading or the context's Done channel).
func TestBudgetExpiryIsATimeout(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 20, NumVertices: 400, NumLabels: 1, Degree: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{slowThreshold: -1, budget: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const k = 7
	var clique strings.Builder
	fmt.Fprintf(&clique, "t 0 %d %d\n", k, k*(k-1)/2)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&clique, "v %d 0\n", i)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			fmt.Fprintf(&clique, "e %d %d\n", i, j)
		}
	}
	bad := 0
	for i := 0; i < 20; i++ {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(clique.String()))
		if err != nil {
			t.Fatal(err)
		}
		var out queryResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, decode error %v", i, resp.StatusCode, err)
		}
		if !out.TimedOut || out.Cancelled {
			bad++
			t.Errorf("query %d: timed_out=%v cancelled=%v, want true and false", i, out.TimedOut, out.Cancelled)
		}
	}
	if bad > 0 {
		t.Errorf("%d of 20 budget expiries misreported", bad)
	}
}

// TestMetricsProm: ?format=prom returns the text exposition with the
// right content type and per-engine samples.
func TestMetricsProm(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := graphText(t, testQuery(t, srv))
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 exposition format", ct)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := body.String()
	for _, want := range []string{
		"# TYPE subgraphquery_queries_total counter",
		`subgraphquery_queries_total{engine="CFQL+cache"} 1`,
		"# TYPE subgraphquery_query_latency_seconds histogram",
		`le="+Inf"`,
		"subgraphquery_query_latency_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestDebugMuxServesPprof: the -debug-addr listener serves the pprof
// handlers, and the public handler does not.
func TestDebugMuxServesPprof(t *testing.T) {
	w := httptest.NewRecorder()
	debugMux().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		t.Fatalf("/debug/pprof/cmdline on the debug mux: status %d, %d bytes", w.Code, w.Body.Len())
	}
	w = httptest.NewRecorder()
	testServer(t).handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/cmdline on the public handler: status %d, want 404", w.Code)
	}
}
