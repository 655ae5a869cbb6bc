//go:build sqchaos

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/telemetry"
)

// TestChaosServerSurvives is the acceptance run from the issue: 500 queries
// from concurrent clients against a server with tight budgets and admission
// limits, while the fault substrate injects panics, latency, allocation
// spikes and spurious aborts into the engine hot paths. Every response must
// be structured — 2xx, 408, 429 (with Retry-After), or 500 carrying a JSON
// QueryError — the process must never crash, and afterwards no goroutine or
// scratch arena may outlive its query.
func TestChaosServerSurvives(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 20, NumVertices: 24, NumLabels: 3, Degree: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// vcGrapes exercises the index-probe injection point and the IvcFV
	// worker pool; the result cache exercises probe/store under fault.
	fault.Set(fault.Config{}) // engine build stays fault-free
	srv, err := newServer(db, sq.NewVcGrapesEngine(), serverConfig{
		cacheEntries:  16,
		budget:        250 * time.Millisecond,
		slowThreshold: -1,
		memBudget:     8 << 20,
		maxInflight:   2,
		maxQueue:      2,
		queueWait:     50 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	queries, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{
		Count: 10, Edges: 3, Method: sq.QueryRandomWalk, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, len(queries))
	for i, q := range queries {
		bodies[i] = graphText(t, q)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()

	baselineG := runtime.NumGoroutine()
	baselineS := matching.ScratchLive()
	panicsBefore := panicsRecovered(t, ts.URL)

	fault.Set(fault.Config{
		PanicRate:   0.02,
		LatencyRate: 0.2,
		AllocRate:   0.02,
		AbortRate:   0.02,
		Latency:     2 * time.Millisecond,
		AllocBytes:  1 << 16,
		Seed:        3,
	})
	defer fault.Set(fault.Config{})

	const totalQueries = 500
	const clients = 8
	var counts [600]atomic.Int64 // indexed by HTTP status
	var malformed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= totalQueries {
					return
				}
				resp, err := client.Post(ts.URL+"/query", "text/plain",
					strings.NewReader(bodies[i%int64(len(bodies))]))
				if err != nil {
					// A transport-level failure would mean the server died.
					malformed.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode < len(counts) {
					counts[resp.StatusCode].Add(1)
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusRequestTimeout:
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						malformed.Add(1)
					}
					// Back off briefly — a shed client that retries in a hot
					// loop only measures its own spin rate.
					time.Sleep(2 * time.Millisecond)
				case http.StatusInternalServerError:
					var out struct {
						Error struct {
							Kind string `json:"kind"`
						} `json:"error"`
					}
					if json.Unmarshal(body, &out) != nil || out.Error.Kind == "" {
						malformed.Add(1)
					}
				default:
					malformed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	var summary []string
	var answered int64
	for status := range counts {
		if n := counts[status].Load(); n > 0 {
			answered += n
			summary = append(summary, fmt.Sprintf("%d×%d", status, n))
		}
	}
	panics, latencies, allocs, aborts := fault.Counts()
	t.Logf("statuses: %s; faults fired: %d panics, %d latencies, %d allocs, %d aborts",
		strings.Join(summary, " "), panics, latencies, allocs, aborts)

	if malformed.Load() != 0 {
		t.Errorf("%d malformed responses (wrong status, missing Retry-After, or unstructured 500 body)", malformed.Load())
	}
	if answered != totalQueries {
		t.Errorf("answered %d of %d queries; the rest hit transport errors", answered, totalQueries)
	}
	if counts[http.StatusOK].Load() == 0 {
		t.Error("no query succeeded under fault; rates are drowning the run")
	}
	if panics == 0 {
		t.Error("chaos run fired no panics; injection points or rates are dead")
	}
	// Every injected panic is recovered, in an engine or in the result
	// cache's probe, and counted once in panics_recovered_total.
	if got := panicsRecovered(t, ts.URL) - panicsBefore; got != int64(panics) {
		t.Errorf("panics_recovered_total rose by %d while %d panics fired", got, panics)
	}

	// Quiesce and assert nothing leaked: the admission slots are all free,
	// scratch arenas all returned, worker goroutines all gone.
	fault.Set(fault.Config{})
	client.CloseIdleConnections()
	if d := srv.adm.depth(); d != 0 {
		t.Errorf("admission queue depth %d after run, want 0", d)
	}
	if got := matching.ScratchLive(); got != baselineS {
		t.Errorf("scratch arenas leaked: live %d, was %d", got, baselineS)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baselineG {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: have %d, want <= %d", runtime.NumGoroutine(), baselineG)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server is still healthy and answers cleanly after the storm.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz after chaos: %d, want 200", hz.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Skipped != 0 || out.TimedOut {
		t.Errorf("clean query after chaos: status=%d skipped=%d timed_out=%v",
			resp.StatusCode, out.Skipped, out.TimedOut)
	}
	if len(out.Answers) == 0 {
		t.Error("clean query after chaos returned no answers")
	}
}

// panicsRecovered reads panics_recovered_total from /metrics, on a
// connection it closes, so goroutine counts are unaffected.
func panicsRecovered(t *testing.T, url string) int64 {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Close = true
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Gauges["panics_recovered_total"]
}

// TestChaosCacheProbePanicCounted: a panic inside the result cache's probe
// (its query-to-query matching runs CFQL's filter) is recovered into a
// cache miss and reaches panics_recovered_total on /metrics. The engine is
// GGSX, whose VF2 verification has no fault point, so every panic fired is
// one of the probe's.
func TestChaosCacheProbePanicCounted(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 15, NumVertices: 20, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(fault.Config{})
	defer fault.Set(fault.Config{})
	srv, err := newServer(db, sq.NewGGSXEngine(), serverConfig{cacheEntries: 16, slowThreshold: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	body := graphText(t, testQuery(t, srv))
	ask := func() queryResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query?trace=1", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out queryResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := ask()
	before := panicsRecovered(t, ts.URL)
	fault.Set(fault.Config{PanicRate: 1, Points: map[string]bool{fault.PointFilter: true}})
	second := ask()
	fired, _, _, _ := fault.Counts()
	after := panicsRecovered(t, ts.URL)

	t.Logf("the repeat's cache probe fired %d panics", fired)
	if fired == 0 {
		t.Fatal("the cache probe fired no panic; the fault point is dead")
	}
	if second.Trace.CacheMisses != 1 || second.Skipped != 0 || !slices.Equal(second.Answers, first.Answers) {
		t.Errorf("repeat under probe panics: cache_misses=%d skipped=%d answers %v, want a clean miss with %v",
			second.Trace.CacheMisses, second.Skipped, second.Answers, first.Answers)
	}
	if after-before != int64(fired) {
		t.Errorf("panics_recovered_total rose by %d, want the %d probe panics", after-before, fired)
	}
}

// TestChaosTelemetryRetainsAnomalies drives the chaos storm through a
// server with wide-event export enabled and closes the loop on the tail
// sampler's contract: every anomalous outcome a client observed — shed
// (429), abandoned queue wait (408), engine failure (500), or a 200 whose
// body admits a timeout, cancellation or skipped graphs — has exactly one
// matching anomalous event in the export stream, and the healthy keep-rate
// matches -export-sample deterministically (minus counted backpressure
// drops).
func TestChaosTelemetryRetainsAnomalies(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 20, NumVertices: 24, NumLabels: 3, Degree: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	exportPath := filepath.Join(t.TempDir(), "chaos.ndjson")
	fault.Set(fault.Config{}) // engine build stays fault-free
	// Looser admission than TestChaosServerSurvives: this storm needs both
	// populations — anomalous outcomes to prove 100% retention AND healthy
	// completions to prove the sampler's exact 1-in-4 keep-rate.
	srv, err := newServer(db, sq.NewVcGrapesEngine(), serverConfig{
		cacheEntries:  16,
		budget:        250 * time.Millisecond,
		slowThreshold: -1,
		memBudget:     8 << 20,
		maxInflight:   4,
		maxQueue:      16,
		queueWait:     250 * time.Millisecond,
		exportDest:    exportPath,
		exportSample:  0.25,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	queries, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{
		Count: 10, Edges: 3, Method: sq.QueryRandomWalk, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, len(queries))
	for i, q := range queries {
		bodies[i] = graphText(t, q)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()

	fault.Set(fault.Config{
		PanicRate:   0.01,
		LatencyRate: 0.1,
		AllocRate:   0.01,
		AbortRate:   0.01,
		Latency:     time.Millisecond,
		AllocBytes:  1 << 16,
		Seed:        3,
	})
	defer fault.Set(fault.Config{})

	const totalQueries = 500
	const clients = 8
	var anomalousResponses, healthyResponses, transportErrors atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= totalQueries {
					return
				}
				resp, err := client.Post(ts.URL+"/query", "text/plain",
					strings.NewReader(bodies[i%int64(len(bodies))]))
				if err != nil {
					transportErrors.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var out queryResponse
					if json.Unmarshal(body, &out) != nil {
						transportErrors.Add(1)
						continue
					}
					if out.TimedOut || out.Cancelled || out.Skipped > 0 {
						anomalousResponses.Add(1)
					} else {
						healthyResponses.Add(1)
					}
				case http.StatusTooManyRequests, http.StatusRequestTimeout,
					http.StatusInternalServerError:
					anomalousResponses.Add(1)
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(2 * time.Millisecond)
					}
				default:
					transportErrors.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fault.Set(fault.Config{})

	if transportErrors.Load() != 0 {
		t.Fatalf("%d transport errors; retention accounting needs every response", transportErrors.Load())
	}
	if anomalousResponses.Load() == 0 {
		t.Fatal("chaos produced no anomalous responses; rates are dead")
	}
	if healthyResponses.Load() == 0 {
		t.Fatal("chaos produced no healthy responses; the sampling assertion is vacuous")
	}

	// Drain the export and tally the stream.
	st := srv.exporter.Stats()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	var anomalousEvents, healthyEvents int64
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad export line %q: %v", sc.Text(), err)
		}
		if ev.Anomalous() {
			anomalousEvents++
		} else {
			healthyEvents++
		}
	}

	t.Logf("responses: %d anomalous, %d healthy; export: %d anomalous, %d healthy; stats %+v",
		anomalousResponses.Load(), healthyResponses.Load(), anomalousEvents, healthyEvents, st)

	// 100% of anomalous outcomes survive — the acceptance criterion.
	if anomalousEvents != anomalousResponses.Load() {
		t.Errorf("export retained %d anomalous events, clients observed %d anomalous responses",
			anomalousEvents, anomalousResponses.Load())
	}
	// Healthy sampling is deterministic: 1-in-4 of the healthy emits pass
	// the counter, minus any backpressure drops (counted, healthy-only).
	wantHealthy := healthyResponses.Load()/4 - st.Dropped
	if healthyEvents != wantHealthy {
		t.Errorf("export kept %d healthy events, want %d (healthy=%d dropped=%d)",
			healthyEvents, wantHealthy, healthyResponses.Load(), st.Dropped)
	}
	// The profile saw every query, executed or shed.
	if _, seen, _ := srv.profile.Stats(); seen != totalQueries {
		t.Errorf("profile saw %d queries, want %d", seen, totalQueries)
	}
}
