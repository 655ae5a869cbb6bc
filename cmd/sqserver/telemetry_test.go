package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/telemetry"
)

// syncLogBuffer is a goroutine-safe buffer for captured slog output (the
// HTTP handler logs from request goroutines).
type syncLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// postQuery runs one query against the test server and returns the status.
func postQuery(t *testing.T, ts *httptest.Server, body string) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestDebugTop: executed queries aggregate by fingerprint, render as JSON
// and as text, and honor ?k.
func TestDebugTop(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := graphText(t, testQuery(t, srv))
	for i := 0; i < 5; i++ {
		if got := postQuery(t, ts, q); got != http.StatusOK {
			t.Fatalf("query status %d", got)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/top")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.ProfileSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seen != 5 || snap.Tracked != 1 {
		t.Fatalf("seen=%d tracked=%d, want 5/1", snap.Seen, snap.Tracked)
	}
	top := snap.Top[0]
	if top.Count != 5 {
		t.Fatalf("count = %d", top.Count)
	}
	if top.Fingerprint == "" || top.Fingerprint == telemetry.Fingerprint(0).String() {
		t.Fatalf("fingerprint = %q", top.Fingerprint)
	}
	if top.Latency.Count != 5 {
		t.Fatalf("latency count = %d", top.Latency.Count)
	}

	// Text rendering carries the fingerprint and the header line.
	textResp, err := http.Get(ts.URL + "/debug/top?format=text&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer textResp.Body.Close()
	raw, err := io.ReadAll(textResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "workload profile:") || !strings.Contains(body, top.Fingerprint) {
		t.Fatalf("text body missing expected content:\n%s", body)
	}

	// ?k=bogus is a 400, not a panic.
	bad, err := http.Get(ts.URL + "/debug/top?k=-2")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=-2 status %d", bad.StatusCode)
	}
}

// TestQueryResponseFingerprintInTrace: the ?trace=1 body carries the
// query's fingerprint, and it matches /debug/top's aggregation key.
func TestQueryResponseFingerprintInTrace(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := testQuery(t, srv)
	resp, err := http.Post(ts.URL+"/query?trace=1", "text/plain", strings.NewReader(graphText(t, q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Fingerprint == "" {
		t.Fatal("trace missing fingerprint")
	}
	want := sq.ComputeFingerprint(q).String()
	if out.Trace.Fingerprint != want {
		t.Fatalf("trace fingerprint %s, want %s", out.Trace.Fingerprint, want)
	}

	// The slow log (threshold 0 in tests retains everything) carries it too.
	slow := srv.slow.Snapshot()
	if len(slow) == 0 || slow[0].Fingerprint.String() != want {
		t.Fatalf("slow log fingerprint = %+v", slow)
	}
}

// TestShedRecordedInTelemetry: a query bounced by admission control is
// attributed by fingerprint in the profile, the incident ring, and the
// export stream even though it never executed.
func TestShedRecordedInTelemetry(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 5, NumVertices: 15, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	exportPath := filepath.Join(t.TempDir(), "events.ndjson")
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{
		maxInflight: 1, maxQueue: 0, queueWait: 10 * time.Millisecond,
		exportDest: exportPath, exportSample: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	qs, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{
		Count: 1, Edges: 3, Method: sq.QueryRandomWalk, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	body := graphText(t, q)

	// Hold the only execution slot so the next request sheds immediately
	// (queue size 0).
	release, verdict := srv.adm.acquire(nil)
	if verdict != admitOK {
		t.Fatalf("setup acquire verdict %v", verdict)
	}
	if got := postQuery(t, ts, body); got != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", got)
	}
	release()

	want := sq.ComputeFingerprint(q)

	// Profile: the shed is tallied under the query's fingerprint.
	snap := srv.profile.Snapshot(0)
	if len(snap.Top) != 1 || snap.Top[0].Fingerprint != want.String() || snap.Top[0].Sheds != 1 {
		t.Fatalf("profile after shed = %+v", snap.Top)
	}

	// Incident ring: one shed event with the 429 status.
	evs := srv.events.Snapshot()
	if len(evs) != 1 || evs[0].Kind != telemetry.VerdictShed || evs[0].Status != http.StatusTooManyRequests || evs[0].Fingerprint != want {
		t.Fatalf("debug events after shed = %+v", evs)
	}

	// Export: the shed event is anomalous, hence guaranteed in the stream.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var found bool
	events := readExport(t, exportPath)
	for _, ev := range events {
		if ev.Fingerprint == want && ev.Verdict == telemetry.VerdictShed {
			found = true
		}
	}
	if !found {
		t.Fatalf("shed event missing from export: %+v", events)
	}
}

// readExport decodes the NDJSON wide-event file a closed server wrote.
func readExport(t *testing.T, path string) []telemetry.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []telemetry.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	return events
}

// TestCacheHitInWideEventWithoutTrace: the cache outcome reaches the wide
// event from the Result itself, so it shows with the slow log off and no
// ?trace=1 — when no Trace exists to read it from.
func TestCacheHitInWideEventWithoutTrace(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 5, NumVertices: 15, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	exportPath := filepath.Join(t.TempDir(), "events.ndjson")
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{
		cacheEntries: 16, slowThreshold: -1,
		exportDest: exportPath, exportSample: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	body := graphText(t, testQuery(t, srv))
	for i := 0; i < 3; i++ {
		if got := postQuery(t, ts, body); got != http.StatusOK {
			t.Fatalf("query status %d", got)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	events := readExport(t, exportPath)
	hits := 0
	for _, ev := range events {
		if ev.CacheHit {
			hits++
		}
	}
	if len(events) != 3 || hits != 2 {
		t.Fatalf("%d events with %d cache hits, want 3 with 2 (the repeats): %+v", len(events), hits, events)
	}
}

// TestDebugEventsEndpoint: the ring serves JSON with a total and renders
// an empty list (not null) before any incidents.
func TestDebugEventsEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Total  int64                  `json:"total"`
		Events []telemetry.DebugEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 0 || out.Events == nil || len(out.Events) != 0 {
		t.Fatalf("fresh events = %+v", out)
	}
}

// TestMetricsWorkloadSection: /metrics carries the scrape-time workload
// gauges and the index-build instruments; the top shapes stay on
// /debug/top, not copied into every scrape.
func TestMetricsWorkloadSection(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := graphText(t, testQuery(t, srv))
	if got := postQuery(t, ts, q); got != http.StatusOK {
		t.Fatalf("query status %d", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Gauges     map[string]int64           `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
		Top        json.RawMessage            `json:"workload_top"`
		Counters   map[string]int64           `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Gauges["workload_queries_seen"] != 1 || out.Gauges["workload_shapes_tracked"] != 1 {
		t.Fatalf("workload gauges = %+v", out.Gauges)
	}
	if _, ok := out.Histograms["index_build/CFQL+cache"]; !ok {
		t.Fatalf("index_build histogram missing; have %v", keysOf(out.Histograms))
	}
	if _, ok := out.Gauges["index_bytes/CFQL+cache"]; !ok {
		t.Fatalf("index_bytes gauge missing; have %+v", out.Gauges)
	}
	if out.Top != nil {
		t.Fatalf("/metrics inlines workload_top = %s; /debug/top serves it", out.Top)
	}
}

// TestRequestLogAnnotations: the per-request slog line carries
// fingerprint and admission_verdict fields.
func TestRequestLogAnnotations(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 5, NumVertices: 15, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncLogBuffer
	logger := newJSONLogger(&logBuf)
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{maxInflight: 2, maxQueue: 2}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	qs, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{
		Count: 1, Edges: 3, Method: sq.QueryRandomWalk, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := postQuery(t, ts, graphText(t, qs[0])); got != http.StatusOK {
		t.Fatalf("query status %d", got)
	}

	want := sq.ComputeFingerprint(qs[0]).String()
	var sawFingerprint, sawVerdict bool
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			continue
		}
		if line["msg"] != "request" || line["path"] != "/query" {
			continue
		}
		if line["fingerprint"] == want {
			sawFingerprint = true
		}
		if line["admission_verdict"] == telemetry.VerdictOK {
			sawVerdict = true
		}
	}
	if !sawFingerprint || !sawVerdict {
		t.Fatalf("request log missing annotations (fingerprint=%v verdict=%v):\n%s",
			sawFingerprint, sawVerdict, logBuf.String())
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
