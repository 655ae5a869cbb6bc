package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/core"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/telemetry"
)

// stubEngine answers every query with one canned Result after a delay, so a
// test can put any outcome in front of the server without provoking it.
type stubEngine struct {
	res   sq.Result
	delay time.Duration
}

func (stubEngine) Name() string                              { return "stub" }
func (stubEngine) Build(*sq.Database, sq.BuildOptions) error { return nil }
func (stubEngine) IndexMemory() int64                        { return 0 }
func (e stubEngine) Query(*sq.Graph, sq.QueryOptions) *sq.Result {
	time.Sleep(e.delay)
	res := e.res
	return &res
}

// pathQuery is a small connected query in the text format.
const pathQuery = "t 0 3 2\nv 0 0\nv 1 1\nv 2 0\ne 0 1\ne 1 2\n"

// requestLogLine returns the "request" log line for path, or nil.
func requestLogLine(logs, path string) map[string]any {
	sc := bufio.NewScanner(strings.NewReader(logs))
	for sc.Scan() {
		var line map[string]any
		if json.Unmarshal(sc.Bytes(), &line) == nil && line["msg"] == "request" && line["path"] == path {
			return line
		}
	}
	return nil
}

// TestPublishViews pins which channels see a query's record, one row per
// producer and outcome. Every row runs on its own server with a zero
// slow-log threshold (an offered record is a kept one) and an exporter that
// keeps every event, so each channel either has exactly one entry or none.
func TestPublishViews(t *testing.T) {
	enginePanic := &sq.QueryError{Engine: "stub", Kind: core.KindPanic, GraphID: -1, Message: "boom"}
	graphPanic := &sq.QueryError{Engine: "stub", Kind: core.KindPanic, GraphID: 3, Message: "boom"}
	type seen struct {
		queries, timeouts, shed, stuck int64
		profile                        bool
		incident                       string // kind, "" for none
		incidentStatus                 int
		slowlog                        bool
		logVerdict                     string // admission_verdict on the request line, "" for no query attrs
		anomalous                      bool   // the one exported event's classification
	}
	rows := []struct {
		name string
		// executed rows
		res sq.Result
		// bounced rows: the slot is held and the request arrives like this
		hold     bool
		maxQueue int
		gone     bool
		// the watchdog row
		stuck  bool
		status int
		want   seen
	}{
		{name: "ok", res: sq.Result{Answers: []int{1}, Candidates: 2}, status: 200,
			want: seen{queries: 1, profile: true, slowlog: true, logVerdict: telemetry.VerdictOK}},
		{name: "cache hit", res: sq.Result{Answers: []int{1}, Cache: "exact"}, status: 200,
			want: seen{queries: 1, profile: true, slowlog: true, logVerdict: telemetry.VerdictOK}},
		{name: "timed out", res: sq.Result{TimedOut: true}, status: 200,
			want: seen{queries: 1, timeouts: 1, profile: true, slowlog: true, logVerdict: telemetry.VerdictOK, anomalous: true}},
		{name: "engine error", res: sq.Result{Err: enginePanic}, status: 500,
			want: seen{queries: 1, profile: true, incident: "query_panic", slowlog: true, logVerdict: telemetry.VerdictOK, anomalous: true}},
		{name: "graph panic", res: sq.Result{Skipped: 1, GraphErrors: []*sq.QueryError{graphPanic}}, status: 200,
			want: seen{queries: 1, profile: true, incident: "query_panic", slowlog: true, logVerdict: telemetry.VerdictOK, anomalous: true}},
		{name: "shed", hold: true, status: 429,
			want: seen{shed: 1, profile: true, incident: telemetry.VerdictShed, incidentStatus: 429, logVerdict: telemetry.VerdictShed, anomalous: true}},
		{name: "queue_timeout", hold: true, maxQueue: 1, status: 429,
			want: seen{shed: 1, profile: true, incident: telemetry.VerdictQueueTimeout, incidentStatus: 429, logVerdict: telemetry.VerdictQueueTimeout, anomalous: true}},
		{name: "client_gone", hold: true, maxQueue: 1, gone: true, status: 408,
			want: seen{profile: true, incident: telemetry.VerdictClientGone, incidentStatus: 408, logVerdict: telemetry.VerdictClientGone, anomalous: true}},
		{name: "watchdog", stuck: true,
			want: seen{stuck: 1, incident: "watchdog_stuck", anomalous: true}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var logs syncLogBuffer
			exportPath := filepath.Join(t.TempDir(), "events.ndjson")
			cfg := serverConfig{
				maxInflight: 1, maxQueue: row.maxQueue, queueWait: 5 * time.Millisecond,
				exportDest: exportPath, exportSample: 1, watchdogInterval: -1,
			}
			if row.gone {
				cfg.queueWait = time.Minute // the client leaves first
			}
			srv, err := newServer(sq.NewDatabase(nil), stubEngine{res: row.res}, cfg, newJSONLogger(&logs))
			if err != nil {
				t.Fatal(err)
			}

			if row.stuck {
				srv.onStuck(inflight.HandleSnapshot{
					ID: 7, Fingerprint: "00000000000000ab", Engine: "stub", Phase: "verify", AgeMS: 9000,
				}, []byte("goroutine 1 [running]:"))
			} else {
				if row.hold {
					release, av := srv.adm.acquire(nil)
					if av != admitOK {
						t.Fatalf("setup acquire verdict %v", av)
					}
					defer release()
				}
				ctx, cancel := context.WithCancel(context.Background())
				if row.gone {
					cancel()
				}
				defer cancel()
				w := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(pathQuery)).WithContext(ctx)
				srv.handler().ServeHTTP(w, r)
				if w.Code != row.status {
					t.Fatalf("status %d, want %d: %s", w.Code, row.status, w.Body.String())
				}
			}

			got := seen{
				queries:  srv.queries.Value(),
				timeouts: srv.timeouts.Value(),
				shed:     srv.shed.Value(),
				stuck:    srv.stuck.Value(),
				profile:  srv.profile.Snapshot(0).Seen == 1,
				slowlog:  srv.slow.Total() == 1,
			}
			if evs := srv.events.Snapshot(); len(evs) == 1 {
				got.incident, got.incidentStatus = evs[0].Kind, evs[0].Status
				if evs[0].Time.IsZero() || evs[0].Message == "" {
					t.Errorf("incident without a time or a message: %+v", evs[0])
				}
			} else if len(evs) > 1 {
				t.Errorf("%d incidents, want at most one: %+v", len(evs), evs)
			}
			if line := requestLogLine(logs.String(), "/query"); line != nil {
				if line["fingerprint"] != nil {
					got.logVerdict, _ = line["admission_verdict"].(string)
				}
			} else if !row.stuck {
				t.Error("no request log line")
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			exported := readExport(t, exportPath)
			if len(exported) != 1 {
				t.Fatalf("%d exported events, want exactly one: %+v", len(exported), exported)
			}
			ev := exported[0]
			got.anomalous = ev.Anomalous()
			if got != row.want {
				t.Errorf("channels saw\n %+v, want\n %+v", got, row.want)
			}
			if ev.Engine != "stub" || ev.Fingerprint == 0 || ev.TimeUnixMS == 0 {
				t.Errorf("exported event lacks identity: %+v", ev)
			}
			if row.name == "cache hit" && !ev.CacheHit {
				t.Errorf("cache hit not on the event: %+v", ev)
			}
			if ev.Watchdog != row.stuck {
				t.Errorf("event.watchdog = %v", ev.Watchdog)
			}
		})
	}
}

// TestSlowFailureReachesSlowLog: a query that fails at the engine boundary
// after the slow-log threshold is in /debug/slowlog as well as in
// /debug/events; a fast failure is only an incident.
func TestSlowFailureReachesSlowLog(t *testing.T) {
	failure := sq.Result{Err: &sq.QueryError{Engine: "stub", Kind: core.KindPanic, GraphID: -1, Message: "boom"}}
	for _, c := range []struct {
		name  string
		delay time.Duration
		kept  int64
	}{
		{"slow", 60 * time.Millisecond, 1},
		{"fast", 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := newServer(sq.NewDatabase(nil), stubEngine{res: failure, delay: c.delay},
				serverConfig{slowThreshold: 50 * time.Millisecond, watchdogInterval: -1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.handler())
			defer ts.Close()
			if got := postQuery(t, ts, pathQuery); got != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500", got)
			}
			if !hasEventKind(t, ts, "query_panic") {
				t.Error("/debug/events has no query_panic entry")
			}
			out := getSlowLog(t, ts.URL)
			if out.Seen != 1 || out.Kept != c.kept || int64(len(out.Queries)) != c.kept {
				t.Fatalf("slow log seen=%d kept=%d len=%d, want 1/%d/%d", out.Seen, out.Kept, len(out.Queries), c.kept, c.kept)
			}
			if c.kept == 1 {
				// query_text is the parsed query written back out, not the
				// posted bytes: it reads back as the same query.
				g, err := sq.ReadGraph(strings.NewReader(out.Queries[0].QueryText))
				if err != nil || sq.ComputeFingerprint(g).String() != out.Queries[0].Fingerprint || !out.Queries[0].Error {
					t.Errorf("slow failure entry = %+v (parse error %v), want error=true and a replayable query", out.Queries[0], err)
				}
			}
		})
	}
}

// TestBodyLimit: POST /query and POST /graphs read at most maxBodyBytes of
// body and answer 413 past it, with or without a Content-Length. The padding
// is comment lines, which the parser skips: without the limit both requests
// would succeed.
func TestBodyLimit(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	padding := strings.Repeat("# "+strings.Repeat("x", 61)+"\n", maxBodyBytes/64+1)
	for _, path := range []string{"/query", "/graphs"} {
		for _, chunked := range []bool{false, true} {
			var body io.Reader = strings.NewReader(padding + pathQuery)
			if chunked {
				body = io.MultiReader(body) // hides the length: chunked upload
			}
			resp, err := http.Post(ts.URL+path, "text/plain", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s (chunked=%v) with %d bytes: status %d, want 413", path, chunked, len(padding), resp.StatusCode)
			}
		}
		// Just under the limit the same request goes through.
		under := padding[:maxBodyBytes-len(pathQuery)-64] + "\n" + pathQuery
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(under))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s with %d bytes: status %d, want 200", path, len(under), resp.StatusCode)
		}
	}
	if got := srv.rejected.Value(); got != 2 {
		t.Errorf("queries_rejected_total = %d, want 2 (the oversized queries)", got)
	}
}
