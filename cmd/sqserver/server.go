package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// server holds the database and engine behind the HTTP handlers. A RWMutex
// serializes appends against queries: the engines themselves are safe for
// concurrent queries but not for concurrent database mutation.
type server struct {
	mu     sync.RWMutex
	db     *sq.Database
	engine sq.Engine
	cfg    serverConfig
	log    *slog.Logger
	start  time.Time

	// adm bounds concurrent query execution (nil = admission disabled).
	adm *admission

	// cluster is the scatter-gather coordinator the engine is or wraps, whose
	// retry/hedge/degradation counters /metrics exposes (nil = one engine).
	cluster *cluster.Coordinator

	// cache is the result cache wrapping the engine, whose admission
	// counters /metrics exposes (nil = -cache 0).
	cache *core.Cached

	// Telemetry. The registry backs GET /metrics; the named instruments
	// are held directly so the hot path never takes the registry lock.
	reg       *obs.Registry
	queries   *obs.Counter
	rejected  *obs.Counter
	timeouts  *obs.Counter
	appends   *obs.Counter
	cacheHit  *obs.Counter // exact and subgraph hits together
	cacheSub  *obs.Counter // the subgraph hits among them
	cacheMiss *obs.Counter
	shed      *obs.Counter // requests bounced by admission control
	// degradedShards counts shard partitions lost to a query response
	// (shard_degraded_total); errsTruncated sums graph errors dropped by
	// the coordinator's post-merge cap (graph_errors_truncated).
	degradedShards *obs.Counter
	errsTruncated  *obs.Counter
	inflight       *obs.Gauge
	// workerPool tracks the effective parallel worker count (after the
	// engines clamp to GOMAXPROCS); stays 0 for sequential engines.
	workerPool *obs.Gauge
	latency    *obs.Histogram // wall-clock per query
	filterLat  *obs.Histogram // engine filtering phase
	verifyLat  *obs.Histogram // engine verification phase
	siLat      *obs.Histogram // per-SI-test (one sample per candidate graph)
	// observer feeds siLat on a query without ?trace=1.
	observer *registryObserver

	// slow is the ring behind GET /debug/slowlog (nil = disabled): publish
	// offers it every executed record and it keeps those whose wall-clock
	// latency meets cfg.slowThreshold.
	slow *telemetry.Ring[slowEntry]

	// profile is the per-fingerprint heavy-hitter sketch behind /debug/top;
	// exporter ships one tail-sampled wide event per query (nil = disabled);
	// events is the incident ring behind /debug/events.
	profile  *telemetry.Profile
	exporter *telemetry.Exporter
	events   *telemetry.Ring[telemetry.DebugEvent]

	// live registers a handle per executing query (/debug/inflight, remote
	// cancellation); watchdog scans it for queries stuck far beyond the
	// rolling p99 (nil = disabled); stuck counts the flags.
	live     *inflight.Registry
	watchdog *inflight.Watchdog
	stuck    *obs.Counter

	// statsCache memoizes the /stats response (ComputeStats walks every
	// graph); appends invalidate it.
	statsCache atomic.Pointer[map[string]any]
}

// serverConfig carries the tunables of newServer beyond the database and
// engine; a zero value selects the default named.
type serverConfig struct {
	// cacheEntries sizes the result cache; 0 disables it.
	cacheEntries int
	// budget bounds each query's time, memBudget its candidate-structure
	// footprint in bytes (core.QueryOptions.MemoryBudget); 0 is unbounded.
	budget    time.Duration
	memBudget int64
	// slowThreshold is the slow-query retention latency; 0 retains every
	// query (useful in tests), negative disables the slow log entirely.
	slowThreshold time.Duration
	// maxInflight bounds concurrently executing queries; 0 disables
	// admission control. Beyond it up to maxQueue requests wait up to
	// queueWait (1s) for a slot; the rest are shed with 429.
	maxInflight int
	maxQueue    int
	queueWait   time.Duration
	// exportDest is the wide-event NDJSON destination, a file path or an
	// http(s):// URL (empty disables export); exportSample is the fraction
	// of healthy queries exported (anomalous ones always are).
	exportDest   string
	exportSample float64
	// watchdogInterval is the stuck-query scan period (negative disables
	// the watchdog); a query is stuck past watchdogMultiple × the rolling
	// p99, never before watchdogFloor. All three default in inflight.
	watchdogInterval time.Duration
	watchdogFloor    time.Duration
	// Only tests set these: the /debug/events ring size (eventsRingSize)
	// and the watchdog multiple.
	eventsSize       int
	watchdogMultiple float64
}

// Fixed sizes: nothing outside tests ever ran with another value.
const (
	// slowLogSize and eventsRingSize are the capacities of the rings behind
	// /debug/slowlog and /debug/events.
	slowLogSize    = 64
	eventsRingSize = 128
	// defaultTopK is the row count of GET /debug/top without ?k=N.
	defaultTopK = 20
	// retryJitterSecs widens the Retry-After hint on shed responses by a
	// uniform 0..retryJitterSecs seconds, de-synchronizing client retries.
	retryJitterSecs = 2
	// maxBodyBytes bounds a POST /query or POST /graphs body; one graph in
	// the text format is a few KiB.
	maxBodyBytes = 1 << 20
)

func newServer(db *sq.Database, engine sq.Engine, cfg serverConfig, logger *slog.Logger) (*server, error) {
	// Remember the coordinator before any cache wrapping so /metrics can
	// reach its scatter-gather counters.
	coord, _ := engine.(*cluster.Coordinator)
	var cache *core.Cached
	if cfg.cacheEntries > 0 {
		cache = core.NewCached(engine, cfg.cacheEntries)
		engine = cache
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	exporter, err := telemetry.NewExporter(cfg.exportDest, telemetry.ExportConfig{HealthyFraction: cfg.exportSample})
	if err != nil {
		return nil, err
	}
	if cfg.eventsSize <= 0 {
		cfg.eventsSize = eventsRingSize
	}
	s := &server{
		db:       db,
		engine:   engine,
		cfg:      cfg,
		log:      logger,
		start:    time.Now(),
		reg:      obs.NewRegistry(),
		adm:      newAdmission(cfg.maxInflight, cfg.maxQueue, cfg.queueWait, retryJitterSecs),
		cluster:  coord,
		cache:    cache,
		profile:  telemetry.NewProfile(0),
		exporter: exporter,
		events:   telemetry.NewRing[telemetry.DebugEvent](cfg.eventsSize),
		live:     inflight.NewRegistry(0),
	}
	if cfg.slowThreshold >= 0 {
		s.slow = telemetry.NewRing[slowEntry](slowLogSize)
	}
	en := engine.Name()
	s.queries = s.reg.Counter("queries_total/" + en)
	s.rejected = s.reg.Counter("queries_rejected_total")
	s.timeouts = s.reg.Counter("query_timeouts_total/" + en)
	s.appends = s.reg.Counter("graph_appends_total")
	s.cacheHit = s.reg.Counter("cache_hits_total")
	s.cacheSub = s.reg.Counter("cache_subgraph_hits_total")
	s.cacheMiss = s.reg.Counter("cache_misses_total")
	s.shed = s.reg.Counter("queries_shed_total")
	s.degradedShards = s.reg.Counter("shard_degraded_total")
	s.errsTruncated = s.reg.Counter("graph_errors_truncated")
	s.inflight = s.reg.Gauge("queries_inflight")
	s.workerPool = s.reg.Gauge("worker_pool_size")
	s.latency = s.reg.Histogram("query_latency/" + en)
	s.filterLat = s.reg.Histogram("filter_latency/" + en)
	s.verifyLat = s.reg.Histogram("verify_latency/" + en)
	s.siLat = s.reg.Histogram("si_test_latency/" + en)
	s.observer = &registryObserver{siLat: s.siLat}
	s.stuck = s.reg.Counter("watchdog_flagged_total")

	// Index construction runs after the registry exists so its cost is a
	// first-class metric: the multi-second index builds (CT-Index ~14s on
	// the paper's datasets) were previously invisible to /metrics.
	// It runs on every core: the server is not yet serving anything else.
	t0 := time.Now()
	if err := engine.Build(db, sq.BuildOptions{Workers: runtime.GOMAXPROCS(0)}); err != nil {
		s.exporter.Close()
		return nil, err
	}
	s.reg.Histogram("index_build/" + en).Record(time.Since(t0))
	s.reg.Gauge("index_bytes/" + en).Set(engine.IndexMemory())

	// The watchdog starts last so it never scans during index construction.
	// Its threshold tracks the server's own rolling p99: a query is stuck
	// when it has run watchdogMultiple times longer than the p99 of the
	// workload the server actually serves, never earlier than the floor.
	if cfg.watchdogInterval >= 0 {
		s.watchdog = inflight.NewWatchdog(s.live, inflight.WatchdogConfig{
			Interval: cfg.watchdogInterval,
			Multiple: cfg.watchdogMultiple,
			Floor:    cfg.watchdogFloor,
			P99:      func() time.Duration { return s.latency.Quantile(0.99) },
			OnStuck:  s.onStuck,
		})
	}
	return s, nil
}

// Close stops the watchdog and flushes the wide-event exporter; the server
// is not usable afterwards. Safe when export is disabled.
func (s *server) Close() error {
	s.watchdog.Stop()
	return s.exporter.Close()
}

// onStuck is the watchdog callback, invoked exactly once per flagged
// query: its record is the handle's progress so far, and the log gets a
// bounded slice of the goroutine stack dump.
func (s *server) onStuck(snap inflight.HandleSnapshot, stack []byte) {
	fp, _ := telemetry.ParseFingerprint(snap.Fingerprint)
	rec := s.newRecord(fp, nil)
	rec.Engine = snap.Engine
	rec.Verdict = snap.Verdict
	rec.DurationUS = snap.AgeMS * 1000
	rec.Candidates = int(snap.Candidates)
	rec.Answers = int(snap.Answers)
	rec.Watchdog = true
	rec.detail = fmt.Sprintf("query %d stuck: phase=%s age=%dms graphs=%d/%d steps=%d",
		snap.ID, snap.Phase, snap.AgeMS, snap.GraphsDone, snap.GraphsTotal, snap.Steps)
	s.publish(nil, &rec)
	const maxStackLog = 8 << 10
	if len(stack) > maxStackLog {
		stack = stack[:maxStackLog]
	}
	s.log.Warn("watchdog flagged stuck query",
		"id", snap.ID, "fingerprint", snap.Fingerprint, "engine", snap.Engine,
		"phase", snap.Phase, "age_ms", snap.AgeMS, "steps", snap.Steps,
		"stack", string(stack))
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /query", s.recovered(s.handleQuery))
	m.HandleFunc("POST /graphs", s.recovered(s.handleAppend))
	m.HandleFunc("/stats", s.recovered(s.handleStats))
	m.HandleFunc("GET /metrics", s.recovered(s.handleMetrics))
	m.HandleFunc("GET /debug/slowlog", s.recovered(s.handleSlowLog))
	m.HandleFunc("GET /debug/top", s.recovered(s.handleTop))
	m.HandleFunc("GET /debug/events", s.recovered(s.handleEvents))
	m.HandleFunc("GET /debug/inflight", s.recovered(s.handleInflight))
	m.HandleFunc("POST /debug/inflight/{id}/cancel", s.recovered(s.handleInflightCancel))
	m.HandleFunc("/healthz", s.recovered(s.handleHealthz))
	return m
}

// recovered is the handler-level panic boundary: a panic that escapes a
// handler (the engines recover their own, so this catches handler bugs and
// anything outside Query) becomes a structured 500 instead of a dropped
// connection, and the process keeps serving. Writing the status fails
// silently if the handler already streamed part of a response — net/http
// then closes the connection, which is the best remaining signal.
func (s *server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				obs.Panics.Inc()
				s.incident(telemetry.DebugEvent{
					Kind:    "handler_panic",
					Status:  http.StatusInternalServerError,
					Message: r.URL.Path + ": " + fmt.Sprint(v),
				})
				s.log.Error("handler panic",
					"path", r.URL.Path, "panic", fmt.Sprint(v),
					"stack", string(debug.Stack()))
				writeJSONStatus(w, http.StatusInternalServerError, map[string]any{
					"error": map[string]any{"kind": "panic", "message": fmt.Sprint(v)},
				})
			}
		}()
		h(w, r)
	}
}

// handler wraps the mux with request logging.
func (s *server) handler() http.Handler {
	mux := s.mux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(rec, r)
		// Room for the query attributes too, so appending them never regrows.
		attrs := append(make([]any, 0, 18),
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_ms", time.Since(t0).Milliseconds(),
			"remote", r.RemoteAddr,
		)
		// A query's log line is one more view of its record: these join
		// the flat log against /debug/top and the wide-event export.
		if q := rec.query; q.Engine != "" {
			attrs = append(attrs, "fingerprint", q.Fingerprint.String())
			if q.Verdict != "" {
				attrs = append(attrs, "admission_verdict", q.Verdict)
			}
			if q.Skipped > 0 {
				attrs = append(attrs, "skipped", q.Skipped)
			}
		}
		s.log.Info("request", attrs...)
	})
}

// statusRecorder captures the response status and size for the log line,
// plus the Event of the query publish saw on this request (zero otherwise).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	query  telemetry.Event
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// registryObserver feeds every SI test into the per-SI-test histogram and,
// under ?trace=1, into the request's trace (nil otherwise).
type registryObserver struct {
	siLat *obs.Histogram
	trace *obs.Trace
}

func (o *registryObserver) ObserveVerify(gid int, steps uint64, d time.Duration, found bool) {
	o.siLat.Record(d)
	o.trace.ObserveVerify(gid, steps, d, found)
}

// readGraph parses the one graph a POST body carries, answering 413 past
// maxBodyBytes and 400 for anything unparsable; ok is false once it has
// answered.
func readGraph(w http.ResponseWriter, r *http.Request, what string) (g *sq.Graph, ok bool) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	g, err := sq.ReadGraph(body)
	if err == nil {
		return g, true
	}
	// The reader's limit error is sticky; the parser may have tripped over
	// the cut-off line first.
	if _, rerr := body.Read(nil); errors.As(rerr, new(*http.MaxBytesError)) {
		http.Error(w, fmt.Sprintf("%s body over %d bytes", what, maxBodyBytes), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	http.Error(w, fmt.Sprintf("parsing %s: %v", what, err), http.StatusBadRequest)
	return nil, false
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := readGraph(w, r, "query")
	if !ok {
		s.rejected.Inc()
		return
	}
	if !q.IsConnected() {
		s.rejected.Inc()
		http.Error(w, "query graph must be connected", http.StatusBadRequest)
		return
	}

	// Fingerprint before admission: a shed query never reaches the engine,
	// but its shape must still aggregate in /debug/top and the export, so
	// operators see *which* workload the shedding punishes. The engine sees
	// the hash via opts and does not recompute.
	rec := s.newRecord(sq.ComputeFingerprint(q), q)

	// Admission control: bound concurrent query execution before any work.
	if s.adm != nil {
		release, av := s.adm.acquire(r.Context().Done())
		if av != admitOK {
			s.bounce(w, &rec, av)
			return
		}
		defer release()
		rec.Verdict = telemetry.VerdictOK
	}

	// The query's one context: a child of the request context (client
	// disconnect) carrying the budget as its deadline. Its CancelFunc goes
	// to the live registry, so remote cancellation (POST
	// /debug/inflight/{id}/cancel) and the shutdown sweep end the same
	// context; the engine tells a cancellation from a budget expiry by
	// ctx.Err(). The handle carries identity and progress counters for GET
	// /debug/inflight. A coordinator engine registers one sub-handle per
	// shard attempt in the same registry, so /debug/inflight shows the
	// fan-out live and cancellation reaches hedged losers.
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.budget > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), s.cfg.budget)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	defer cancel()
	h := s.live.Register(inflight.RegisterOptions{
		Engine:      rec.Engine,
		Fingerprint: uint64(rec.Fingerprint),
		Verdict:     rec.Verdict,
		Cancel:      cancel,
	})
	defer s.live.Deregister(h)
	opts := sq.QueryOptions{
		Context:      ctx,
		MemoryBudget: s.cfg.memBudget,
		Fingerprint:  rec.Fingerprint,
		Observer:     s.observer,
		Handle:       h,
	}

	// The verbose views exist only for the request that asks for them.
	if r.URL.RawQuery != "" {
		v := r.URL.Query()
		if v.Get("trace") == "1" {
			rec.trace = sq.NewTrace()
			opts.Observer = &registryObserver{siLat: s.siLat, trace: rec.trace}
		}
		if v.Get("explain") == "1" {
			rec.explain = sq.NewExplain()
			opts.Explain = rec.explain
		}
	}

	s.inflight.Add(1)
	t0 := time.Now()
	s.mu.RLock()
	res := s.engine.Query(q, opts)
	s.mu.RUnlock()
	rec.executed(res, t0, time.Since(t0))
	s.inflight.Add(-1)

	s.publish(w, &rec)
	if res.Err != nil {
		// The query itself failed (panic recovered at the engine boundary
		// outside any per-graph section): structured 500, process intact.
		s.log.Error("query failed", "engine", rec.Engine, "err", res.Err.Error())
		writeJSONStatus(w, http.StatusInternalServerError, map[string]any{"error": res.Err})
		return
	}
	writeJSON(w, rec.response(res, h.ID()))
}

// bounce answers a query admission control refused: it never executed, so
// its record carries no phase times or counts, only who was turned away
// and why.
func (s *server) bounce(w http.ResponseWriter, rec *queryRecord, av admitVerdict) {
	rec.status = http.StatusTooManyRequests
	switch av {
	case admitShed:
		rec.Verdict = telemetry.VerdictShed
	case admitTimeout:
		rec.Verdict = telemetry.VerdictQueueTimeout
	case admitCancelled:
		rec.Verdict, rec.status = telemetry.VerdictClientGone, http.StatusRequestTimeout
	}
	s.publish(w, rec)
	if rec.status == http.StatusRequestTimeout {
		http.Error(w, "client gave up while queued", rec.status)
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	http.Error(w, "server at capacity, retry later", rec.status)
}

// handleTop serves the workload profile: the top-K query shapes by count,
// each with its space-saving error bound, failure tallies and latency
// quantiles. ?k=N overrides the row count; ?format=text renders an
// aligned table.
func (s *server) handleTop(w http.ResponseWriter, r *http.Request) {
	k := defaultTopK
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "k must be a non-negative integer", http.StatusBadRequest)
			return
		}
		k = n
	}
	snap := s.profile.Snapshot(k)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		telemetry.WriteTop(w, snap)
		return
	}
	writeJSON(w, snap)
}

// handleEvents dumps the bounded incident ring (admission sheds, recovered
// panics), newest first.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"total":  s.events.Total(),
		"events": s.events.Snapshot(),
	})
}

// handleInflight lists the queries executing right now, oldest first —
// the answer to "what is this server doing at this moment". JSON by
// default; ?format=text renders an aligned table.
func (s *server) handleInflight(w http.ResponseWriter, r *http.Request) {
	snaps := s.live.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		inflight.WriteTable(w, snaps)
		return
	}
	registered, overflowed, cancels := s.live.Stats()
	writeJSON(w, map[string]any{
		"queries":    snaps,
		"registered": registered,
		"overflowed": overflowed,
		"cancels":    cancels,
	})
}

// handleInflightCancel delivers cooperative cancellation to one live
// query by handle id: it cancels the query's context, which the engine
// observes at its next budget checkpoint, and the query returns a
// cancelled result to its own client.
// 404 when the id is not live (already finished, or never existed).
func (s *server) handleInflightCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "id must be a decimal handle id", http.StatusBadRequest)
		return
	}
	if !s.live.Cancel(id) {
		http.Error(w, "no such live query (already finished?)", http.StatusNotFound)
		return
	}
	s.incident(telemetry.DebugEvent{
		Kind:    "remote_cancel",
		Message: fmt.Sprintf("cancellation delivered to in-flight query %d", id),
	})
	s.log.Info("remote cancel delivered", "id", id)
	writeJSON(w, map[string]any{"cancelled": true, "id": id})
}

// handleSlowLog dumps the slow-query ring, newest first: each entry is the
// query's record and its text, to be replayed with ?trace=1&explain=1.
func (s *server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		http.Error(w, "slow-query log disabled", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{
		"threshold_us": s.cfg.slowThreshold.Microseconds(),
		"capacity":     slowLogSize,
		// Every executed query is offered; kept counts those that met the
		// threshold, including ones since displaced.
		"seen":    s.queries.Value(),
		"kept":    s.slow.Total(),
		"queries": s.slow.Snapshot(),
	})
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	g, ok := readGraph(w, r, "graph")
	if !ok {
		return
	}
	u, ok := s.engine.(core.Updatable)
	if !ok {
		http.Error(w, "engine does not support appends; restart with a vcFV engine", http.StatusConflict)
		return
	}
	// The stats cache is cleared under the write lock and filled under the
	// read lock, so a computation that read the database before this append
	// cannot store its count after the clear.
	s.mu.Lock()
	id, err := u.AppendGraph(g)
	if err == nil {
		s.statsCache.Store(nil)
	}
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.appends.Inc()
	writeJSON(w, map[string]int{"id": id})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cached := s.statsCache.Load()
	if cached == nil {
		s.mu.RLock()
		stats := s.db.ComputeStats()
		mem := s.db.MemoryFootprint()
		idx := s.engine.IndexMemory()
		cached = &map[string]any{
			"graphs":             stats.NumGraphs,
			"labels":             stats.NumLabels,
			"vertices_per_graph": stats.VerticesPerGraph,
			"edges_per_graph":    stats.EdgesPerGraph,
			"degree_per_graph":   stats.DegreePerGraph,
			"dataset_bytes":      mem,
			"index_bytes":        idx,
			"engine":             s.engine.Name(),
		}
		s.statsCache.Store(cached)
		s.mu.RUnlock()
	}
	writeJSON(w, *cached)
}

// handleMetrics dumps the telemetry registry: per-engine query counts,
// latency histograms with p50/p90/p99, timeout and cache counters, and
// the in-flight gauge. ?format=prom switches to the Prometheus text
// exposition (histograms in seconds with cumulative buckets).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Scrape-time gauges: each component keeps its own counters, so its hot
	// path stays free of registry traffic, and a scrape copies them in.
	var queued int64
	if s.adm != nil {
		queued = s.adm.depth()
	}
	s.reg.Gauge("admission_queue_depth").Set(queued)
	tracked, seen, evictions := s.profile.Stats()
	s.reg.Gauge("workload_shapes_tracked").Set(int64(tracked))
	s.reg.Gauge("workload_queries_seen").Set(seen)
	s.reg.Gauge("workload_evictions").Set(evictions)
	s.reg.Gauge("debug_events_total").Set(s.events.Total())
	if s.exporter != nil {
		st := s.exporter.Stats()
		s.reg.Gauge("export_events_exported").Set(st.Exported)
		s.reg.Gauge("export_events_sampled_out").Set(st.SampledOut)
		s.reg.Gauge("export_events_dropped").Set(st.Dropped)
		s.reg.Gauge("export_sink_errors").Set(st.SinkErrors)
	}
	// Go runtime health, sampled at scrape time only (never on a query
	// path): goroutine count, heap in use, GC pause p99.
	rh := obs.ReadRuntimeHealth()
	s.reg.Gauge("go_goroutines").Set(rh.Goroutines)
	s.reg.Gauge("go_heap_inuse_bytes").Set(rh.HeapInUseBytes)
	s.reg.Gauge("go_gc_pause_p99_us").Set(rh.GCPauseP99.Microseconds())
	// Scatter-gather robustness counters, snapshotted from the coordinator
	// at scrape time (its hot path stays registry-free).
	if s.cluster != nil {
		cs := s.cluster.Stats()
		s.reg.Gauge("cluster_shards").Set(int64(cs.Shards))
		s.reg.Gauge("cluster_queries").Set(int64(cs.Queries))
		s.reg.Gauge("cluster_retries").Set(int64(cs.Retries))
		s.reg.Gauge("cluster_hedges").Set(int64(cs.Hedges))
		s.reg.Gauge("cluster_hedge_wins").Set(int64(cs.HedgeWins))
		s.reg.Gauge("cluster_degraded_queries").Set(int64(cs.DegradedQueries))
		s.reg.Gauge("cluster_transport_attempts").Set(int64(cs.TransportAttempts))
		s.reg.Gauge("cluster_transport_refused").Set(int64(cs.TransportRefused))
	}
	// Result-cache admission, copied from the cache's own atomics.
	if s.cache != nil {
		s.reg.Gauge("cache_admitted_total").Set(int64(s.cache.Admitted()))
		s.reg.Gauge("cache_rejected_total").Set(int64(s.cache.Rejected()))
	}
	// Panics recovered in engines, the result cache and handlers.
	s.reg.Gauge("panics_recovered_total").Set(obs.Panics.Value())
	// Live-query registry occupancy and lifetime counters.
	s.reg.Gauge("inflight_tracked").Set(int64(s.live.Len()))
	registered, overflowed, cancels := s.live.Stats()
	s.reg.Gauge("inflight_registered").Set(registered)
	s.reg.Gauge("inflight_overflowed").Set(overflowed)
	s.reg.Gauge("inflight_remote_cancels").Set(cancels)
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, snap, "subgraphquery")
		return
	}
	writeJSON(w, map[string]any{
		"engine":     s.engine.Name(),
		"uptime_s":   int64(time.Since(s.start).Seconds()),
		"counters":   snap.Counters,
		"gauges":     snap.Gauges,
		"histograms": snap.Histograms,
	})
}

// handleHealthz is the readiness probe: 503 "shedding" while admission
// control is saturated (every slot busy, queue full), so load balancers
// steer new traffic away instead of feeding the 429 path; 200 "ok"
// otherwise.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.adm != nil && s.adm.saturated() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shedding")
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
