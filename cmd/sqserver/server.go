package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
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
	mu        sync.RWMutex
	db        *sq.Database
	engine    sq.Engine
	budget    time.Duration
	memBudget int64
	log       *slog.Logger
	start     time.Time

	// adm bounds concurrent query execution (nil = admission disabled).
	adm *admission

	// cluster is set when the engine is (or wraps) a scatter-gather
	// coordinator; /metrics then exposes its retry/hedge/degradation
	// counters. nil for single-engine servers.
	cluster *cluster.Coordinator

	// Telemetry. The registry backs GET /metrics; the named instruments
	// are held directly so the hot path never takes the registry lock.
	reg       *obs.Registry
	queries   *obs.Counter
	rejected  *obs.Counter
	timeouts  *obs.Counter
	appends   *obs.Counter
	cacheHit  *obs.Counter
	cacheMiss *obs.Counter
	shed      *obs.Counter // requests bounced by admission control
	panics    *obs.Counter // panics recovered in engines and handlers
	// degradedShards counts shard partitions lost to a query response
	// (shard_degraded_total); errsTruncated sums graph errors dropped by
	// the coordinator's post-merge cap (graph_errors_truncated).
	degradedShards *obs.Counter
	errsTruncated  *obs.Counter
	inflight       *obs.Gauge
	// queueDepth mirrors the admission wait-queue occupancy at snapshot
	// time (refreshed by /metrics).
	queueDepth *obs.Gauge
	// workerPool tracks the effective parallel worker count (after the
	// engines clamp to GOMAXPROCS); stays 0 for sequential engines.
	workerPool *obs.Gauge
	latency    *obs.Histogram // wall-clock per query
	filterLat  *obs.Histogram // engine filtering phase
	verifyLat  *obs.Histogram // engine verification phase
	siLat      *obs.Histogram // per-SI-test (one sample per candidate graph)

	// slow is the always-on slow-query ring behind GET /debug/slowlog:
	// every query is traced and explained, and the record is retained iff
	// the query's wall-clock latency meets the configured threshold.
	slow *obs.SlowLog

	// Workload telemetry. profile is the per-fingerprint heavy-hitter
	// sketch behind GET /debug/top; exporter ships one tail-sampled wide
	// event per query (nil = export disabled); events is the bounded
	// incident ring behind GET /debug/events (sheds, recovered panics).
	profile  *telemetry.Profile
	exporter *telemetry.Exporter
	events   *telemetry.DebugRing
	topK     int

	// Live-query inspection. live registers a handle per executing query
	// (GET /debug/inflight, remote cancellation); watchdog scans it for
	// queries stuck far beyond the rolling p99 (nil = disabled); stuck
	// counts the flags.
	live     *inflight.Registry
	watchdog *inflight.Watchdog
	stuck    *obs.Counter

	// statsCache memoizes the /stats response; ComputeStats walks every
	// graph, so recomputing per request is wasteful on a static database.
	// Appends invalidate it.
	statsMu    sync.Mutex
	statsCache map[string]any
}

// serverConfig carries the tunables of newServer beyond the database and
// engine.
type serverConfig struct {
	// cacheEntries sizes the result cache; 0 disables it.
	cacheEntries int
	// budget bounds each query; 0 means unbounded.
	budget time.Duration
	// slowThreshold is the slow-query retention latency; 0 retains every
	// query (useful in tests), negative disables the slow log entirely.
	slowThreshold time.Duration
	// slowSize is the slow-log ring capacity; 0 selects the default.
	slowSize int
	// memBudget bounds each query's candidate-structure footprint in bytes
	// (core.QueryOptions.MemoryBudget); 0 disables the check.
	memBudget int64
	// maxInflight bounds concurrently executing queries; 0 disables
	// admission control entirely (every request runs immediately).
	maxInflight int
	// maxQueue bounds requests waiting for an execution slot; beyond it
	// arrivals are shed with 429. Only meaningful with maxInflight > 0.
	maxQueue int
	// queueWait is how long a queued request may wait for a slot before
	// being shed (0 selects 1s).
	queueWait time.Duration
	// retryJitter widens the Retry-After hint on shed responses by a
	// uniform 0..retryJitter seconds, de-synchronizing client retries
	// after a shedding burst; 0 keeps the hint deterministic.
	retryJitter int
	// topK is the default row count of GET /debug/top (0 selects 20).
	topK int
	// profileCapacity sizes the heavy-hitter sketch (0 selects the
	// telemetry default).
	profileCapacity int
	// exportDest is the wide-event NDJSON destination — a file path or an
	// http(s):// URL; empty disables export.
	exportDest string
	// exportSample is the fraction of healthy (non-anomalous) queries
	// exported; anomalous queries are always exported.
	exportSample float64
	// exportBuffer sizes the export ring (0 selects the default).
	exportBuffer int
	// eventsSize sizes the /debug/events incident ring (0 selects the
	// default).
	eventsSize int
	// inflightSlots sizes the live-query registry (0 selects the inflight
	// default).
	inflightSlots int
	// watchdogInterval is the stuck-query scan period (0 selects the
	// inflight default; negative disables the watchdog).
	watchdogInterval time.Duration
	// watchdogMultiple flags queries older than multiple × rolling p99
	// (0 selects the inflight default).
	watchdogMultiple float64
	// watchdogFloor is the minimum age before the watchdog flags a query
	// (0 selects the inflight default).
	watchdogFloor time.Duration
}

func newServer(db *sq.Database, engine sq.Engine, cfg serverConfig, logger *slog.Logger) (*server, error) {
	// Remember the coordinator before any cache wrapping so /metrics can
	// reach its scatter-gather counters.
	coord, _ := engine.(*cluster.Coordinator)
	if cfg.cacheEntries > 0 {
		engine = sq.NewCachedEngine(engine, cfg.cacheEntries)
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	topK := cfg.topK
	if topK <= 0 {
		topK = 20
	}
	exporter, err := telemetry.NewExporter(cfg.exportDest, telemetry.ExportConfig{
		HealthyFraction: cfg.exportSample,
		Buffer:          cfg.exportBuffer,
	})
	if err != nil {
		return nil, err
	}
	s := &server{
		db:        db,
		engine:    engine,
		budget:    cfg.budget,
		memBudget: cfg.memBudget,
		log:       logger,
		start:     time.Now(),
		reg:       obs.NewRegistry(),
		adm:       newAdmission(cfg.maxInflight, cfg.maxQueue, cfg.queueWait, cfg.retryJitter),
		cluster:   coord,
		profile:   telemetry.NewProfile(cfg.profileCapacity),
		exporter:  exporter,
		events:    telemetry.NewDebugRing(cfg.eventsSize),
		topK:      topK,
		live:      inflight.NewRegistry(cfg.inflightSlots),
	}
	if cfg.slowThreshold >= 0 {
		s.slow = obs.NewSlowLog(cfg.slowSize, cfg.slowThreshold)
	}
	en := engine.Name()
	s.queries = s.reg.Counter("queries_total/" + en)
	s.rejected = s.reg.Counter("queries_rejected_total")
	s.timeouts = s.reg.Counter("query_timeouts_total/" + en)
	s.appends = s.reg.Counter("graph_appends_total")
	s.cacheHit = s.reg.Counter("cache_hits_total")
	s.cacheMiss = s.reg.Counter("cache_misses_total")
	s.shed = s.reg.Counter("queries_shed_total")
	s.panics = s.reg.Counter("panics_recovered_total")
	s.degradedShards = s.reg.Counter("shard_degraded_total")
	s.errsTruncated = s.reg.Counter("graph_errors_truncated")
	s.inflight = s.reg.Gauge("queries_inflight")
	s.queueDepth = s.reg.Gauge("admission_queue_depth")
	s.workerPool = s.reg.Gauge("worker_pool_size")
	s.latency = s.reg.Histogram("query_latency/" + en)
	s.filterLat = s.reg.Histogram("filter_latency/" + en)
	s.verifyLat = s.reg.Histogram("verify_latency/" + en)
	s.siLat = s.reg.Histogram("si_test_latency/" + en)
	s.stuck = s.reg.Counter("watchdog_flagged_total")

	// Index construction runs after the registry exists so its cost is a
	// first-class metric: the multi-second index builds (CT-Index ~14s on
	// the paper's datasets) were previously invisible to /metrics.
	t0 := time.Now()
	if err := engine.Build(db, sq.BuildOptions{}); err != nil {
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
// query: one always-exported wide event, one /debug/events incident, one
// log line carrying a bounded slice of the goroutine stack dump, one
// counter tick.
func (s *server) onStuck(snap inflight.HandleSnapshot, stack []byte) {
	s.stuck.Inc()
	fp, _ := strconv.ParseUint(snap.Fingerprint, 16, 64)
	s.exporter.Emit(telemetry.Event{
		TimeUnixMS:  time.Now().UnixMilli(),
		Fingerprint: telemetry.Fingerprint(fp),
		Engine:      snap.Engine,
		Verdict:     snap.Verdict,
		DurationUS:  snap.AgeMS * 1000,
		Candidates:  int(snap.Candidates),
		Answers:     int(snap.Answers),
		Watchdog:    true,
	})
	s.events.Offer(telemetry.DebugEvent{
		Kind:        "watchdog_stuck",
		Fingerprint: telemetry.Fingerprint(fp),
		Engine:      snap.Engine,
		Message: fmt.Sprintf("query %d stuck: phase=%s age=%dms graphs=%d/%d steps=%d",
			snap.ID, snap.Phase, snap.AgeMS, snap.GraphsDone, snap.GraphsTotal, snap.Steps),
	})
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
	m.HandleFunc("/query", s.recovered(s.handleQuery))
	m.HandleFunc("/graphs", s.recovered(s.handleAppend))
	m.HandleFunc("/stats", s.recovered(s.handleStats))
	m.HandleFunc("/metrics", s.recovered(s.handleMetrics))
	m.HandleFunc("/debug/slowlog", s.recovered(s.handleSlowLog))
	m.HandleFunc("/debug/top", s.recovered(s.handleTop))
	m.HandleFunc("/debug/events", s.recovered(s.handleEvents))
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
				s.panics.Inc()
				obs.Panics.Inc()
				s.events.Offer(telemetry.DebugEvent{
					Kind:    "handler_panic",
					Status:  http.StatusInternalServerError,
					Message: r.URL.Path + ": " + fmt.Sprint(v),
				})
				s.log.Error("handler panic",
					"path", r.URL.Path, "panic", fmt.Sprint(v),
					"stack", string(debug.Stack()))
				writeJSONStatus(w, http.StatusInternalServerError, map[string]any{
					"error": map[string]any{
						"kind":    "panic",
						"message": fmt.Sprint(v),
					},
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
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_ms", time.Since(t0).Milliseconds(),
			"remote", r.RemoteAddr,
		}
		// Query annotations (set by handleQuery) join the flat log against
		// /debug/top and the wide-event export.
		if rec.fingerprint != "" {
			attrs = append(attrs, "fingerprint", rec.fingerprint)
		}
		if rec.verdict != "" {
			attrs = append(attrs, "admission_verdict", rec.verdict)
		}
		if rec.skipped > 0 {
			attrs = append(attrs, "skipped", rec.skipped)
		}
		s.log.Info("request", attrs...)
	})
}

// statusRecorder captures the response status and size for the log line,
// plus the query annotations handleQuery back-fills.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int

	fingerprint string
	verdict     string
	skipped     int
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

// registryObserver streams engine telemetry into the server's registry:
// phase spans feed the per-phase histograms, every SI test feeds the
// per-SI-test histogram, cache probes feed the hit/miss counters.
type registryObserver struct{ s *server }

func (o registryObserver) ObservePhase(name string, d time.Duration) {
	switch name {
	case obs.PhaseFilter:
		o.s.filterLat.Record(d)
	case obs.PhaseVerify:
		o.s.verifyLat.Record(d)
	}
}

func (o registryObserver) ObserveVerify(_ int, _ uint64, d time.Duration, _ bool) {
	o.s.siLat.Record(d)
}

func (o registryObserver) ObserveCache(hit bool) {
	if hit {
		o.s.cacheHit.Inc()
	} else {
		o.s.cacheMiss.Inc()
	}
}

func (o registryObserver) ObserveWorkers(n int) {
	o.s.workerPool.Set(int64(n))
}

func (o registryObserver) ObservePanic(int) {
	o.s.panics.Inc()
}

// ObserveFingerprint implements obs.Observer. The registry aggregates
// process-wide; per-shape aggregation happens in the workload profile, so
// there is nothing to record here.
func (o registryObserver) ObserveFingerprint(uint64) {}

// queryResponse is the JSON body returned by POST /query.
type queryResponse struct {
	Answers    []int `json:"answers"`
	Candidates int   `json:"candidates"`
	FilterUS   int64 `json:"filter_us"`
	VerifyUS   int64 `json:"verify_us"`
	TimedOut   bool  `json:"timed_out,omitempty"`
	Cancelled  bool  `json:"cancelled,omitempty"`
	// Skipped counts data graphs abandoned mid-processing (recovered panic
	// or exceeded memory budget); Answers is a lower bound when non-zero.
	Skipped     int              `json:"skipped,omitempty"`
	GraphErrors []*sq.QueryError `json:"graph_errors,omitempty"`
	// Degraded marks a scatter-gather response missing at least one shard
	// partition: Answers is a lower bound, and the lost partitions are
	// named by the KindShard entries in GraphErrors.
	Degraded bool `json:"degraded,omitempty"`
	// GraphErrorsTruncated counts per-graph errors dropped by the
	// coordinator's post-merge cap on GraphErrors.
	GraphErrorsTruncated int                  `json:"graph_errors_truncated,omitempty"`
	Engine               string               `json:"engine"`
	Trace                *obs.TraceSnapshot   `json:"trace,omitempty"`
	Explain              *obs.ExplainSnapshot `json:"explain,omitempty"`
	// InflightID is the live-registry handle id the query ran under, the
	// key correlating this response with /debug/inflight observations.
	InflightID uint64 `json:"inflight_id,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a query graph in the text format", http.StatusMethodNotAllowed)
		return
	}
	q, err := sq.ReadGraph(r.Body)
	if err != nil {
		s.rejected.Inc()
		http.Error(w, fmt.Sprintf("parsing query: %v", err), http.StatusBadRequest)
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
	fp := sq.ComputeFingerprint(q)
	rec, _ := w.(*statusRecorder)
	if rec != nil {
		rec.fingerprint = fp.String()
	}

	// Admission control: bound concurrent query execution before any work.
	verdict := ""
	if s.adm != nil {
		verdict = telemetry.VerdictOK
		release, av := s.adm.acquire(r.Context().Done())
		switch av {
		case admitOK:
			defer release()
		case admitShed, admitTimeout:
			if av == admitShed {
				verdict = telemetry.VerdictShed
			} else {
				verdict = telemetry.VerdictQueueTimeout
			}
			s.shed.Inc()
			s.recordShed(rec, q, fp, verdict, http.StatusTooManyRequests)
			w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
			http.Error(w, "server at capacity, retry later", http.StatusTooManyRequests)
			return
		case admitCancelled:
			s.recordShed(rec, q, fp, telemetry.VerdictClientGone, http.StatusRequestTimeout)
			http.Error(w, "client gave up while queued", http.StatusRequestTimeout)
			return
		}
	}

	// The per-request timeout rides on the request context, so one Done
	// channel carries both client disconnects and the budget to the
	// engine's cooperative cancellation checks.
	ctx := r.Context()
	opts := sq.QueryOptions{MemoryBudget: s.memBudget, Fingerprint: fp}
	if s.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.budget)
		defer cancel()
		opts.Deadline = time.Now().Add(s.budget)
	}

	// Register the query in the live registry before execution: the handle
	// carries identity and progress counters for GET /debug/inflight, and
	// merging its cancel channel with the request context means remote
	// cancellation (POST /debug/inflight/{id}/cancel), client disconnect
	// and the budget all stop the engine through one channel.
	h := s.live.Register(inflight.RegisterOptions{
		Engine:      s.engine.Name(),
		Fingerprint: uint64(fp),
		Verdict:     verdict,
	})
	defer s.live.Deregister(h)
	opts.Handle = h
	opts.Cancel = h.MergeCancel(ctx.Done())
	// A coordinator engine registers one sub-handle per shard attempt in
	// the same registry, so /debug/inflight shows the fan-out live and
	// cancellation reaches hedged losers.
	opts.Inflight = s.live

	wantTrace := r.URL.Query().Get("trace") == "1"
	wantExplain := r.URL.Query().Get("explain") == "1"

	// The slow log needs the full Trace+Explain of any query that turns out
	// slow, which is only known after the fact — so when the slow log is
	// enabled, every query collects both, and the threshold gates retention.
	var trace *sq.Trace
	var explain *sq.Explain
	var observer sq.Observer = registryObserver{s}
	if wantTrace || s.slow != nil {
		trace = sq.NewTrace()
		observer = obs.Tee(observer, trace)
	}
	if wantExplain || s.slow != nil {
		explain = sq.NewExplain()
	}
	opts.Observer = observer
	opts.Explain = explain

	s.inflight.Add(1)
	t0 := time.Now()
	s.mu.RLock()
	res := s.engine.Query(q, opts)
	s.mu.RUnlock()
	elapsed := time.Since(t0)
	s.inflight.Add(-1)

	s.queries.Inc()
	s.latency.Record(elapsed)
	if res.TimedOut {
		s.timeouts.Inc()
	}
	if res.Degraded {
		// One tick per lost shard partition, not per query: the KindShard
		// entries lead the (capped) error list by construction.
		lost := int64(0)
		for _, ge := range res.GraphErrors {
			if ge.Kind == core.KindShard {
				lost++
			}
		}
		if lost == 0 {
			lost = 1
		}
		s.degradedShards.Add(lost)
	}
	if res.GraphErrorsTruncated > 0 {
		s.errsTruncated.Add(int64(res.GraphErrorsTruncated))
	}

	var traceSnap *obs.TraceSnapshot
	if trace != nil {
		snap := trace.Snapshot()
		traceSnap = &snap
	}

	// One wide event per executed query — built before the error path can
	// return, so failures are exactly the queries the export never loses.
	ev := telemetry.Event{
		TimeUnixMS:    t0.UnixMilli(),
		Fingerprint:   res.Fingerprint,
		Engine:        s.engine.Name(),
		QueryVertices: q.NumVertices(),
		QueryEdges:    q.NumEdges(),
		Verdict:       verdict,
		DurationUS:    elapsed.Microseconds(),
		FilterUS:      res.FilterTime.Microseconds(),
		VerifyUS:      res.VerifyTime.Microseconds(),
		Candidates:    res.Candidates,
		Answers:       len(res.Answers),
		Skipped:       res.Skipped,
		TimedOut:      res.TimedOut,
		Cancelled:     res.Cancelled,
		Error:         res.Err != nil,
		CacheHit:      res.Cache != "",
	}
	for _, ge := range res.GraphErrors {
		switch ge.Kind {
		case core.KindPanic:
			ev.Panics++
		case core.KindBudget:
			ev.Budget++
		}
	}
	if res.Err != nil && res.Err.Kind == core.KindPanic {
		ev.Panics++
	}
	s.profile.Record(ev)
	s.exporter.Emit(ev)
	if rec != nil {
		rec.verdict = verdict
		rec.skipped = res.Skipped
	}
	if ev.Panics > 0 {
		s.events.Offer(telemetry.DebugEvent{
			Kind:        "query_panic",
			Fingerprint: res.Fingerprint,
			Engine:      s.engine.Name(),
			Message:     fmt.Sprintf("%d panic(s) recovered during query", ev.Panics),
		})
	}

	if res.Err != nil {
		// The query itself failed (panic recovered at the engine boundary
		// outside any per-graph section): structured 500, process intact.
		s.log.Error("query failed", "engine", s.engine.Name(), "err", res.Err.Error())
		writeJSONStatus(w, http.StatusInternalServerError, map[string]any{"error": res.Err})
		return
	}

	resp := queryResponse{
		Answers:              append([]int{}, res.Answers...),
		Candidates:           res.Candidates,
		FilterUS:             res.FilterTime.Microseconds(),
		VerifyUS:             res.VerifyTime.Microseconds(),
		TimedOut:             res.TimedOut,
		Cancelled:            res.Cancelled,
		Skipped:              res.Skipped,
		GraphErrors:          res.GraphErrors,
		Degraded:             res.Degraded,
		GraphErrorsTruncated: res.GraphErrorsTruncated,
		Engine:               s.engine.Name(),
		InflightID:           h.ID(),
	}
	var explainSnap *obs.ExplainSnapshot
	if explain != nil {
		snap := explain.Snapshot()
		explainSnap = &snap
	}
	if wantTrace {
		resp.Trace = traceSnap
	}
	if wantExplain {
		resp.Explain = explainSnap
	}
	if s.slow != nil {
		s.slow.Offer(obs.SlowQuery{
			Time:        t0,
			DurationUS:  elapsed.Microseconds(),
			Engine:      s.engine.Name(),
			Query:       fmt.Sprintf("%dv/%de", q.NumVertices(), q.NumEdges()),
			Fingerprint: res.Fingerprint.String(),
			Answers:     len(res.Answers),
			Candidates:  res.Candidates,
			TimedOut:    res.TimedOut,
			Trace:       traceSnap,
			Explain:     explainSnap,
		})
	}
	writeJSON(w, resp)
}

// recordShed folds a query bounced by admission control into the workload
// telemetry: the wide event (always anomalous, so the exporter keeps it),
// the heavy-hitter profile, the /debug/events ring and the request log
// annotations. The query never executed, so the event carries no phase
// times or answer counts.
func (s *server) recordShed(rec *statusRecorder, q *sq.Graph, fp sq.Fingerprint, verdict string, status int) {
	if rec != nil {
		rec.verdict = verdict
	}
	ev := telemetry.Event{
		TimeUnixMS:    time.Now().UnixMilli(),
		Fingerprint:   fp,
		Engine:        s.engine.Name(),
		QueryVertices: q.NumVertices(),
		QueryEdges:    q.NumEdges(),
		Verdict:       verdict,
	}
	s.profile.Record(ev)
	s.exporter.Emit(ev)
	s.events.Offer(telemetry.DebugEvent{
		Kind:        verdict,
		Fingerprint: fp,
		Engine:      s.engine.Name(),
		Status:      status,
		Message:     "admission control: " + verdict,
	})
}

// handleTop serves the workload profile: the top-K query shapes by count,
// each with its space-saving error bound, failure tallies and latency
// quantiles. ?k=N overrides the row count; ?format=text renders the
// aligned table sqtop shows.
func (s *server) handleTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	k := s.topK
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	events := s.events.Snapshot()
	if events == nil {
		events = []telemetry.DebugEvent{}
	}
	writeJSON(w, map[string]any{
		"total":  s.events.Total(),
		"events": events,
	})
}

// handleInflight lists the queries executing right now, oldest first —
// the answer to "what is this server doing at this moment". JSON by
// default; ?format=text renders the aligned table sqwatch shows.
func (s *server) handleInflight(w http.ResponseWriter, r *http.Request) {
	snaps := s.live.Snapshot()
	if snaps == nil {
		snaps = []inflight.HandleSnapshot{}
	}
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
// query by handle id: the engine observes the closed channel at its next
// budget checkpoint and returns a cancelled result to its own client.
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
	s.events.Offer(telemetry.DebugEvent{
		Kind:    "remote_cancel",
		Message: fmt.Sprintf("cancellation delivered to in-flight query %d", id),
	})
	s.log.Info("remote cancel delivered", "id", id)
	writeJSON(w, map[string]any{"cancelled": true, "id": id})
}

// handleSlowLog dumps the slow-query ring, newest first, with each retained
// query's Trace and Explain.
func (s *server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.slow == nil {
		http.Error(w, "slow-query log disabled", http.StatusNotFound)
		return
	}
	writeJSON(w, s.slow.Snapshot())
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a data graph in the text format", http.StatusMethodNotAllowed)
		return
	}
	g, err := sq.ReadGraph(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("parsing graph: %v", err), http.StatusBadRequest)
		return
	}
	u, ok := s.engine.(core.Updatable)
	if !ok {
		http.Error(w, "engine does not support appends; restart with a vcFV engine", http.StatusConflict)
		return
	}
	s.mu.Lock()
	id, err := u.AppendGraph(g)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.appends.Inc()
	s.invalidateStats()
	writeJSON(w, map[string]int{"id": id})
}

func (s *server) invalidateStats() {
	s.statsMu.Lock()
	s.statsCache = nil
	s.statsMu.Unlock()
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.statsMu.Lock()
	cached := s.statsCache
	s.statsMu.Unlock()
	if cached == nil {
		s.mu.RLock()
		stats := s.db.ComputeStats()
		mem := s.db.MemoryFootprint()
		idx := s.engine.IndexMemory()
		s.mu.RUnlock()
		cached = map[string]any{
			"graphs":             stats.NumGraphs,
			"labels":             stats.NumLabels,
			"vertices_per_graph": stats.VerticesPerGraph,
			"edges_per_graph":    stats.EdgesPerGraph,
			"degree_per_graph":   stats.DegreePerGraph,
			"dataset_bytes":      mem,
			"index_bytes":        idx,
			"engine":             s.engine.Name(),
		}
		s.statsMu.Lock()
		s.statsCache = cached
		s.statsMu.Unlock()
	}
	writeJSON(w, cached)
}

// handleMetrics dumps the telemetry registry: per-engine query counts,
// latency histograms with p50/p90/p99, timeout and cache counters, and
// the in-flight gauge. ?format=prom switches to the Prometheus text
// exposition (histograms in seconds with cumulative buckets).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.adm != nil {
		s.queueDepth.Set(s.adm.depth())
	}
	// Scrape-time gauges for the workload-telemetry components (refreshing
	// at snapshot keeps their hot paths free of registry traffic).
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
		// The workload's top shapes, inlined so one scrape answers "what is
		// running and is it healthy" (full detail at /debug/top).
		"workload_top": s.profile.Snapshot(5).Top,
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
