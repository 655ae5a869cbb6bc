// sqserver exposes a graph database over HTTP: the "query operation in a
// graph database" setting the paper's introduction motivates (CAD, protein
// interaction retrieval, social networks, RDF). The index-free CFQL engine
// (optionally behind the GraphCache-style result cache) answers queries;
// new data graphs can be appended at runtime with no index maintenance.
//
// Endpoints:
//
//	POST /query    body: one graph in the text format -> JSON answer;
//	               append ?trace=1 to inline the per-query phase/verify trace,
//	               ?explain=1 to inline the EXPLAIN report (filter-stage
//	               candidate counts, index probe stats, matching order)
//	POST /graphs   body: one graph in the text format -> JSON {"id": n}
//	GET  /stats    JSON database statistics (cached; invalidated on append)
//	GET  /metrics  JSON telemetry registry: query counts, p50/p90/p99
//	               latency histograms, timeouts, cache hits, in-flight gauge;
//	               ?format=prom switches to the Prometheus text exposition
//	GET  /debug/slowlog  JSON ring of the 64 most recent slow queries (latency
//	               over -slowlog-threshold): each entry is the query's record
//	               (the wide-event fields) and its query_text; POST that back
//	               with ?trace=1&explain=1 for the full Trace and Explain
//	GET  /debug/top      workload profile: top query shapes by fingerprint
//	               with counts, error bounds, failure tallies and latency
//	               quantiles; ?k=N bounds rows, ?format=text renders a table
//	GET  /debug/events   ring of the 128 most recent operational incidents:
//	               admission sheds (429/408), recovered panics and watchdog
//	               flags, newest first
//	GET  /debug/inflight the queries executing right now, oldest first,
//	               each with phase, graphs done/total, candidates, answers,
//	               enumeration steps and memory high-water mark;
//	               ?format=text renders the table `sqwatch` shows
//	POST /debug/inflight/{id}/cancel  deliver cooperative cancellation to
//	               one live query; its own client gets a cancelled result
//	GET  /healthz  readiness probe: 200 "ok", or 503 "shedding" while
//	               admission control is saturated
//
// Every query is one record (record.go), and every channel above is a view
// of it: fingerprinted into the heavy-hitter profile behind /debug/top and,
// with -export, streamed as one wide event to an NDJSON file or HTTP
// collector, tail-sampled (anything but a clean, complete answer is always
// exported, healthy queries at -export-sample; `sqtop` renders either).
//
// Admission control bounds executing queries (-max-inflight) with a bounded
// wait queue (-max-queue, -queue-wait) and sheds the excess with 429 +
// Retry-After, widened by 0..-retry-jitter seconds so a shed herd does not
// return in one spike. Budgets (-budget, -mem-budget) cancel cooperatively
// inside the engines; an engine panic becomes a structured error response.
//
// With -shards N the engine runs behind a scatter-gather coordinator over N
// rendezvous-hash partitions (-shard-replicas): per-shard failures are
// retried, hedged against replicas after an adaptive p99 delay
// (-hedge-after), and finally degraded into a partial result with
// "degraded":true and KindShard graph errors naming the lost partition.
//
// Every executing query holds a handle in the in-flight registry
// (/debug/inflight, `sqwatch`). A watchdog scans it every -watchdog-interval
// and flags queries older than 5 × the rolling p99 latency (never before
// -watchdog-floor): one stack dump in the log, one always-exported wide
// event, one /debug/events entry. SIGINT/SIGTERM drains: up to -drain-wait
// for in-flight queries, then they are cancelled through the registry and
// unwind with cancelled results. -debug-addr serves net/http/pprof on its
// own listener, off the public address on purpose.
//
// Usage:
//
//	sqserver -db db.graph [-addr :8080] [-engine CFQL] [-cache 64]
//	         [-shards 4] [-shard-replicas 2]
//	         [-shard-concurrency 0] [-hedge-after 0]
//	         [-budget 10m] [-mem-budget 268435456]
//	         [-max-inflight 16] [-max-queue 64] [-queue-wait 1s] [-retry-jitter 2]
//	         [-slowlog-threshold 100ms]
//	         [-export events.ndjson] [-export-sample 0.01]
//	         [-watchdog-interval 2s] [-watchdog-floor 5s]
//	         [-drain-wait 30s] [-debug-addr :6060] [-log-json]
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
)

func main() {
	dbPath := flag.String("db", "db.graph", "database file")
	addr := flag.String("addr", ":8080", "listen address")
	engineName := flag.String("engine", "CFQL", "query engine")
	cache := flag.Int("cache", 64, "result cache entries, replaced least-recently-used (0 disables)")
	shards := flag.Int("shards", 0,
		"partition the database across N engine shards behind a scatter-gather coordinator (0 = single engine)")
	shardReplicas := flag.Int("shard-replicas", 1,
		"replicas per shard; hedged duplicate requests need >= 2")
	shardConcurrency := flag.Int("shard-concurrency", 0,
		"max concurrent queries executing inside one shard (0 = unbounded)")
	hedgeAfter := flag.Duration("hedge-after", 0,
		"hedged-request delay (0 = adaptive per-shard p99, negative disables hedging)")
	retryJitter := flag.Int("retry-jitter", 2,
		"widen the 429 Retry-After hint by a uniform 0..N seconds (0 = deterministic)")
	budget := flag.Duration("budget", 0, "per-query budget (0 = none)")
	memBudget := flag.Int64("mem-budget", 0,
		"per-query candidate-structure memory budget in bytes (0 = none)")
	maxInflight := flag.Int("max-inflight", 0,
		"max concurrently executing queries; 0 = 2x GOMAXPROCS, negative disables admission control")
	maxQueue := flag.Int("max-queue", 64,
		"max requests waiting for a query slot before shedding with 429")
	queueWait := flag.Duration("queue-wait", time.Second,
		"max time a request may wait for a query slot before shedding")
	slowThreshold := flag.Duration("slowlog-threshold", 100*time.Millisecond,
		"slow-query log latency threshold (0 retains every query, negative disables the log)")
	exportDest := flag.String("export", "",
		"wide-event NDJSON destination: file path or http(s):// URL (empty disables export)")
	exportSample := flag.Float64("export-sample", 0.01,
		"fraction of healthy queries exported (anomalous queries always export)")
	wdInterval := flag.Duration("watchdog-interval", 0,
		"stuck-query watchdog scan period (0 selects 2s, negative disables); a query is stuck past 5x the rolling p99")
	wdFloor := flag.Duration("watchdog-floor", 0,
		"minimum age before the watchdog flags any query (0 selects 5s)")
	drainWait := flag.Duration("drain-wait", 30*time.Second,
		"graceful-shutdown drain deadline; queries still running after it are cancelled")
	debugAddr := flag.String("debug-addr", "", "pprof debug listen address (empty disables)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	f, err := os.Open(*dbPath)
	if err != nil {
		logger.Error("opening database", "err", err)
		os.Exit(1)
	}
	db, err := sq.ReadDatabase(f)
	f.Close()
	if err != nil {
		logger.Error("reading database", "err", err)
		os.Exit(1)
	}

	engine, err := bench.NewEngine(*engineName)
	if err != nil {
		logger.Error("creating engine", "err", err)
		os.Exit(1)
	}
	if *shards > 0 {
		// The coordinator owns one engine instance per shard replica; the
		// factory re-resolves the already-validated engine name.
		coord, cerr := cluster.New(cluster.Config{
			Shards:           *shards,
			Replicas:         *shardReplicas,
			BaseName:         engine.Name(),
			ShardConcurrency: *shardConcurrency,
			HedgeAfter:       *hedgeAfter,
			Factory: func() core.Engine {
				e, ferr := bench.NewEngine(*engineName)
				if ferr != nil {
					panic(ferr) // unreachable: the name parsed above
				}
				return e
			},
		})
		if cerr != nil {
			logger.Error("creating coordinator", "err", cerr)
			os.Exit(1)
		}
		engine = coord
	}
	inflight := *maxInflight
	switch {
	case inflight == 0:
		inflight = 2 * runtime.GOMAXPROCS(0)
	case inflight < 0:
		inflight = 0 // disables admission control in newAdmission
	}
	srv, err := newServer(db, engine, serverConfig{
		cacheEntries:     *cache,
		budget:           *budget,
		memBudget:        *memBudget,
		maxInflight:      inflight,
		maxQueue:         *maxQueue,
		queueWait:        *queueWait,
		retryJitter:      *retryJitter,
		slowThreshold:    *slowThreshold,
		exportDest:       *exportDest,
		exportSample:     *exportSample,
		watchdogInterval: *wdInterval,
		watchdogFloor:    *wdFloor,
	}, logger)
	if err != nil {
		logger.Error("building engine", "err", err)
		os.Exit(1)
	}

	// The write timeout must outlast the slowest allowed query; with no
	// budget the query itself is unbounded, so the timeout is disabled.
	var writeTimeout time.Duration
	if *budget > 0 {
		writeTimeout = *budget + 30*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadTimeout:       time.Minute,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr, logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "graphs", db.Len(), "engine", srv.engine.Name(),
		"cache", *cache, "budget", budget.String())

	select {
	case err := <-errc:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("shutting down, draining in-flight queries")
		shutdown(hs, srv, *drainWait, 5*time.Second, logger)
		logger.Info("bye")
	}
}

// shutdown drains the server gracefully, in stages: Shutdown waits up to
// the drain deadline for in-flight requests to finish on their own; any
// query still running then receives cooperative cancellation through the
// live registry (it unwinds with a cancelled result instead of being cut
// off mid-connection) and gets a short grace period to do so; only then
// is the listener force-closed. The watchdog stops and buffered wide
// events flush last, after every query has written its event.
func shutdown(hs *http.Server, srv *server, drain, grace time.Duration, logger *slog.Logger) {
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		n := srv.live.CancelAll()
		logger.Warn("drain deadline exceeded, cancelling in-flight queries",
			"cancelled", n, "err", err)
		gCtx, gCancel := context.WithTimeout(context.Background(), grace)
		defer gCancel()
		if err := hs.Shutdown(gCtx); err != nil {
			logger.Error("cancelled queries did not unwind in time, closing", "err", err)
			hs.Close()
		}
	}
	if err := srv.Close(); err != nil {
		logger.Error("closing wide-event exporter", "err", err)
	}
}

// serveDebug exposes net/http/pprof on its own mux and address, so
// profiling never rides on the public listener.
func serveDebug(addr string, logger *slog.Logger) {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("debug server listening", "addr", addr)
	if err := http.ListenAndServe(addr, m); err != nil {
		logger.Error("debug server failed", "err", err)
	}
}
