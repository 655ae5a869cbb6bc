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
//	               ?format=text renders an aligned table
//	POST /debug/inflight/{id}/cancel  deliver cooperative cancellation to
//	               one live query; its own client gets a cancelled result
//	GET  /healthz  readiness probe: 200 "ok", or 503 "shedding" while
//	               admission control is saturated
//
// Every query is one record (record.go), and every channel above is a view
// of it: fingerprinted into the heavy-hitter profile behind /debug/top and,
// with -export, streamed as one wide event to an NDJSON file or HTTP
// collector, tail-sampled (anything but a clean, complete answer is always
// exported, healthy queries at -export-sample). DESIGN.md §Live inspection
// has the curl, watch and jq recipes that read these views.
//
// Admission control bounds executing queries (-max-inflight) with a bounded
// wait queue (-max-queue, -queue-wait) and sheds the excess with 429 +
// Retry-After, widened by 0..2 seconds so a shed herd does not return in
// one spike. Budgets (-budget, -mem-budget) cancel cooperatively
// inside the engines; an engine panic becomes a structured error response.
//
// With -shards N the engine runs behind a scatter-gather coordinator over N
// rendezvous-hash partitions (-shard-replicas): per-shard failures are
// retried, hedged against replicas after an adaptive p99 delay, and
// finally degraded into a partial result with
// "degraded":true and KindShard graph errors naming the lost partition.
//
// Every executing query holds a handle in the in-flight registry
// (/debug/inflight). A watchdog scans it every -watchdog-interval
// and flags queries older than 5 × the rolling p99 latency (never before
// -watchdog-floor): one stack dump in the log, one always-exported wide
// event, one /debug/events entry. SIGINT/SIGTERM drains: up to 30s for
// in-flight queries, then they are cancelled through the registry and
// unwind with cancelled results. -debug-addr serves net/http/pprof on its
// own listener, off the public address on purpose.
//
// Usage:
//
//	sqserver -db db.graph [-addr :8080] [-engine CFQL] [-cache 256]
//	         [-shards 4] [-shard-replicas 2]
//	         [-budget 10m] [-mem-budget 268435456]
//	         [-max-inflight 16] [-max-queue 64] [-queue-wait 1s]
//	         [-slowlog-threshold 100ms]
//	         [-export events.ndjson] [-export-sample 0.01]
//	         [-watchdog-interval 2s] [-watchdog-floor 5s]
//	         [-debug-addr :6060]
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
	cache := flag.Int("cache", core.DefaultCacheEntries,
		"result cache entries (0 disables); a full cache stores a new answer set only for a query asked for more often than its least-recently-used entry")
	shards := flag.Int("shards", 0,
		"partition the database across N engine shards behind a scatter-gather coordinator (0 = single engine)")
	shardReplicas := flag.Int("shard-replicas", 1,
		"replicas per shard; hedged duplicate requests need >= 2")
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
	debugAddr := flag.String("debug-addr", "", "pprof debug listen address (empty disables)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

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
			Shards:   *shards,
			Replicas: *shardReplicas,
			BaseName: engine.Name(),
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
		shutdown(hs, srv, drainWait, 5*time.Second, logger)
		logger.Info("bye")
	}
}

// drainWait is how long shutdown lets in-flight queries finish on their
// own before cancelling them.
const drainWait = 30 * time.Second

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
	logger.Info("debug server listening", "addr", addr)
	if err := http.ListenAndServe(addr, debugMux()); err != nil {
		logger.Error("debug server failed", "err", err)
	}
}

// debugMux routes the net/http/pprof handlers.
func debugMux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}
