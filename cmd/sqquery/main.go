// sqquery runs a subgraph query workload against a graph database with a
// chosen engine and reports per-query answers and the paper's metrics.
//
// Usage:
//
//	sqquery -db db.graph -queries q8s.graph -engine CFQL [-budget 10m] [-v]
//	sqquery -db db.graph -queries q8s.graph -explain   # per-query EXPLAIN
//	sqquery -db db.graph -queries q8s.graph -trace     # phase spans + slow SI tests
//	sqquery -db db.graph -queries q8s.graph -progress  # live per-query progress on stderr
//
// Engines: CT-Index, Grapes, GGSX (IFV); CFL, GraphQL, CFQL (vcFV);
// vcGrapes, vcGGSX (IvcFV); Scan-VF2 (no filtering).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/core"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/obs"
)

func main() {
	opts := runOptions{}
	flag.StringVar(&opts.DBPath, "db", "db.graph", "database file")
	flag.StringVar(&opts.QueryPath, "queries", "", "query workload file (required)")
	flag.StringVar(&opts.Engine, "engine", "CFQL", "engine name")
	flag.DurationVar(&opts.Budget, "budget", 10*time.Minute, "per-query time budget")
	flag.DurationVar(&opts.IndexBudget, "index-budget", 24*time.Hour, "index construction budget")
	flag.IntVar(&opts.Workers, "workers", 6, "index build and verification workers for the Grapes engines")
	flag.BoolVar(&opts.Verbose, "v", false, "print per-query results")
	flag.BoolVar(&opts.Explain, "explain", false,
		"print a per-query EXPLAIN report: filter-stage candidate counts, index probe stats, matching order")
	flag.BoolVar(&opts.Trace, "trace", false,
		"print per-query phase spans and the slowest subgraph isomorphism tests")
	flag.BoolVar(&opts.Progress, "progress", false,
		"report live phase and graphs-done progress per query on stderr while it runs")
	flag.Parse()

	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "sqquery:", err)
		os.Exit(1)
	}
}

// runOptions carries every knob of one sqquery invocation; the flag set in
// main populates it, tests construct it directly.
type runOptions struct {
	DBPath      string
	QueryPath   string
	Engine      string
	Budget      time.Duration
	IndexBudget time.Duration
	Workers     int
	Verbose     bool
	Explain     bool
	Trace       bool
	Progress    bool

	// Out receives the report; nil selects os.Stdout. Err receives the
	// -progress live line; nil selects os.Stderr.
	Out io.Writer
	Err io.Writer
}

func run(opts runOptions) error {
	out := opts.Out
	if out == nil {
		out = os.Stdout
	}
	if opts.QueryPath == "" {
		return fmt.Errorf("-queries is required")
	}
	db, err := readDB(opts.DBPath)
	if err != nil {
		return fmt.Errorf("reading database: %w", err)
	}
	queryDB, err := readDB(opts.QueryPath)
	if err != nil {
		return fmt.Errorf("reading queries: %w", err)
	}

	engine, err := bench.NewEngine(opts.Engine)
	if err != nil {
		return err
	}
	// Only the pooled (Grapes) engines build on -workers; GGSX builds
	// sequentially, as in the paper harness.
	buildWorkers := 1
	if bench.IsPooled(opts.Engine) {
		buildWorkers = opts.Workers
	}
	t0 := time.Now()
	err = engine.Build(db, core.BuildOptions{
		Deadline: time.Now().Add(opts.IndexBudget),
		Workers:  buildWorkers,
	})
	if err != nil {
		return fmt.Errorf("index construction: %w", err)
	}
	buildTime := time.Since(t0)
	if bench.IsIndexed(opts.Engine) {
		fmt.Fprintf(out, "index built in %v (%.2f MB)\n", buildTime.Round(time.Millisecond),
			float64(engine.IndexMemory())/(1<<20))
	}

	perQuery := opts.Verbose || opts.Explain || opts.Trace
	// -progress registers each query in a private in-flight registry, as
	// the server does, and polls its snapshot onto stderr while the engine
	// runs.
	var reg *inflight.Registry
	if opts.Progress {
		reg = inflight.NewRegistry(4)
	}
	errw := opts.Err
	if errw == nil {
		errw = os.Stderr
	}
	var filter, verify time.Duration
	var cands, answers, timeouts int
	for i := 0; i < queryDB.Len(); i++ {
		q := queryDB.Graph(i)
		ctx, cancel := context.WithTimeout(context.Background(), opts.Budget)
		qopts := core.QueryOptions{
			Context: ctx,
			Workers: opts.Workers,
		}
		var ex *obs.Explain
		if opts.Explain {
			ex = obs.NewExplain()
			qopts.Explain = ex
		}
		var trace *obs.Trace
		if opts.Trace {
			trace = obs.NewTrace()
			qopts.Observer = trace
		}
		stopProgress := func() {}
		if opts.Progress {
			qopts.Handle = reg.Register(inflight.RegisterOptions{Engine: engine.Name()})
			stopProgress = watchProgress(errw, reg, i)
		}
		res := engine.Query(q, qopts)
		stopProgress()
		reg.Deregister(qopts.Handle)
		cancel()
		filter += res.FilterTime
		verify += res.VerifyTime
		cands += res.Candidates
		answers += len(res.Answers)
		if res.TimedOut {
			timeouts++
		}
		if perQuery {
			status := ""
			if res.TimedOut {
				status = " TIMEOUT"
			}
			// The fingerprint lets a slow line here be matched against
			// /debug/top, the wide-event export and BENCH_*.json shape breakdowns.
			fmt.Fprintf(out, "query %3d: fp=%s |C|=%d |A|=%d filter=%v verify=%v%s\n",
				i, res.Fingerprint, res.Candidates, len(res.Answers),
				res.FilterTime.Round(time.Microsecond), res.VerifyTime.Round(time.Microsecond), status)
		}
		if ex != nil {
			ex.Snapshot().WriteText(out)
		}
		if trace != nil {
			writeTraceText(out, res.TraceSnapshot(trace))
		}
	}
	n := queryDB.Len()
	fmt.Fprintf(out, "\nengine %s on %d queries over %d data graphs:\n", opts.Engine, n, db.Len())
	fmt.Fprintf(out, "  avg filter time   %v\n", (filter / time.Duration(n)).Round(time.Microsecond))
	fmt.Fprintf(out, "  avg verify time   %v\n", (verify / time.Duration(n)).Round(time.Microsecond))
	fmt.Fprintf(out, "  avg candidates    %.1f\n", float64(cands)/float64(n))
	fmt.Fprintf(out, "  avg answers       %.1f\n", float64(answers)/float64(n))
	if cands > 0 {
		fmt.Fprintf(out, "  filtering precision %.3f\n", float64(answers)/float64(cands))
	}
	fmt.Fprintf(out, "  timeouts          %d\n", timeouts)
	return nil
}

// progressPeriod is how often -progress redraws the live line (a var so
// tests can tighten it against fast queries).
var progressPeriod = 200 * time.Millisecond

// watchProgress polls the registry while query qi runs, redrawing one
// stderr line in place (phase, graphs done/total, candidates, answers,
// enumeration steps). The returned stop function clears the line and
// waits for the poller to exit.
func watchProgress(w io.Writer, reg *inflight.Registry, qi int) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(progressPeriod)
		defer t.Stop()
		drew := false
		for {
			select {
			case <-done:
				if drew {
					fmt.Fprintf(w, "\r\x1b[2K") // clear the live line
				}
				return
			case <-t.C:
				snaps := reg.Snapshot()
				if len(snaps) == 0 {
					continue // engine not yet registered, or already done
				}
				s := snaps[0]
				total := fmt.Sprintf("%d", s.GraphsTotal)
				if s.GraphsTotal == 0 {
					total = "?"
				}
				fmt.Fprintf(w, "\r\x1b[2Kquery %d: %s graphs=%d/%s cand=%d ans=%d steps=%d",
					qi, s.Phase, s.GraphsDone, total, s.Candidates, s.Answers, s.Steps)
				drew = true
			}
		}
	}()
	return func() { close(done); <-finished }
}

// maxTraceSlowest bounds the slowest-SI-test listing of -trace.
const maxTraceSlowest = 5

// writeTraceText renders a trace snapshot: phase spans in emission order,
// then the slowest subgraph isomorphism tests — the stragglers the paper's
// per-set means hide.
func writeTraceText(w io.Writer, s obs.TraceSnapshot) {
	fmt.Fprintf(w, "TRACE")
	for _, sp := range s.Phases {
		fmt.Fprintf(w, " %s=%v", sp.Name, (time.Duration(sp.DurationUS) * time.Microsecond).Round(time.Microsecond))
	}
	if s.Workers > 0 {
		fmt.Fprintf(w, " workers=%d", s.Workers)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(w, " cache=%dh/%dm", s.CacheHits, s.CacheMisses)
	}
	fmt.Fprintln(w)
	if len(s.Verifications) == 0 {
		return
	}
	events := append([]obs.VerifyEvent(nil), s.Verifications...)
	sort.Slice(events, func(i, j int) bool { return events[i].DurationUS > events[j].DurationUS })
	if len(events) > maxTraceSlowest {
		events = events[:maxTraceSlowest]
	}
	fmt.Fprintf(w, "  slowest SI tests (%d of %d", len(events), s.VerificationsTotal)
	if s.Truncated {
		fmt.Fprintf(w, ", trace truncated: %d dropped", s.VerificationsDropped)
	}
	fmt.Fprintf(w, "):")
	for _, ev := range events {
		outcome := "miss"
		if ev.Found {
			outcome = "hit"
		}
		fmt.Fprintf(w, " g%d=%v/%dsteps/%s", ev.Graph,
			(time.Duration(ev.DurationUS) * time.Microsecond).Round(time.Microsecond), ev.Steps, outcome)
	}
	fmt.Fprintln(w)
}

func readDB(path string) (*sq.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sq.ReadDatabase(f)
}
