// The benchmark of this repository: a served-path load benchmark. For each
// workload it makes the inputs from the seed, answers every query with an
// oracle engine, starts a real sqserver process, drives it over HTTP with
// two keep-alive connections (a closed loop, then an open loop at a fixed
// rate), checks every answer, and prints every metric BENCHMARK.json names.
// With -trace 1 it also replays the workload's queries in-process with a
// timer around every layer call and reports the per-layer metrics.
//
//	go run ./benchmark -seed 1                       all workloads, end-to-end metrics
//	go run ./benchmark -trace 1 -seed 1              all workloads, per-layer metrics
//	go run ./benchmark -workload syn-enum -seed 2    one workload
//	go run ./benchmark -seed 1 -runs 10 -report a.json   a set of runs: seeds 1..10
//	go run ./benchmark -compare a.json b.json        two reports side by side
//
// See benchmark/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all of them, one after the other)")
	seed := flag.Int64("seed", 1, "seed all inputs are made from")
	seconds := flag.Int("seconds", 0, "measured seconds per run, split between the closed and the rate phase (default: run_seconds of BENCHMARK.json)")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...: a set of runs for -compare")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory (under the checkout root) for the built server, run files, traces and the report")
	reportPath := flag.String("report", "", "report file (default: <out>/report.json)")
	compare := flag.Bool("compare", false, "compare two report files given as arguments")
	flag.Parse()

	if err := run(*workloadName, *seed, *runs, *seconds, *trace == 1, *out, *reportPath, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, runs, seconds int, trace bool, out, reportPath string, compare bool, args []string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	s, err := readSpec(root)
	if err != nil {
		return err
	}
	if compare {
		return compareFiles(s, args)
	}

	selected := workloads
	if workloadName != "" {
		w, ok := findWorkload(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []workload{w}
	}
	if seconds <= 0 {
		seconds = s.RunSeconds
	}
	outDir := filepath.Join(root, out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if reportPath == "" {
		reportPath = filepath.Join(outDir, "report.json")
	}
	bin, err := buildServer(root, outDir)
	if err != nil {
		return err
	}

	rep := report{Schema: reportSchema}
	listed := s.EndToEnd
	if trace {
		listed = s.PerLayer
	}
	bad := false
	for i := 0; i < runs; i++ {
		for _, w := range selected {
			rr, err := runWorkload(context.Background(), w, runConfig{
				seed: seed + int64(i), seconds: seconds, trace: trace, scale: 1, serverBin: bin, outDir: outDir,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if rr.Metrics, err = selectMetrics(listed, rr.Metrics); err != nil {
				return err
			}
			printRun(os.Stdout, listed, *rr)
			rep.Runs = append(rep.Runs, *rr)
			bad = bad || !rr.Correct
		}
	}
	if err := writeReport(reportPath, rep); err != nil {
		return err
	}
	// The last line of standard output is the result of the (last) run.
	last := rep.Runs[len(rep.Runs)-1].result
	plain := make(map[string]measured, len(last.Metrics))
	for name, v := range last.Metrics {
		plain[name] = measured{Value: v.Value, Unit: v.Unit} // exactly value and unit
	}
	last.Metrics = plain
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Printf("\nreport: %s\n%s\n", reportPath, line)
	if bad {
		return fmt.Errorf("failed operations or self-checks; see the report")
	}
	return nil
}

func compareFiles(s *spec, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two report files")
	}
	a, err := readReport(paths[0])
	if err != nil {
		return err
	}
	b, err := readReport(paths[1])
	if err != nil {
		return err
	}
	if n := compareReports(os.Stdout, s, a, b); n > 0 {
		return fmt.Errorf("%d metrics regressed", n)
	}
	return nil
}

// Set-up time is one sample per server start, so a run starts the server
// several times and reports the median: at least minSetups, and more while
// the starts are quick, up to maxSetups.
const (
	minSetups      = 3
	maxSetups      = 8
	setupTimeAimed = 2.0 // seconds of summed set-up time worth spending
)

// warmup is the closed-loop time before the timed phases, discarded.
const warmup = time.Second

// window is the slice of a phase each metric is computed over before the
// run reports the best of the slices (see quietest).
const window = time.Second

type runConfig struct {
	seed      int64
	seconds   int
	trace     bool
	scale     float64 // 1 = benchmark size; the smoke test shrinks it
	serverBin string
	outDir    string
}

// phase is what one timed phase leaves: the samples, ordered by completion,
// and the server's CPU at each window boundary.
type phase struct {
	samples []sample
	ticks   []cpuTick
}

// runWorkload is one run of one workload, end to end.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*runReport, error) {
	in, err := w.generate(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	dbPath := filepath.Join(runDir, "db.graph")
	if err := os.WriteFile(dbPath, in.dbBytes, 0o644); err != nil {
		return nil, err
	}
	logPath := filepath.Join(runDir, "sqserver.log")
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	// Set-up: start the server several times, keep the last one running.
	var srv *server
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupTimeAimed && len(setups) < maxSetups); {
		if srv != nil {
			srv.stop()
		}
		if srv, err = startServer(cfg.serverBin, dbPath, logPath, w.serverFlags, client); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setupSeconds)
		spent += srv.setupSeconds
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	gen := &generator{client: client, base: srv.base, in: in}
	length := time.Duration(cfg.seconds) * time.Second / 2
	warm := gen.runClosed(ctx, warmup)

	before, err := srv.scrape(ctx, client)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	var closed, rate phase
	stopWatch := watchCPU(pid, window)
	closed.samples = gen.runClosed(ctx, length)
	closed.ticks = stopWatch()
	stopWatch = watchCPU(pid, window)
	rate.samples = gen.runRate(ctx, w.rate, length)
	rate.ticks = stopWatch()
	self1 := selfCPUSeconds()
	after, err := srv.scrape(ctx, client)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	if err := srv.alive(); err != nil {
		return nil, fmt.Errorf("%w; see %s", err, logPath)
	}
	srv.stop()
	if len(closed.ticks) < 2 || len(rate.ticks) < 2 {
		return nil, fmt.Errorf("could not read the server's CPU time from /proc/%d/stat", pid)
	}

	verifyAppended(in, warm, closed.samples, rate.samples)
	rr := &runReport{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	rr.Metrics = map[string]measured{}
	for _, samples := range [][]sample{closed.samples, rate.samples} {
		for _, s := range samples {
			rr.Attempted++
			if s.ok() {
				continue
			}
			rr.Failed++
			if len(rr.Failures) < 5 {
				rr.Failures = append(rr.Failures, s.failure)
			}
		}
	}
	if rr.Failed == rr.Attempted {
		return nil, fmt.Errorf("no operation succeeded; see %s", logPath)
	}
	if lagGrowing(rate.samples) {
		rr.Failures = append(rr.Failures, fmt.Sprintf("rate phase: the generator fell further and further behind %g/s", w.rate))
	}
	rr.FailedShare = float64(rr.Failed) / float64(rr.Attempted)

	set := func(name string, v float64) { rr.Metrics[name] = measured{Value: v} }
	windowMetrics(rr.Metrics, closed, rate)
	set("setup_s", median(setups))
	set("peak_rss_mb", rss)

	if cfg.trace {
		servedLayers(rr.Metrics, closed.samples, rate.samples, before, after)
		serverCPU := (closed.ticks[len(closed.ticks)-1].cpu - closed.ticks[0].cpu) + (rate.ticks[len(rate.ticks)-1].cpu - rate.ticks[0].cpu)
		set("client.cpu_share", ratio(self1-self0, (self1-self0)+serverCPU))
		set("client.failed_share", rr.FailedShare)
		rp, err := runReplay(w, in)
		if err != nil {
			return nil, err
		}
		for name, v := range rp.metrics {
			set(name, v)
		}
		rr.SelfChecks = rp.checks
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), rp.spans); err != nil {
			return nil, err
		}
	}
	rr.Correct = rr.Failed == 0 && len(rr.Failures) == 0 && len(rr.SelfChecks) == 0
	if rr.Correct {
		// A clean run leaves nothing behind but the report and the traces;
		// a failed one keeps its server log and database for the reader.
		if err := os.RemoveAll(runDir); err != nil {
			return nil, err
		}
	}
	return rr, nil
}

// windowStat is one window of a phase: operations that completed in it,
// its length, and the server CPU it used.
type windowStat struct {
	ops          int
	seconds, cpu float64
}

// windows cuts a phase at its CPU ticks. The stub after the last boundary
// (shorter than half a window) is left out.
func (p phase) windows() []windowStat {
	var out []windowStat
	next := 0 // samples are ordered by completion
	for i := 1; i < len(p.ticks); i++ {
		ws := windowStat{seconds: p.ticks[i].at - p.ticks[i-1].at, cpu: p.ticks[i].cpu - p.ticks[i-1].cpu}
		for next < len(p.samples) && p.samples[next].done <= p.ticks[i].at {
			if p.samples[next].ok() {
				ws.ops++
			}
			next++
		}
		if ws.seconds >= window.Seconds()/2 {
			out = append(out, ws)
		}
	}
	return out
}

// quietest summarizes one metric's per-window values by the best window:
// the highest where higher is better, the lowest where lower is better.
// The machines this runs on slow memory-bound code down by up to half for
// seconds to minutes at a time (measured with a fixed 4 MB pointer chase:
// 62 ms when quiet, 90-110 ms in a burst, while an ALU loop moves by 5 %),
// and never speed it up. As with the minimum of repeated timings, the best
// window is the value that repeats from run to run: over ten runs of the
// same inputs its spread was half that of the median of windows. Min and
// max of the windows stay in the report.
func quietest(values []float64, better string) measured {
	if len(values) == 0 {
		return measured{}
	}
	lo, hi := minMax(values)
	best := lo
	if better == "higher" {
		best = hi
	}
	return measured{Value: best, Min: &lo, Max: &hi}
}

// windowMetrics fills the metrics computed per window: throughput of the
// closed phase, server CPU per successful operation over both phases, and
// the median latency of the rate phase from the due time.
func windowMetrics(m map[string]measured, closed, rate phase) {
	var rates, cpuPerOp []float64
	closedWindows := closed.windows()
	for _, ws := range closedWindows {
		rates = append(rates, float64(ws.ops)/ws.seconds)
	}
	for _, ws := range append(closedWindows, rate.windows()...) {
		if ws.ops > 0 {
			cpuPerOp = append(cpuPerOp, ws.cpu*1e3/float64(ws.ops))
		}
	}
	m["qps"] = quietest(rates, "higher")
	m["sqserver.cpu_ms_per_query"] = quietest(cpuPerOp, "lower")

	// Latency in the rate phase, from the due time, per window of due times.
	byWindow := map[int][]float64{}
	n := 0
	for _, s := range rate.samples {
		if s.ok() && s.op.kind == opQuery {
			k := int(s.due / window.Seconds())
			byWindow[k] = append(byWindow[k], s.latencyMS())
			n++
		}
	}
	var p50s []float64
	for _, latencies := range byWindow {
		p50s = append(p50s, quantile(latencies, 0.50))
	}
	p50 := quietest(p50s, "lower")
	p50.N = n
	m["client.rate_p50_ms"] = p50
}

// servedLayers fills the per-layer metrics the served run gives at no
// extra cost: the response's own fields, /metrics before and after, and
// the generator's health.
func servedLayers(m map[string]measured, closed, rate []sample, before, after metricsSnapshot) {
	set := func(name string, v float64) { m[name] = measured{Value: v} }
	var overhead, closedService, lag, appendMS []float64
	var service, filterUS, verifyUS, candidates, answers, respBytes float64
	queries := 0
	for phase, samples := range [][]sample{closed, rate} {
		for _, s := range samples {
			if phase == 1 {
				lag = append(lag, (s.sent-s.due)*1e3)
			}
			if !s.ok() {
				continue
			}
			if s.op.kind == opAppend {
				appendMS = append(appendMS, s.latencyMS())
				continue
			}
			queries++
			engineUS := float64(s.filterUS + s.verifyUS)
			overhead = append(overhead, s.serviceMS()*1e3-engineUS)
			service += s.serviceMS() * 1e3
			filterUS += float64(s.filterUS)
			verifyUS += float64(s.verifyUS)
			candidates += float64(s.candidates)
			answers += float64(s.answers)
			respBytes += float64(s.respBytes)
			if phase == 0 {
				closedService = append(closedService, s.serviceMS())
			}
		}
	}
	n := float64(queries)
	set("sqserver.overhead_p50_us", quantile(overhead, 0.50))
	set("sqserver.overhead_share", ratio(service-filterUS-verifyUS, service))
	set("sqserver.engine_filter_us", ratio(filterUS, n))
	set("sqserver.engine_verify_us", ratio(verifyUS, n))
	set("sqserver.candidates_per_query", ratio(candidates, n))
	set("sqserver.answers_per_query", ratio(answers, n))
	set("sqserver.filter_precision", ratio(answers, candidates))
	set("sqserver.resp_bytes_per_query", ratio(respBytes, n))
	set("sqserver.shed_total", float64(after.counter("queries_shed_total")-before.counter("queries_shed_total")))
	set("sqserver.timeouts_total", float64(after.counter("query_timeouts_total")-before.counter("query_timeouts_total")))
	set("sqserver.heap_inuse_mb", float64(after.Gauges["go_heap_inuse_bytes"])/(1<<20))
	set("sqserver.gc_pause_p99_us", float64(after.Gauges["go_gc_pause_p99_us"]))
	hits := float64(after.counter("cache_hits_total") - before.counter("cache_hits_total"))
	misses := float64(after.counter("cache_misses_total") - before.counter("cache_misses_total"))
	set("core.cache_hit_share", ratio(hits, hits+misses))
	var rateLatency []float64
	for _, s := range rate {
		if s.ok() && s.op.kind == opQuery {
			rateLatency = append(rateLatency, s.latencyMS())
		}
	}
	m["client.rate_p99_ms"] = measured{Value: quantile(rateLatency, 0.99), N: len(rateLatency)}
	m["client.closed_p50_ms"] = measured{Value: quantile(closedService, 0.50), N: len(closedService)}
	m["client.closed_p99_ms"] = measured{Value: quantile(closedService, 0.99), N: len(closedService)}
	m["client.sched_lag_p99_ms"] = measured{Value: quantile(lag, 0.99), N: len(lag)}
	m["append_p50_ms"] = measured{Value: quantile(appendMS, 0.50), N: len(appendMS)}
	m["append_p95_ms"] = measured{Value: quantile(appendMS, 0.95), N: len(appendMS)}
	set("client.appends", float64(len(appendMS)))
}
