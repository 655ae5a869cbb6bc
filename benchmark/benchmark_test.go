package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"subgraphquery/internal/graph"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	samples := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(samples, c.p); got != c.want {
			t.Errorf("quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 9 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestWindowsAndQuietestWindow(t *testing.T) {
	// A 4 s phase: ticks every second plus the stub when the watch stops.
	p := phase{
		ticks: []cpuTick{{0, 10}, {1, 12}, {2, 13}, {3, 15}, {4, 16}, {4.01, 16}},
		samples: []sample{
			{done: 0.1}, {done: 0.5}, {done: 0.9}, {done: 1.0}, // 4 in window 1
			{done: 1.5, failure: "x"}, {done: 1.9}, // 1 success in window 2
			{done: 2.5}, {done: 2.6}, // 2 in window 3
			{done: 3.2}, {done: 3.3}, {done: 3.9}, // 3 in window 4
			{done: 4.005}, // in the stub, left out
		},
	}
	ws := p.windows()
	want := []windowStat{{4, 1, 2}, {1, 1, 1}, {2, 1, 2}, {3, 1, 1}}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("windows = %+v, want %+v", ws, want)
	}
	values := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := quietest(values, "higher"); got.Value != 10 || *got.Min != 1 || *got.Max != 10 {
		t.Errorf("quietest(higher) = %v [%v..%v], want the best window 10 of 1..10", got.Value, *got.Min, *got.Max)
	}
	if got := quietest(values, "lower"); got.Value != 1 {
		t.Errorf("quietest(lower) = %v, want the best window 1", got.Value)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// stubInputs is a one-query workload whose oracle answer is the empty set.
func stubInputs() *inputs {
	return &inputs{
		db:      graph.NewDatabase(nil),
		bodies:  [][]byte{[]byte("t 0 1 0\nv 0 0\n")},
		answers: [][]int{{}},
		ops:     []op{{opQuery, 0}},
	}
}

// The open loop must charge a stall to the requests that were due while it
// lasted: both connections are held by the first two requests, so the ones
// due meanwhile are sent late, and their latency runs from the due time.
func TestOpenLoopTimesFromDueTimeAcrossAStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= generatorClients {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"answers":[],"candidates":0,"filter_us":1,"verify_us":1}`))
	}))
	defer srv.Close()

	client := newHTTPClient()
	defer client.CloseIdleConnections()
	g := &generator{client: client, base: srv.URL, in: stubInputs()}
	samples := g.runRate(context.Background(), 100, 600*time.Millisecond)
	if len(samples) != 60 {
		t.Fatalf("got %d samples, want the 60 the schedule holds", len(samples))
	}
	var late, slow int
	var maxLagMS float64
	for _, s := range samples {
		if !s.ok() {
			t.Fatalf("request failed: %s", s.failure)
		}
		lagMS := (s.sent - s.due) * 1e3
		maxLagMS = math.Max(maxLagMS, lagMS)
		// A request due during the stall but served quickly once sent.
		if s.due > 0.015 && s.due < 0.1 {
			late++
			if s.latencyMS() > 150 && s.serviceMS() < 100 {
				slow++
			}
		}
	}
	if late == 0 || slow != late {
		t.Errorf("%d of %d requests due during the stall carry its wait in their latency", slow, late)
	}
	if maxLagMS < 150 {
		t.Errorf("generator reported a maximum lag of %.0f ms across a %v stall", maxLagMS, stall)
	}
	if lagGrowing(samples) {
		t.Error("a stall the generator recovered from was reported as a growing backlog")
	}
}

func TestLagGrowing(t *testing.T) {
	var behind []sample
	for i := 0; i < 100; i++ {
		due := float64(i) * 0.01
		behind = append(behind, sample{due: due, sent: due * 3}) // ever later
	}
	if !lagGrowing(behind) {
		t.Error("a schedule the generator fell ever further behind was not reported")
	}
}

func TestZipfBlock(t *testing.T) {
	block := zipfBlock(400, 400, 1.3, 4)
	if len(block) != 400 {
		t.Fatalf("block holds %d operations, want 400", len(block))
	}
	counts := make([]int, 400)
	for _, k := range block {
		counts[k]++
	}
	for k := 1; k < len(counts); k++ {
		if counts[k] > counts[k-1] {
			t.Fatalf("rank %d appears %d times, rank %d only %d", k, counts[k], k-1, counts[k-1])
		}
	}
	// (4+k)^-1.3 over 400 ranks gives the top rank 9.5 % of the draws.
	if counts[0] != 38 {
		t.Errorf("top rank appears %d times in 400, want 38", counts[0])
	}
}

func TestCheckAnswers(t *testing.T) {
	if failure, appended := checkAnswers([]int{1, 4, 7, 12, 15}, []int{1, 4, 7}, 10); failure != "" || !reflect.DeepEqual(appended, []int{12, 15}) {
		t.Errorf("matching original ids: failure %q, appended %v", failure, appended)
	}
	if failure, _ := checkAnswers([]int{1, 4}, []int{1, 4, 7}, 10); failure == "" {
		t.Error("a missing answer was accepted")
	}
	if failure, _ := checkAnswers([]int{1, 5, 7}, []int{1, 4, 7}, 10); failure == "" {
		t.Error("a wrong answer was accepted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	origin := time.Now()
	var filter, enum aggregate
	filter.add(origin.Add(10*time.Nanosecond), 30*time.Nanosecond)
	filter.add(origin.Add(60*time.Nanosecond), 20*time.Nanosecond)
	enum.add(origin.Add(40*time.Nanosecond), 15*time.Nanosecond)
	root := span{Name: spanQuery, StartNS: 0, EndNS: 100, Calls: 1, BusyNS: 100}
	f, e := filter.span(spanFilter, 3, origin), enum.span(spanEnumerate, 3, origin)
	if f.StartNS != 10 || f.EndNS != 80 || f.Calls != 2 || f.BusyNS != 50 || f.Parent != spanQuery || f.Query != 3 {
		t.Errorf("aggregated span = %+v", f)
	}
	// 100 ns of loop, 50 in the filter and 15 in enumeration: 35 its own.
	if got := selfNS(root, []span{f, e}); got != 35 {
		t.Errorf("selfNS = %d, want 35", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	lo, hi := 310.5, 340.25
	rep := report{Schema: reportSchema, Runs: []runReport{{
		Workload: "aids-bare", Seed: 7, Seconds: 20,
		result: result{Correct: true, Attempted: 1234, Failed: 0, Metrics: map[string]measured{
			"qps":    {Value: 327.857, Unit: "1/s", Min: &lo, Max: &hi},
			"p99_ms": {Value: 12.5, Unit: "ms", N: 1500},
		}},
	}}}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("report changed on the way through JSON:\n got %+v\nwant %+v", got, rep)
	}
}

func TestVerdict(t *testing.T) {
	qps := specMetric{Name: "qps", Better: "higher", Bound: 0.10}
	p50 := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := []float64{98, 99, 100, 101, 102}
	wide := []float64{70, 85, 100, 115, 130}
	for _, c := range []struct {
		sm   specMetric
		a, b []float64
		want string
	}{
		{qps, []float64{100}, []float64{95}, "ok"},
		{qps, []float64{100}, []float64{85}, "regressed"},
		{qps, []float64{100}, []float64{130}, "ok"},
		{qps, steady, []float64{84, 85, 86, 85, 85}, "regressed"},
		{qps, wide, []float64{84, 85, 86, 85, 85}, "unresolved"},
		{p50, []float64{10}, []float64{11.5}, "regressed"},
		{p50, []float64{10}, []float64{9}, "ok"},
		{setup, []float64{0.10}, []float64{0.14}, "ok"}, // under the 0.05 s floor
		{setup, []float64{1.0}, []float64{1.4}, "regressed"},
	} {
		if _, got := verdict(c.sm, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.sm.Name, c.a, c.b, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ->
	// [3.5, 13.5, 31.0]; the median is 13.5.
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	line := []byte("4242 (sq server) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 8 0 100 1000000 500 18446744073709551615")
	got, err := parseProcStatCPU(line)
	if err != nil || got != 3.0 {
		t.Errorf("parseProcStatCPU = %v, %v; want 3 s (250+50 ticks)", got, err)
	}
}

// TestSmoke builds sqserver and runs a 50-graph, 16-query, 1 s-per-phase
// append workload end to end with the traced replay, then checks that every
// metric BENCHMARK.json names came out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs sqserver")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildServer(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("aids-index-append")
	rr, err := runWorkload(context.Background(), w, runConfig{
		seed: 1, seconds: 2, trace: true, scale: 0.0125, serverBin: bin, outDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed != 0 || rr.Attempted == 0 {
		t.Errorf("attempted %d, failed %d: %v", rr.Attempted, rr.Failed, rr.Failures)
	}
	for _, listed := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		if _, err := selectMetrics(listed, rr.Metrics); err != nil {
			t.Error(err)
		}
	}
	if rr.Metrics["client.appends"].Value == 0 {
		t.Error("the append workload appended nothing")
	}
	line, err := json.Marshal(rr.result)
	if err != nil || len(line) == 0 {
		t.Errorf("result does not marshal: %v", err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for i, sw := range s.Workloads {
		if i < len(workloads) && sw.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, sw.Name, workloads[i].name)
		}
	}
}
