package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/telemetry"
)

// The traced run replays each workload's distinct query list in-process
// through the layers' exported functions and records spans around those
// calls, from the benchmark's own files: nothing inside the program is
// instrumented. A layer is called thousands of times per query (once per
// data graph), so the calls of one layer for one query are aggregated into
// one span.

// span is one layer's work for one query. Spans of one query share the
// query id; parent names the span that caused this one ("" for the root).
type span struct {
	Name    string `json:"name"`
	Query   int    `json:"query"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // first call's start, from the replay's start
	EndNS   int64  `json:"end_ns"`   // last call's end
	Calls   int64  `json:"calls"`
	BusyNS  int64  `json:"busy_ns"` // summed call durations, timer cost included
}

// selfNS is a span's duration minus the part of it its children cover;
// for aggregated children that part is their busy time.
func selfNS(s span, children []span) int64 {
	self := s.EndNS - s.StartNS
	for _, c := range children {
		self -= c.BusyNS
	}
	return self
}

// aggregate accumulates the calls of one layer for one query.
type aggregate struct {
	first, last time.Time
	calls       int64
	busy        time.Duration
}

func (a *aggregate) add(start time.Time, d time.Duration) {
	if a.calls == 0 {
		a.first = start
	}
	a.last = start.Add(d)
	a.calls++
	a.busy += d
}

func (a *aggregate) span(name string, query int, origin time.Time) span {
	return span{
		Name: name, Query: query, Parent: spanQuery,
		StartNS: a.first.Sub(origin).Nanoseconds(), EndNS: a.last.Sub(origin).Nanoseconds(),
		Calls: a.calls, BusyNS: a.busy.Nanoseconds(),
	}
}

// Span names: the root is the benchmark's own per-graph loop, the children
// are the layers it calls.
const (
	spanQuery     = "replay.query"
	spanProbe     = "index.probe"
	spanFilter    = "matching.filter"
	spanOrder     = "matching.order"
	spanEnumerate = "matching.enumerate"
)

// timerCostNS measures one time.Now + time.Since pair, the cost every
// recorded call carries.
func timerCostNS() float64 {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	total := time.Since(t0)
	_ = sink
	return float64(total.Nanoseconds()) / n
}

// replay holds what the traced run measured for one workload.
type replay struct {
	spans   []span
	metrics map[string]float64
	// checks are the self-check failures; empty means the traced run passed.
	checks []string
}

// decomposed is the per-layer totals of the decomposed replay.
type decomposed struct {
	wallNS, selfNS                int64     // whole loop; loop minus its layers
	probe, filter, order, enum    aggregate // summed over all queries
	passes, found, survivors      int64
	steps                         uint64
	auxPeak                       int64
	answersDiffer, enumerateError int
}

// decompose runs Algorithm 2's loop for one query (behind the index probe
// for the IvcFV workload) with a timer around every layer call, adds the
// totals to tot, and appends one root span and one aggregated child span
// per layer to r.spans.
func (r *replay) decompose(qi int, in *inputs, ix *index.GGSX, s *matching.Scratch, origin time.Time, tot *decomposed) {
	q := in.queries[qi]
	var probe, filter, order, enum aggregate
	var answers []int
	qStart := time.Now()
	var graphs []int // nil = every graph
	if ix != nil {
		t0 := time.Now()
		graphs = ix.Filter(q)
		probe.add(t0, time.Since(t0))
		tot.survivors += int64(len(graphs))
	}
	visit := func(gid int) {
		g := in.db.Graph(gid)
		t0 := time.Now()
		cand := matching.CFLFilter(q, g, matching.FilterOptions{Scratch: s})
		filter.add(t0, time.Since(t0))
		if cand.AnyEmpty() {
			return
		}
		tot.passes++
		if m := cand.MemoryFootprint(); m > tot.auxPeak {
			tot.auxPeak = m
		}
		t1 := time.Now()
		ord := matching.GraphQLOrderScratch(q, cand, s)
		order.add(t1, time.Since(t1))
		t2 := time.Now()
		res, err := matching.Enumerate(q, g, cand, ord, matching.Options{Limit: 1, Scratch: s})
		enum.add(t2, time.Since(t2))
		if err != nil {
			tot.enumerateError++
			return
		}
		tot.steps += res.Steps
		if res.Found() {
			tot.found++
			answers = append(answers, gid)
		}
	}
	if ix != nil {
		for _, gid := range graphs {
			visit(gid)
		}
	} else {
		for gid := 0; gid < in.db.Len(); gid++ {
			visit(gid)
		}
	}
	qEnd := time.Now()
	if failure, _ := checkAnswers(answers, in.answers[qi], in.db.Len()); failure != "" {
		tot.answersDiffer++
	}
	tot.wallNS += qEnd.Sub(qStart).Nanoseconds()
	root := span{
		Name: spanQuery, Query: qi,
		StartNS: qStart.Sub(origin).Nanoseconds(), EndNS: qEnd.Sub(origin).Nanoseconds(),
		Calls: 1, BusyNS: qEnd.Sub(qStart).Nanoseconds(),
	}
	r.spans = append(r.spans, root)
	children := len(r.spans)
	for _, c := range []struct {
		name string
		agg  *aggregate
		sum  *aggregate
	}{{spanProbe, &probe, &tot.probe}, {spanFilter, &filter, &tot.filter}, {spanOrder, &order, &tot.order}, {spanEnumerate, &enum, &tot.enum}} {
		if c.agg.calls == 0 {
			continue
		}
		r.spans = append(r.spans, c.agg.span(c.name, qi, origin))
		c.sum.calls += c.agg.calls
		c.sum.busy += c.agg.busy
	}
	tot.selfNS += selfNS(root, r.spans[children:])
}

// timedQuery runs one query through e and checks the answer against the
// oracle.
func timedQuery(e core.Engine, in *inputs, qi int, opts sq.QueryOptions) (wallNS int64, res *core.Result, err error) {
	t0 := time.Now()
	res = e.Query(in.queries[qi], opts)
	wallNS = time.Since(t0).Nanoseconds()
	if failure, _ := checkAnswers(res.Answers, in.answers[qi], in.db.Len()); failure != "" || res.Err != nil || res.TimedOut || res.Degraded {
		return 0, nil, fmt.Errorf("%s replay of query %d: wrong or failed answer (%s)", e.Name(), qi, failure)
	}
	return wallNS, res, nil
}

// meanUS times fn over n calls and returns the mean in microseconds.
func meanUS(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n) / 1e3
}

// cacheReplayOps is how many operations of the Zipf sequence the cache
// replay follows: enough to fill the 64-entry cache several times over
// while a probe costs up to 128 query-to-query matchings.
const cacheReplayOps = 600

// runReplay is the traced run of one workload. Metrics that do not apply
// to a workload (index.* without an index, cache and trace extras off the
// default-flags workload) stay 0.
func runReplay(w workload, in *inputs) (*replay, error) {
	r := &replay{metrics: map[string]float64{}}
	m := r.metrics
	nq := float64(len(in.queries))
	origin := time.Now()
	timer := timerCostNS()
	for _, name := range []string{
		"index.build_s", "index.bytes", "index.probe_us", "index.survivor_share", "index.insert_us",
		"graph.append_us", "core.cache_extra_us", "obs.trace_explain_extra_us",
	} {
		m[name] = 0 // stays 0 on a workload the layer does not serve
	}
	m["trace.timer_ns"] = timer
	m["gen.db_s"] = in.genDBSeconds
	m["gen.queries_s"] = in.genQueriesSeconds
	m["gen.oracle_s"] = in.oracleSeconds

	// graph: parse the database text the server loads, and the request bodies.
	t0 := time.Now()
	if _, err := graph.ReadDatabase(bytes.NewReader(in.dbBytes)); err != nil {
		return nil, fmt.Errorf("re-reading database: %w", err)
	}
	m["graph.read_db_s"] = time.Since(t0).Seconds()
	m["graph.db_bytes"] = float64(in.db.MemoryFootprint())
	m["graph.read_query_us"] = meanUS(len(in.bodies), func(i int) {
		_, _ = graph.ReadGraph(bytes.NewReader(in.bodies[i])) // parsed once already by the generator
	})

	// telemetry, inflight: the per-request bookkeeping of handleQuery.
	m["telemetry.fingerprint_us"] = meanUS(len(in.queries), func(i int) { telemetry.Compute(in.queries[i]) })
	profile := telemetry.NewProfile(0)
	m["telemetry.profile_record_us"] = meanUS(len(in.queries), func(i int) {
		profile.Record(telemetry.Event{Fingerprint: telemetry.Fingerprint(i + 1), Engine: w.engine, DurationUS: 1000, Answers: 1})
	})
	registry := inflight.NewRegistry(0)
	m["inflight.register_us"] = meanUS(len(in.queries), func(i int) {
		registry.Deregister(registry.Register(inflight.RegisterOptions{Engine: w.engine, Fingerprint: uint64(i + 1)}))
	})

	// core: the whole Engine.Query is the reference wall.
	engine, err := bench.NewEngine(w.engine)
	if err != nil {
		return nil, err
	}
	var ix *index.GGSX
	t0 = time.Now()
	if err := engine.Build(in.db, sq.BuildOptions{}); err != nil {
		return nil, fmt.Errorf("building %s: %w", w.engine, err)
	}
	if bench.IsIndexed(w.engine) {
		m["index.build_s"] = time.Since(t0).Seconds()
		m["index.bytes"] = float64(engine.IndexMemory())
		ix = &index.GGSX{}
		if err := ix.Build(in.db, index.BuildOptions{}); err != nil {
			return nil, fmt.Errorf("building GGSX index: %w", err)
		}
	}
	// Each query runs through Engine.Query and then, at once, through the
	// decomposed loop (and, on the default-flags workload, through
	// Engine.Query with a Trace and an Explain attached): the machine's speed
	// drifts by tens of percent within seconds, so only measurements taken
	// back to back can be subtracted from each other.
	defaultFlags := len(w.serverFlags) == 0
	scratch := matching.AcquireScratch()
	defer matching.ReleaseScratch(scratch)
	var d decomposed
	var engineNS, tracedNS int64
	var engineSteps uint64
	for qi := range in.queries {
		wall, res, err := timedQuery(engine, in, qi, sq.QueryOptions{})
		if err != nil {
			return nil, err
		}
		engineNS += wall
		engineSteps += res.VerifySteps
		r.decompose(qi, in, ix, scratch, origin, &d)
		if defaultFlags {
			wall, _, err := timedQuery(engine, in, qi, sq.QueryOptions{Observer: sq.NewTrace(), Explain: sq.NewExplain()})
			if err != nil {
				return nil, err
			}
			tracedNS += wall
		}
	}
	if d.answersDiffer > 0 || d.enumerateError > 0 {
		return nil, fmt.Errorf("decomposed replay: %d wrong answer sets, %d enumerate errors", d.answersDiffer, d.enumerateError)
	}
	queryNS := float64(engineNS)
	m["core.query_us"] = queryNS / nq / 1e3
	// busyNS is a layer's summed call time with the timers' own cost taken out.
	busyNS := func(a aggregate) float64 {
		return math.Max(0, float64(a.busy.Nanoseconds())-timer*float64(a.calls))
	}
	layers := busyNS(d.probe) + busyNS(d.filter) + busyNS(d.order) + busyNS(d.enum)
	m["core.loop_overhead_us"] = (queryNS - layers) / nq / 1e3
	m["core.graphs_per_query"] = float64(d.filter.calls) / nq
	m["matching.filter_us"] = busyNS(d.filter) / nq / 1e3
	m["matching.filter_ns_per_graph"] = ratio(busyNS(d.filter), float64(d.filter.calls))
	m["matching.filter_pass_share"] = ratio(float64(d.passes), float64(d.filter.calls))
	m["matching.order_us"] = busyNS(d.order) / nq / 1e3
	m["matching.enumerate_us"] = busyNS(d.enum) / nq / 1e3
	m["matching.enumerate_steps"] = float64(d.steps)
	m["matching.enumerate_ns_per_step"] = ratio(busyNS(d.enum), float64(d.steps))
	m["matching.found_share"] = ratio(float64(d.found), float64(d.passes))
	m["matching.aux_bytes_peak"] = float64(d.auxPeak)
	m["trace.overhead_share"] = (float64(d.wallNS) - queryNS) / queryNS
	m["trace.loop_self_us"] = float64(d.selfNS) / nq / 1e3
	if ix != nil {
		m["index.probe_us"] = busyNS(d.probe) / nq / 1e3
		m["index.survivor_share"] = float64(d.survivors) / (nq * float64(in.db.Len()))
	}

	// Self-checks. The decomposed loop must cost what Engine.Query costs,
	// or its split of the time says nothing about the engine; the step
	// count must not depend on who drives the search; and the workload must
	// load the layer it was chosen to load. (The engine's own per-graph
	// bookkeeping - its timers, guards and progress counters - is a quarter
	// of core.query_us on aids-bare, so the layers' busy time alone does not
	// add up to the engine's wall, and the premises are shares of the
	// layers' time, not of the wall.)
	if gap := math.Abs(float64(d.wallNS)-queryNS) / queryNS; gap > 0.15 {
		r.checks = append(r.checks, fmt.Sprintf("decomposed replay is %.0f%% off core.query_us (limit 15%%)", gap*100))
	}
	if d.steps != engineSteps {
		r.checks = append(r.checks, fmt.Sprintf("matching.enumerate_steps differs between two runs: %d vs %d", d.steps, engineSteps))
	}
	switch w.name {
	case "aids-bare":
		if share := busyNS(d.filter) / layers; share < 0.70 {
			r.checks = append(r.checks, fmt.Sprintf("premise: matching.filter_us is %.0f%% of the layers' time, want >= 70%%", share*100))
		}
	case "syn-enum":
		if share := busyNS(d.enum) / layers; share < 0.50 {
			r.checks = append(r.checks, fmt.Sprintf("premise: matching.enumerate_us is %.0f%% of the layers' time, want >= 50%%", share*100))
		}
	}

	// core.Cached and obs: what the default flags add on top of CFQL.
	if defaultFlags {
		m["obs.trace_explain_extra_us"] = (float64(tracedNS) - queryNS) / nq / 1e3

		cached := core.NewCached(core.NewCFQL(), 64)
		if err := cached.Build(in.db, sq.BuildOptions{}); err != nil {
			return nil, err
		}
		var cachedNS, bareNS int64
		ops := 0
		for _, o := range in.ops {
			if ops == cacheReplayOps {
				break
			}
			if o.kind != opQuery {
				continue
			}
			ops++
			wall, _, err := timedQuery(cached, in, o.index, sq.QueryOptions{})
			if err != nil {
				return nil, err
			}
			cachedNS += wall
			if wall, _, err = timedQuery(engine, in, o.index, sq.QueryOptions{}); err != nil {
				return nil, err
			}
			bareNS += wall
		}
		m["core.cache_extra_us"] = float64(cachedNS-bareNS) / float64(ops) / 1e3
	}

	// index, graph: the append path.
	if ix != nil && len(in.appends) > 0 {
		grown := graph.NewDatabase(append([]*graph.Graph(nil), in.db.Graphs()...))
		m["graph.append_us"] = meanUS(len(in.appendBodies), func(i int) {
			g, err := graph.ReadGraph(bytes.NewReader(in.appendBodies[i]))
			if err == nil {
				grown.Append(g)
			}
		})
		m["index.insert_us"] = meanUS(len(in.appends), func(i int) {
			_ = ix.InsertGraph(in.appends[i], in.db.Len()+i) // GGSX.InsertGraph never fails
		})
	}

	// cluster: a two-shard coordinator in-process, hedging off. No served
	// workload runs it; the numbers are the baseline for one that will.
	coord, err := cluster.New(cluster.Config{
		Shards: 2, HedgeAfter: -1, BaseName: "CFQL",
		Factory: func() core.Engine { return core.NewCFQL() },
	})
	if err != nil {
		return nil, err
	}
	if err := coord.Build(in.db, sq.BuildOptions{}); err != nil {
		return nil, fmt.Errorf("building coordinator: %w", err)
	}
	var clusterNS, criticalNS int64
	for qi := range in.queries {
		wall, res, err := timedQuery(coord, in, qi, sq.QueryOptions{})
		if err != nil {
			return nil, err
		}
		clusterNS += wall
		criticalNS += (res.FilterTime + res.VerifyTime).Nanoseconds()
	}
	m["cluster.query_us"] = float64(clusterNS) / nq / 1e3
	m["cluster.scatter_overhead_us"] = float64(clusterNS-criticalNS) / nq / 1e3
	shardOf := make([]int, in.db.Len())
	for s, ids := range coord.Partitions() {
		for _, id := range ids {
			shardOf[id] = s
		}
	}
	parts := make([][]*core.Result, len(in.queries))
	for i, answers := range in.answers {
		parts[i] = []*core.Result{{}, {}}
		for _, id := range answers {
			p := parts[i][shardOf[id]]
			p.Answers = append(p.Answers, id)
		}
	}
	m["core.merge_us"] = meanUS(len(parts), func(i int) { core.MergeResults(parts[i]) })
	cs := coord.Stats()
	m["cluster.retries"] = float64(cs.Retries)
	m["cluster.hedges"] = float64(cs.Hedges)
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the spans kept in memory during the replay.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
