package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// poisonedCFQL returns a CFQL-configured engine whose filter panics on the
// given data graphs — the test double for a graph that trips a latent bug.
// It honours QueryOptions.Workers (default 1), so the same double drives
// the sequential loop and the pool.
func poisonedCFQL(db *graph.Database, poison ...int) Engine {
	bad := map[*graph.Graph]bool{}
	for _, gid := range poison {
		bad[db.Graph(gid)] = true
	}
	filter := func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates {
		if bad[g] {
			panic("poisoned data graph")
		}
		return matching.CFLFilter(q, g, opts)
	}
	return &engine{name: "CFQL-poisoned", test: fusedTest(matching.Matcher{Filter: filter, Order: matching.JoinOrder}), fused: true, workers: 1}
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline (worker exits are asynchronous after wg.Wait in the caller's
// frame has returned).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: have %d, want <= %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPanicIsolationSkipsGraph: a panic while processing one data graph is
// recovered, reported as a structured QueryError, and the query's answers
// over the remaining graphs are exact — one poisoned graph never takes
// down the query.
func TestPanicIsolationSkipsGraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 12, 9, 2)
	q := walkQuery(r, db.Graph(1), 3)
	const poisoned = 4

	eng := poisonedCFQL(db, poisoned)
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}

	live := matching.ScratchLive()
	panicsBefore := obs.Panics.Value()
	res := eng.Query(q, QueryOptions{})

	if res.Err != nil {
		t.Fatalf("query-level error for a per-graph panic: %v", res.Err)
	}
	if res.Skipped != 1 || len(res.GraphErrors) != 1 {
		t.Fatalf("Skipped=%d GraphErrors=%d, want 1 and 1", res.Skipped, len(res.GraphErrors))
	}
	qe := res.GraphErrors[0]
	if qe.Kind != KindPanic || qe.GraphID != poisoned || qe.Engine != "CFQL-poisoned" {
		t.Errorf("QueryError = %+v, want panic on graph %d", qe, poisoned)
	}
	if qe.Stack == "" {
		t.Error("QueryError.Stack empty; want the panicking goroutine's stack")
	}
	if qe.Message == "" {
		t.Error("QueryError.Message empty")
	}

	// Answers over the non-poisoned graphs are exact.
	var want []int
	for _, gid := range trueAnswers(db, q) {
		if gid != poisoned {
			want = append(want, gid)
		}
	}
	if !equalInts(res.Answers, want) {
		t.Errorf("answers = %v, want %v (true answers minus poisoned graph)", res.Answers, want)
	}

	if got := obs.Panics.Value() - panicsBefore; got != 1 {
		t.Errorf("obs.Panics delta = %d, want 1", got)
	}
	if got := res.Panics(); got != 1 {
		t.Errorf("Result.Panics() = %d, want 1", got)
	}
	if got := matching.ScratchLive(); got != live {
		t.Errorf("scratch arenas leaked across panic: live %d, was %d", got, live)
	}
}

// TestPanicMidEnumerationReleasesScratch: a panic after filtering (in the
// ordering/enumeration half of the pipeline) must not strand the query's
// scratch arena — the deferred ReleaseScratch still runs, and the pool
// stays usable for the next query.
func TestPanicMidEnumerationReleasesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	db := randomDB(r, 10, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)

	order := func(q, g *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID {
		panic("mid-pipeline")
	}
	eng := &engine{name: "CFQL-ordpanic", test: fusedTest(matching.Matcher{Filter: matching.CFLFilter, Order: order}), fused: true}
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}

	live := matching.ScratchLive()
	res := eng.Query(q, QueryOptions{})
	if got := matching.ScratchLive(); got != live {
		t.Fatalf("scratch arenas leaked: live %d, was %d", got, live)
	}
	if res.Candidates > 0 && res.Skipped != res.Candidates {
		t.Errorf("Skipped=%d, want every candidate (%d) skipped", res.Skipped, res.Candidates)
	}
	if len(res.Answers) != 0 {
		t.Errorf("answers = %v, want none (every enumeration panicked)", res.Answers)
	}

	// The pool is intact: a clean engine answers exactly afterwards.
	clean := NewCFQL()
	if err := clean.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := clean.Query(q, QueryOptions{}); !equalInts(got.Answers, trueAnswers(db, q)) {
		t.Errorf("clean query after panics: answers %v, want %v", got.Answers, trueAnswers(db, q))
	}
	if got := matching.ScratchLive(); got != live {
		t.Errorf("scratch arenas leaked after clean query: live %d, was %d", got, live)
	}
}

// TestGraphErrorsCapped: a database where every graph panics still yields
// a bounded Result — GraphErrors is capped, Skipped carries the true count.
func TestGraphErrorsCapped(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := maxGraphErrors + 7
	db := randomDB(r, n, 8, 2)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	eng := poisonedCFQL(db, all...)
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 2)
	res := eng.Query(q, QueryOptions{})
	if res.Skipped != n {
		t.Errorf("Skipped = %d, want %d", res.Skipped, n)
	}
	if len(res.GraphErrors) != maxGraphErrors {
		t.Errorf("GraphErrors = %d, want capped at %d", len(res.GraphErrors), maxGraphErrors)
	}
}

// TestMemoryBudgetSkipsGraph: a MemoryBudget too small for any candidate
// structure skips every graph with a KindBudget error instead of failing
// the query — and a budget large enough changes nothing.
func TestMemoryBudgetSkipsGraph(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	db := randomDB(r, 8, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)
	if q.NumVertices() < 2 {
		t.Skip("degenerate walk query")
	}

	for _, eng := range []Engine{NewCFQL(), NewVcGGSX()} {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		res := eng.Query(q, QueryOptions{MemoryBudget: 1})
		if res.Err != nil {
			t.Fatalf("%s: query-level error: %v", eng.Name(), res.Err)
		}
		if res.Skipped == 0 {
			t.Errorf("%s: no graphs skipped under a 1-byte budget", eng.Name())
		}
		if len(res.Answers) != 0 {
			t.Errorf("%s: answers %v under a 1-byte budget, want none", eng.Name(), res.Answers)
		}
		for _, qe := range res.GraphErrors {
			if qe.Kind != KindBudget {
				t.Errorf("%s: GraphError kind %q, want %q", eng.Name(), qe.Kind, KindBudget)
			}
		}

		ample := eng.Query(q, QueryOptions{MemoryBudget: 1 << 30})
		if ample.Skipped != 0 {
			t.Errorf("%s: %d graphs skipped under a 1GiB budget", eng.Name(), ample.Skipped)
		}
		if !equalInts(ample.Answers, trueAnswers(db, q)) {
			t.Errorf("%s: answers %v under ample budget, want %v", eng.Name(), ample.Answers, trueAnswers(db, q))
		}
	}
}

// TestCancelStopsQuery: a context cancelled before Query, or one whose
// deadline already passed, halts every engine before it does any work —
// TimedOut set, Cancelled set for the cancellation and clear for the
// deadline, no
// answers, no index probe (FG-Index's verification-free path must not
// answer an abandoned query, and no other index is worth paying for), no
// subgraph isomorphism test — and parallel worker pools wind down without
// leaks.
func TestCancelStopsQuery(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := randomDB(r, 20, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, release := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer release()
	stops := map[string]struct {
		ctx           context.Context
		wantCancelled bool
	}{
		"cancelled context": {cancelled, true},
		"expired context":   {expired, false},
	}

	baseline := runtime.NumGoroutine()
	for name, eng := range allEngines() {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for why, stop := range stops {
			for _, workers := range []int{1, 3} {
				tr, ex := obs.NewTrace(), obs.NewExplain()
				res := eng.Query(q, QueryOptions{Context: stop.ctx, Workers: workers, Observer: tr, Explain: ex})
				if !res.TimedOut || res.Cancelled != stop.wantCancelled {
					t.Errorf("%s, %s, %d workers: TimedOut=%v Cancelled=%v, want true and %v",
						name, why, workers, res.TimedOut, res.Cancelled, stop.wantCancelled)
				}
				if len(res.Answers) != 0 {
					t.Errorf("%s, %s: answered %v for a query stopped before it started", name, why, res.Answers)
				}
				if probes := ex.Snapshot().IndexProbes; len(probes) != 0 {
					t.Errorf("%s, %s: probed the index for a stopped query: %+v", name, why, probes)
				}
				if events, _ := tr.Verifications(); len(events) != 0 {
					t.Errorf("%s, %s: %d verify events for a stopped query, want none", name, why, len(events))
				}
				if pre := ex.Snapshot().Prefilter; pre != nil {
					t.Errorf("%s, %s, %d workers: filtered %d graphs for a stopped query", name, why, workers, pre.Graphs)
				}
			}
		}
	}
	waitGoroutines(t, baseline)
}

// TestCancelMidFlight: cancellation raised while a filter pass is running
// is observed inside the pass (not just between graphs) and propagates to
// the result.
func TestCancelMidFlight(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	db := randomDB(r, 6, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, db.Len()+1)
	filter := func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates {
		started <- struct{}{}
		// Block like a pathological pass until the caller cancels; then
		// behave like a cooperative filter observing its Cancel.
		<-opts.Cancel
		cand := matching.CFLFilter(q, g, matching.FilterOptions{Scratch: opts.Scratch})
		cand.Aborted = true
		return cand
	}
	eng := &engine{name: "CFQL-blocking", test: fusedTest(matching.Matcher{Filter: filter, Order: matching.JoinOrder}), fused: true}
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}

	done := make(chan *Result, 1)
	go func() { done <- eng.Query(q, QueryOptions{Context: ctx}) }()
	<-started // the query is mid-filter on the first graph
	cancel()
	select {
	case res := <-done:
		if !res.Cancelled || !res.TimedOut {
			t.Errorf("Cancelled=%v TimedOut=%v after mid-flight cancel, want both true",
				res.Cancelled, res.TimedOut)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not return after cancellation")
	}
}

// TestCancelParallelWorkersMidFlight drives every configuration that pools with a
// cancellation raised while every worker is busy and the producer is blocked
// handing out the next graph: the query returns promptly with
// Cancelled/TimedOut accounting, and no goroutine or arena survives the
// pool. The configuration keeps its own index, probe and pool settings;
// only the per-graph test is swapped for one that holds its worker until
// the cancel, so saturation does not depend on timing.
func TestCancelParallelWorkersMidFlight(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	db := randomDB(r, 40, 12, 2)
	q := walkQuery(r, db.Graph(0), 5) // too large to be a mined FG-Index feature
	const workers = 3
	pool := clampWorkers(workers)
	if pool < 2 {
		t.Skip("GOMAXPROCS=1: no configuration pools")
	}

	pooled := 0
	for name, e := range allEngines() {
		eng, ok := e.(*engine)
		if !ok || eng.poolSize(workers) != pool {
			continue // runs on the caller's goroutine
		}
		pooled++
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := eng.Query(q, QueryOptions{}).Candidates; n <= pool {
			t.Fatalf("%s: %d candidates cannot saturate %d workers", name, n, pool)
		}
		started := make(chan struct{}, db.Len())
		eng.test = func(rn *run, gid int, s *matching.Scratch, out *outcome) {
			started <- struct{}{}
			<-rn.done
			out.r.Aborted = true // a cooperative matcher observing its context
		}

		goroutines, arenas := runtime.NumGoroutine(), matching.ScratchLive()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *Result, 1)
		go func() { done <- eng.Query(q, QueryOptions{Context: ctx, Workers: workers}) }()
		for i := 0; i < pool; i++ {
			select {
			case <-started: // one more worker holds a graph
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: only %d of %d workers took a graph", name, i, pool)
			}
		}
		cancel()
		select {
		case res := <-done:
			if !res.Cancelled || !res.TimedOut {
				t.Errorf("%s: Cancelled=%v TimedOut=%v after a mid-flight cancel, want both",
					name, res.Cancelled, res.TimedOut)
			}
			if len(res.Answers) != 0 {
				t.Errorf("%s: answers %v from tests that all aborted", name, res.Answers)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: query did not return after cancellation", name)
		}
		waitGoroutines(t, goroutines)
		if got := matching.ScratchLive(); got != arenas {
			t.Errorf("%s: scratch arenas leaked: live %d, was %d", name, got, arenas)
		}
	}
	if pooled != 10 {
		t.Errorf("%d configurations pooled, want 10 (every indexed one and CFQL-parallel)", pooled)
	}
}
