package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// The tests in this file exercise the one per-graph loop (run.each) once,
// for every configuration that runs through it.

// genDB generates a small seeded database; genQueries draws sparse
// (random-walk) and dense (BFS) queries from it.
func genDB(t *testing.T, graphs int, seed int64) *graph.Database {
	t.Helper()
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: graphs, NumVertices: 12, NumLabels: 3, Degree: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func genQueries(t *testing.T, db *graph.Database, seed int64) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for _, cfg := range []gen.QuerySetConfig{
		{Count: 3, Edges: 3, Method: gen.QueryRandomWalk, Seed: seed},
		{Count: 3, Edges: 5, Method: gen.QueryBFS, Seed: seed + 1},
	} {
		qs, err := gen.QuerySet(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, qs...)
	}
	return out
}

// builtScan returns the oracle: the filter-less VF2 scan over db.
func builtScan(t *testing.T, db *graph.Database) Engine {
	t.Helper()
	oracle := NewScan()
	if err := oracle.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return oracle
}

// catalogueEngines returns every literal of the matcher and index
// catalogues as an engine, beside allEngines' constructors: each matcher as
// Algorithm 2's body, each index in front of VF2 (Algorithm 1) and in front
// of CFQL (§III-C). A new literal is covered without an edit here.
func catalogueEngines() map[string]Engine {
	es := allEngines()
	for _, m := range matching.Matchers {
		es["vcFV:"+m.Name] = &engine{name: m.Name, test: fusedTest(m), fused: true}
	}
	for _, mk := range index.Catalogue {
		name := mk().Name()
		es["IFV:"+name] = &engine{name: name, idx: mk(), test: vf2First}
		es["IvcFV:"+name] = &engine{name: "vc" + name, idx: mk(), test: cfqlFused, fused: true}
	}
	return es
}

// TestEnginesAgreeAcrossWorkers: every configuration, on the caller's
// goroutine and on pools of 2 and 3 workers, returns exactly the scan
// engine's answer set.
func TestEnginesAgreeAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		db := genDB(t, 24, seed)
		queries := genQueries(t, db, 10*seed)
		oracle := builtScan(t, db)
		for name, e := range catalogueEngines() {
			if err := e.Build(db, BuildOptions{}); err != nil {
				t.Fatalf("%s build: %v", name, err)
			}
			for qi, q := range queries {
				want := oracle.Query(q, QueryOptions{}).Answers
				for workers := 1; workers <= 3; workers++ {
					res := e.Query(q, QueryOptions{Workers: workers})
					if res.TimedOut || res.Err != nil || res.Skipped != 0 {
						t.Fatalf("seed %d %s q%d workers %d: TimedOut=%v Err=%v Skipped=%d",
							seed, name, qi, workers, res.TimedOut, res.Err, res.Skipped)
					}
					if !equalInts(res.Answers, want) {
						t.Fatalf("seed %d %s q%d workers %d: answers %v, scan says %v",
							seed, name, qi, workers, res.Answers, want)
					}
				}
			}
		}
	}
}

// TestFilterAbortStopsQuery: a filter that reports Aborted (its sets prove
// nothing about the graph) stops the whole query with TimedOut set, on the
// caller's goroutine and on a pool alike — no context is involved, so
// nothing else would stop it.
func TestFilterAbortStopsQuery(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	db := randomDB(r, 100, 9, 2)
	q := walkQuery(r, db.Graph(0), 2)
	const abortAt = 5
	gidOf := map[*graph.Graph]int{}
	for gid := 0; gid < db.Len(); gid++ {
		gidOf[db.Graph(gid)] = gid
	}

	for _, workers := range []int{1, 3} {
		var calls atomic.Int64
		filter := func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates {
			calls.Add(1)
			cand := matching.CFLFilter(q, g, opts)
			switch gid := gidOf[g]; {
			case gid == abortAt:
				cand.Aborted = true
			case gid > abortAt:
				// Later graphs are slow, so a pool that failed to stop
				// could not race through them before the abort is folded.
				time.Sleep(2 * time.Millisecond)
			}
			return cand
		}
		eng := &engine{name: "CFQL-aborting", test: fusedTest(matching.Matcher{Filter: filter, Order: matching.JoinOrder}), fused: true, workers: 1}
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		res := eng.Query(q, QueryOptions{Workers: workers})
		if !res.TimedOut || res.Cancelled {
			t.Errorf("workers %d: TimedOut=%v Cancelled=%v after a filter abort, want true and false",
				workers, res.TimedOut, res.Cancelled)
		}
		got := int(calls.Load())
		if workers == 1 && got != abortAt+1 {
			t.Errorf("sequential run filtered %d graphs, want to stop right after graph %d", got, abortAt)
		}
		if got >= db.Len()/2 {
			t.Errorf("workers %d: %d of %d graphs filtered after an abort on graph %d; the query did not stop",
				workers, got, db.Len(), abortAt)
		}
	}
}

// TestSkippedGraphStillCountsAsDone: a graph skipped by the per-graph
// panic boundary ticks live progress like any other, so a finished query
// shows graphs_done == graphs_total — sequentially and pooled.
func TestSkippedGraphStillCountsAsDone(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	db := randomDB(r, 12, 9, 2)
	q := walkQuery(r, db.Graph(1), 3)
	reg := inflight.NewRegistry(4)

	for _, workers := range []int{1, 3} {
		eng := poisonedCFQL(db, 4)
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		h := reg.Register(inflight.RegisterOptions{Engine: "caller"})
		res := eng.Query(q, QueryOptions{Handle: h, Workers: workers})
		snap := h.Snapshot(time.Now())
		reg.Deregister(h)
		if res.Skipped != 1 {
			t.Fatalf("workers %d: Skipped = %d, want 1", workers, res.Skipped)
		}
		if snap.GraphsTotal != int64(db.Len()) || snap.GraphsDone != snap.GraphsTotal {
			t.Errorf("workers %d: graphs_done %d of %d after the query returned",
				workers, snap.GraphsDone, snap.GraphsTotal)
		}
	}
}

// TestQueryAllocsDoNotGrowWithDatabase: the loop allocates per query, not
// per data graph — a query that no graph can match costs the same number
// of allocations on 50 graphs and on 500.
func TestQueryAllocsDoNotGrowWithDatabase(t *testing.T) {
	if !allocCountsHold {
		t.Skip("allocation counts are for production builds: off under -race and -tags sqdebug")
	}
	// Labels 0..2 in the database, 7 in the query: every filter rejects.
	q := graph.MustFromEdges([]graph.Label{7, 7}, []graph.Edge{{U: 0, V: 1}})
	allocs := func(graphs int) float64 {
		e := NewCFQL()
		if err := e.Build(genDB(t, graphs, 5), BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		if res := e.Query(q, QueryOptions{}); len(res.Answers) != 0 || res.Candidates != 0 {
			t.Fatalf("warm-up found %d answers, %d candidates; want none", len(res.Answers), res.Candidates)
		}
		return testing.AllocsPerRun(50, func() { e.Query(q, QueryOptions{}) })
	}
	if small, large := allocs(50), allocs(500); small != large {
		t.Errorf("CFQL.Query allocates %.0f objects on 50 graphs and %.0f on 500, want equal", small, large)
	}
}

// TestClockBudget: the loop reads the clock once per phase boundary and
// chains the readings, so a sequential fused query over N graphs of which P
// pass the filter takes at most N + P + 2 readings — one at the start, one
// after an index probe, one per filter, one per verification — whether or
// not its context carries a deadline, and FilterTime + VerifyTime is
// exactly the last reading minus the first.
func TestClockBudget(t *testing.T) {
	db := genDB(t, 40, 3)
	queries := genQueries(t, db, 30)
	var readings []time.Duration
	defer func(real func(time.Time) time.Duration) { since = real }(since)
	since = func(time.Time) time.Duration {
		// Uneven steps, so that a dropped or doubled interval shows.
		next := time.Duration(len(readings)*len(readings)+1) * time.Microsecond
		readings = append(readings, next)
		return next
	}

	hour, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, e := range []Engine{NewCFQL(), NewCFL(), NewGraphQL(), NewVcGGSX()} {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			for _, ctx := range []context.Context{nil, hour} {
				readings = readings[:0]
				ex := obs.NewExplain()
				res := e.Query(q, QueryOptions{Context: ctx, Explain: ex})
				if res.TimedOut || res.Candidates == 0 {
					t.Fatalf("%s q%d: TimedOut=%v with %d candidates; queries are drawn from the database",
						e.Name(), qi, res.TimedOut, res.Candidates)
				}
				n := db.Len()
				if probes := ex.Snapshot().IndexProbes; len(probes) > 0 {
					n = probes[0].Survivors
				}
				if budget := n + res.Candidates + 2; len(readings) > budget {
					t.Errorf("%s q%d (deadline %v): %d clock readings for %d graphs and %d candidates, want at most %d",
						e.Name(), qi, ctx != nil, len(readings), n, res.Candidates, budget)
				}
				if got, want := res.FilterTime+res.VerifyTime, readings[len(readings)-1]-readings[0]; got != want {
					t.Errorf("%s q%d (deadline %v): FilterTime + VerifyTime = %v, last reading - first = %v",
						e.Name(), qi, ctx != nil, got, want)
				}
			}
		}
	}
}
