package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
)

// wallGraph builds the complete bipartite graph K_{m,m} with every vertex
// labeled 0: it contains no odd cycle (bipartite), yet its dense symmetric
// structure gives an odd-cycle query an astronomically large fruitless
// search space — a query against it never finishes within test lifetimes,
// so a delivered cancellation is always what stops it.
func wallGraph(m int) *graph.Graph {
	labels := make([]graph.Label, 2*m)
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(m + j)})
		}
	}
	g, err := graph.FromEdges(labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// oddCycleQuery builds the cycle C_n (n odd) with every vertex labeled 0 —
// unmatchable in any bipartite data graph.
func oddCycleQuery(n int) *graph.Graph {
	labels := make([]graph.Label, n)
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: graph.VertexID(i), V: graph.VertexID((i + 1) % n)}
	}
	g, err := graph.FromEdges(labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestInflightTrackingLifecycle: an engine handed a caller-registered
// handle never registers one of its own and never deregisters the
// caller's — including the cache wrapper on its miss and hit paths.
func TestInflightTrackingLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	db := randomDB(r, 12, 8, 2)
	q := walkQuery(r, db.Graph(0), 3)

	reg := inflight.NewRegistry(16)
	var wantRegistered int64
	query := func(name string, eng Engine) {
		t.Helper()
		h := reg.Register(inflight.RegisterOptions{Engine: name})
		wantRegistered++
		res := eng.Query(q, QueryOptions{Handle: h, Workers: 2})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if reg.Len() != 1 {
			t.Fatalf("%s: %d handles live while the caller holds one, want 1", name, reg.Len())
		}
		registered, overflowed, _ := reg.Stats()
		if registered != wantRegistered || overflowed != 0 {
			t.Fatalf("%s: registered=%d overflowed=%d, want %d and 0 (engine registered a handle?)",
				name, registered, overflowed, wantRegistered)
		}
		reg.Deregister(h)
	}
	engines := allEngines()
	for name, eng := range engines {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		query(name, eng)
	}

	// A cache hit answers from the pool without entering the inner engine.
	cached := engines["CFQL+cache"].(*Cached)
	query("CFQL+cache repeat", cached)
	if cached.Hits() == 0 {
		t.Fatal("repeated query did not hit the cache")
	}
}

// TestRemoteCancelHaltsParallelQuery is the tentpole's acceptance test at
// the engine level: a query that would otherwise run (effectively)
// forever is stopped by Registry.Cancel — delivered through the CancelFunc
// of the query's context — returns a cancelled result, and the worker pool
// quiesces. The odd-cycle-vs-bipartite wall makes the outcome
// deterministic: the query cannot finish naturally, so the cancellation
// is always what ends it.
func TestRemoteCancelHaltsParallelQuery(t *testing.T) {
	db := graph.NewDatabase([]*graph.Graph{wallGraph(16)})
	q := oddCycleQuery(9)
	reg := inflight.NewRegistry(8)

	for name, eng := range map[string]Engine{
		"CFQL-parallel": NewParallelCFQL(3),
		"CFQL":          NewCFQL(),
	} {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		h := reg.Register(inflight.RegisterOptions{Engine: eng.Name(), Cancel: cancel})
		done := make(chan *Result, 1)
		go func() { done <- eng.Query(q, QueryOptions{Context: ctx, Handle: h, Workers: 3}) }()

		// Wait until the query is visibly live and has flushed enumeration
		// progress — proof the handle's counters move while it runs.
		var id uint64
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("%s: query never became visible with progress", name)
			}
			snaps := reg.Snapshot()
			if len(snaps) == 1 && snaps[0].Steps > 0 {
				id = snaps[0].ID
				if snaps[0].Engine != eng.Name() {
					t.Fatalf("%s: handle engine = %q", name, snaps[0].Engine)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}

		if !reg.Cancel(id) {
			t.Fatalf("%s: Cancel(%d) found no live query", name, id)
		}
		select {
		case res := <-done:
			if !res.Cancelled || !res.TimedOut {
				t.Fatalf("%s: Cancelled=%v TimedOut=%v after remote cancel, want both true",
					name, res.Cancelled, res.TimedOut)
			}
			if len(res.Answers) != 0 {
				t.Fatalf("%s: odd cycle matched in a bipartite graph: %v", name, res.Answers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: query did not halt after remote cancellation", name)
		}
		reg.Deregister(h)
		if reg.Len() != 0 {
			t.Fatalf("%s: %d handles leaked after cancelled query", name, reg.Len())
		}
		waitGoroutines(t, baseline)
	}
}

// TestCallerHandlePreempts: a caller-registered handle (the server path)
// is reused rather than re-registered, and the caller keeps ownership of
// deregistration.
func TestCallerHandlePreempts(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	db := randomDB(r, 8, 8, 2)
	q := walkQuery(r, db.Graph(0), 3)
	reg := inflight.NewRegistry(8)
	h := reg.Register(inflight.RegisterOptions{Engine: "caller", Verdict: "ok"})

	eng := NewCFQL()
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	res := eng.Query(q, QueryOptions{Handle: h})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	registered, _, _ := reg.Stats()
	if registered != 1 {
		t.Fatalf("engine re-registered a caller-provided handle: registered=%d", registered)
	}
	if reg.Len() != 1 {
		t.Fatal("engine deregistered a caller-owned handle")
	}
	snaps := reg.Snapshot()
	if len(snaps) != 1 || snaps[0].GraphsDone == 0 {
		t.Fatalf("caller handle saw no progress: %+v", snaps)
	}
	reg.Deregister(h)
}
