package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
)

// allEngines returns fresh instances of every engine configuration, keyed
// by the paper's algorithm names (Table III) plus the naive scan baseline.
func allEngines() map[string]Engine {
	return map[string]Engine{
		"Grapes":        NewGrapes(),
		"GGSX":          NewGGSX(),
		"CT-Index":      NewCTIndex(),
		"CFL":           NewCFL(),
		"GraphQL":       NewGraphQL(),
		"CFQL":          NewCFQL(),
		"vcGrapes":      NewVcGrapes(),
		"vcGGSX":        NewVcGGSX(),
		"Scan-VF2":      NewScan(),
		"TurboIso":      NewTurboIso(),
		"CFQL-parallel": NewParallelCFQL(3),
		"GraphGrep":     NewGraphGrep(),
		"gIndex":        NewGIndex(),
		"TreePi":        NewTreePi(),
		"FG-Index":      NewFGIndex(),
		"CFQL+cache":    NewCached(NewCFQL(), 8),
	}
}

func randomConnected(r *rand.Rand, n, extra, labels int) *graph.Graph {
	lab := make([]graph.Label, n)
	for i := range lab {
		lab[i] = graph.Label(r.Intn(labels))
	}
	seen := map[[2]graph.VertexID]bool{}
	var edges []graph.Edge
	add := func(u, v graph.VertexID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]graph.VertexID{u, v}] {
			seen[[2]graph.VertexID{u, v}] = true
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	for v := 1; v < n; v++ {
		add(graph.VertexID(r.Intn(v)), graph.VertexID(v))
	}
	for i := 0; i < extra; i++ {
		add(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
	}
	return graph.MustFromEdges(lab, edges)
}

func walkQuery(r *rand.Rand, g *graph.Graph, qEdges int) *graph.Graph {
	start := graph.VertexID(r.Intn(g.NumVertices()))
	ids := map[graph.VertexID]graph.VertexID{start: 0}
	labels := []graph.Label{g.Label(start)}
	seen := map[[2]graph.VertexID]bool{}
	var edges []graph.Edge
	cur := start
	for steps := 0; len(edges) < qEdges && steps < 20*qEdges+40; steps++ {
		nbrs := g.Neighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		next := nbrs[r.Intn(len(nbrs))]
		a, b := cur, next
		if a > b {
			a, b = b, a
		}
		if !seen[[2]graph.VertexID{a, b}] {
			seen[[2]graph.VertexID{a, b}] = true
			if _, ok := ids[next]; !ok {
				ids[next] = graph.VertexID(len(labels))
				labels = append(labels, g.Label(next))
			}
			edges = append(edges, graph.Edge{U: ids[cur], V: ids[next]})
		}
		cur = next
	}
	if len(edges) == 0 {
		return graph.MustFromEdges([]graph.Label{g.Label(start)}, nil)
	}
	return graph.MustFromEdges(labels, edges)
}

func randomDB(r *rand.Rand, n, size, labels int) *graph.Database {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = randomConnected(r, 2+r.Intn(size), r.Intn(size), labels)
	}
	return graph.NewDatabase(gs)
}

func trueAnswers(db *graph.Database, q *graph.Graph) []int {
	var out []int
	for i := 0; i < db.Len(); i++ {
		if (&matching.VF2{}).FindFirst(q, db.Graph(i), matching.Options{}).Found() {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAllEnginesAgree is the end-to-end correctness test: every engine in
// all three categories must return exactly the true answer set.
func TestAllEnginesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		db := randomDB(r, 10+r.Intn(8), 9, 1+r.Intn(3))
		engines := allEngines()
		for name, e := range engines {
			if err := e.Build(db, BuildOptions{}); err != nil {
				t.Fatalf("%s build: %v", name, err)
			}
		}
		for k := 0; k < 5; k++ {
			var q *graph.Graph
			if k%2 == 0 {
				q = walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(5))
			} else {
				q = randomConnected(r, 2+r.Intn(4), r.Intn(3), 2)
			}
			want := trueAnswers(db, q)
			for name, e := range engines {
				res := e.Query(q, QueryOptions{})
				if res.TimedOut {
					t.Fatalf("trial %d: %s timed out without a deadline", trial, name)
				}
				if !equalInts(res.Answers, want) {
					t.Fatalf("trial %d query %d: %s answered %v, want %v",
						trial, k, name, res.Answers, want)
				}
			}
		}
	}
}

// TestEmptyQueryUniformSemantics: the degenerate empty query yields an
// empty result from every engine (a connected query graph is non-empty by
// §II-A; engines must not diverge on the corner case).
func TestEmptyQueryUniformSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db := randomDB(r, 6, 7, 2)
	empty := graph.MustFromEdges(nil, nil)
	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		res := e.Query(empty, QueryOptions{})
		if len(res.Answers) != 0 || res.Candidates != 0 {
			t.Errorf("%s: empty query produced %d answers, %d candidates",
				name, len(res.Answers), res.Candidates)
		}
	}
}

// TestCandidatesSupersetAnswers: |C(q)| >= |A(q)| for every engine, and
// candidates reported are consistent with metrics.
func TestCandidatesSupersetAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	db := randomDB(r, 12, 9, 2)
	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		for k := 0; k < 5; k++ {
			q := walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(4))
			res := e.Query(q, QueryOptions{})
			if res.Candidates < len(res.Answers) {
				t.Errorf("%s: %d candidates < %d answers", name, res.Candidates, len(res.Answers))
			}
		}
	}
}

func TestResultContains(t *testing.T) {
	res := &Result{Answers: []int{1, 4, 9}}
	for _, id := range []int{1, 4, 9} {
		if !res.Contains(id) {
			t.Errorf("Contains(%d) = false, want true", id)
		}
	}
	for _, id := range []int{0, 2, 10} {
		if res.Contains(id) {
			t.Errorf("Contains(%d) = true, want false", id)
		}
	}
	if (&Result{}).Contains(0) {
		t.Error("empty result should contain nothing")
	}
}

func TestQueryTimeSumsPhases(t *testing.T) {
	res := &Result{FilterTime: 3 * time.Millisecond, VerifyTime: 5 * time.Millisecond}
	if res.QueryTime() != 8*time.Millisecond {
		t.Errorf("QueryTime = %v, want 8ms", res.QueryTime())
	}
}

// TestVcFVIndexFree: vcFV engines report zero index memory and tolerate
// database updates without a rebuild — the paper's index-update advantage.
func TestVcFVIndexFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 8, 8, 2)
	for _, mk := range []func() Engine{NewCFL, NewGraphQL, NewCFQL} {
		e := mk()
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		if e.IndexMemory() != 0 {
			t.Errorf("%s: IndexMemory = %d, want 0", e.Name(), e.IndexMemory())
		}
		// Append a graph; the engine must see it with no rebuild.
		extra := randomConnected(r, 6, 4, 2)
		newID := db.Append(extra)
		q := walkQuery(r, extra, 2)
		res := e.Query(q, QueryOptions{})
		if !res.Contains(newID) {
			t.Errorf("%s: freshly appended graph %d missing from answers %v",
				e.Name(), newID, res.Answers)
		}
	}
}

// TestIFVIndexMemoryPositive: index-based engines report their footprint.
func TestIFVIndexMemoryPositive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	db := randomDB(r, 8, 8, 2)
	for _, mk := range []func() Engine{NewGrapes, NewGGSX, NewCTIndex, NewVcGrapes, NewVcGGSX} {
		e := mk()
		if e.IndexMemory() != 0 {
			t.Errorf("%s: IndexMemory before Build = %d, want 0", e.Name(), e.IndexMemory())
		}
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		if e.IndexMemory() <= 0 {
			t.Errorf("%s: IndexMemory = %d, want > 0", e.Name(), e.IndexMemory())
		}
	}
}

// TestBuildBudgetPropagates: index construction budgets surface as errors
// (the harness turns them into OOT cells).
func TestBuildBudgetPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := randomDB(r, 10, 10, 2)
	for _, mk := range []func() Engine{NewGrapes, NewGGSX, NewCTIndex, NewVcGrapes, NewVcGGSX} {
		e := mk()
		if err := e.Build(db, BuildOptions{MaxFeatures: 5}); err == nil {
			t.Errorf("%s: Build with MaxFeatures=5 succeeded, want budget error", e.Name())
		}
	}
}

// TestQueryDeadline: an expired deadline yields TimedOut quickly.
func TestQueryDeadline(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	db := randomDB(r, 10, 8, 2)
	q := walkQuery(r, db.Graph(0), 3)
	for name, e := range allEngines() {
		if name == "FG-Index" {
			// FG-Index may answer small queries verification-free — no
			// work to time out on.
			continue
		}
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		res := e.Query(q, QueryOptions{Context: ctx})
		cancel()
		if !res.TimedOut {
			// Engines whose filtering empties the candidate set may finish
			// legitimately; only flag when work was actually done.
			if res.Candidates > 0 && len(res.Answers) > 0 {
				t.Errorf("%s: expired deadline, but TimedOut=false with %d answers",
					name, len(res.Answers))
			}
		}
	}
}

// TestStepBudgetMarksTimeout: exploding verification is cut off per graph.
func TestStepBudgetMarksTimeout(t *testing.T) {
	// One pathological data graph: a 12-clique, single label; query: a
	// 5-clique. Filtering cannot rule it out; verification would explode
	// without a budget... but finding the *first* embedding in a clique is
	// actually easy, so use a near-clique with the query slightly
	// non-embeddable: query 5-clique, data = 12-clique minus enough edges
	// to kill all 5-cliques is hard to construct; instead give the query a
	// label pattern absent from the data only at the last position.
	n := 12
	labels := make([]graph.Label, n)
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	g := graph.MustFromEdges(labels, edges)
	db := graph.NewDatabase([]*graph.Graph{g})

	// Query: 5-clique plus a pendant vertex with a label that exists
	// nowhere — no, that would be filtered. Use a 5-clique plus pendant
	// with label 0 but degree constraints satisfiable; the 5-clique query
	// has 120 embeddings per vertex set, so FindFirst is fast. To force
	// budget use, use a 6-vertex query that is NOT a subgraph: a 6-clique
	// needs 15 edges; remove one data edge from every 6-subset is not
	// feasible. Instead: query = 6-clique, data = complete 12-graph minus
	// a perfect matching (every 6 vertices contain a missing edge? no...).
	//
	// Simplest robust construction: data = complete tripartite-ish graph
	// with no triangle; query = triangle. Every pair from different parts
	// is connected; triangles exist in tripartite graphs, so use bipartite:
	// complete bipartite K6,6 has no triangles, but VF2 must search to
	// prove it.
	var bedges []graph.Edge
	for i := 0; i < 6; i++ {
		for j := 6; j < 12; j++ {
			bedges = append(bedges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	bip := graph.MustFromEdges(make([]graph.Label, 12), bedges)
	db = graph.NewDatabase([]*graph.Graph{bip})
	tri := graph.MustFromEdges(make([]graph.Label, 3),
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})

	e := NewScan()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	res := e.Query(tri, QueryOptions{StepBudgetPerGraph: 3})
	if !res.TimedOut {
		t.Errorf("StepBudgetPerGraph=3 on K6,6 triangle search: TimedOut=false (steps=%d)",
			res.VerifySteps)
	}
	if len(res.Answers) != 0 {
		t.Errorf("triangle reported in bipartite graph: %v", res.Answers)
	}
}

// TestParallelVerificationMatchesSequential: Grapes with 1 and 6 workers
// must agree.
func TestParallelVerificationMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 20, 8, 2)
	e := NewGrapes()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(4))
		seq := e.Query(q, QueryOptions{Workers: 1})
		par := e.Query(q, QueryOptions{Workers: 6})
		if !equalInts(seq.Answers, par.Answers) {
			t.Fatalf("parallel answers %v != sequential %v", par.Answers, seq.Answers)
		}
		if seq.Candidates != par.Candidates {
			t.Fatalf("parallel candidates %d != sequential %d", par.Candidates, seq.Candidates)
		}
	}
}

// TestAuxMemoryReported: vcFV engines report candidate-set memory on
// queries with candidates.
func TestAuxMemoryReported(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	db := randomDB(r, 8, 8, 2)
	e := NewCFQL()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 2)
	res := e.Query(q, QueryOptions{})
	if res.Candidates > 0 && res.AuxMemory <= 0 {
		t.Errorf("AuxMemory = %d with %d candidates", res.AuxMemory, res.Candidates)
	}
}

// TestEngineNames: names match the paper's Table III.
func TestEngineNames(t *testing.T) {
	want := map[string]func() Engine{
		"Grapes": NewGrapes, "GGSX": NewGGSX, "CT-Index": NewCTIndex,
		"CFL": NewCFL, "GraphQL": NewGraphQL, "CFQL": NewCFQL,
		"vcGrapes": NewVcGrapes, "vcGGSX": NewVcGGSX, "Scan-VF2": NewScan,
	}
	for name, mk := range want {
		if got := mk().Name(); got != name {
			t.Errorf("engine name = %q, want %q", got, name)
		}
	}
}
