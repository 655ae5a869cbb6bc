package matching

import (
	"math/rand"
	"testing"
	"time"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/graph"
)

// fig1 returns the paper's Figure 1 example: query q (triangle u0,u1,u2 +
// pendant u3) and data graph G with the extra vertex v4.
func fig1() (q, g *graph.Graph) {
	q = graph.MustFromEdges(
		[]graph.Label{0, 1, 2, 1},
		[]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}},
	)
	g = graph.MustFromEdges(
		[]graph.Label{0, 1, 2, 1, 0},
		[]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 4}},
	)
	return q, g
}

// matchers lists every complete matcher under test by name: the catalogue
// plus the ones that run their own search.
func matchers() map[string]func(q, g *graph.Graph, opts Options) Result {
	ms := map[string]func(q, g *graph.Graph, opts Options) Result{
		"VF2":      func(q, g *graph.Graph, o Options) Result { return (&VF2{}).Run(q, g, o) },
		"VF2-CT":   func(q, g *graph.Graph, o Options) Result { return (&VF2{Order: CTIndexOrder(q, g)}).Run(q, g, o) },
		"TurboIso": TurboIso{}.Run,
	}
	for _, m := range Matchers {
		ms[m.Name] = m.Run
	}
	return ms
}

func TestFig1Example(t *testing.T) {
	q, g := fig1()
	want := bruteForceCount(q, g)
	if want == 0 {
		t.Fatal("figure 1 must contain at least one embedding")
	}
	for name, run := range matchers() {
		t.Run(name, func(t *testing.T) {
			got := run(q, g, Options{})
			if got.Embeddings != want {
				t.Errorf("%s found %d embeddings, want %d", name, got.Embeddings, want)
			}
			if got.Aborted {
				t.Errorf("%s aborted unexpectedly", name)
			}
		})
	}
}

func TestAllMatchersAgreeWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		g := randomConnectedGraph(r, 4+r.Intn(14), r.Intn(16), 1+r.Intn(4))
		var q *graph.Graph
		if trial%3 == 0 {
			// Query extracted from g: embeddings guaranteed.
			q = randomQueryFrom(r, g, 1+r.Intn(6))
		} else {
			// Independent random query: often no embeddings.
			q = randomConnectedGraph(r, 2+r.Intn(5), r.Intn(4), 1+r.Intn(4))
		}
		want := bruteForceCount(q, g)
		for name, run := range matchers() {
			got := run(q, g, Options{})
			if got.Aborted {
				t.Fatalf("trial %d: %s aborted", trial, name)
			}
			if got.Embeddings != want {
				t.Fatalf("trial %d: %s found %d embeddings, brute force found %d\nq=%v\ng=%v",
					trial, name, got.Embeddings, want, q, g)
			}
		}
	}
}

func TestFindFirstConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randomConnectedGraph(r, 4+r.Intn(12), r.Intn(14), 1+r.Intn(3))
		q := randomQueryFrom(r, g, 1+r.Intn(5))
		want := bruteForceCount(q, g) > 0
		checks := map[string]Result{"VF2": (&VF2{}).FindFirst(q, g, Options{})}
		for _, m := range Matchers {
			checks[m.Name] = m.FindFirst(q, g, Options{})
		}
		for name, res := range checks {
			if res.Found() != want {
				t.Fatalf("trial %d: %s.FindFirst = %v, want %v", trial, name, res.Found(), want)
			}
			if res.Found() && res.Embeddings != 1 {
				t.Fatalf("trial %d: %s.FindFirst returned %d embeddings", trial, name, res.Embeddings)
			}
		}
	}
}

func TestEmbeddingsAreValid(t *testing.T) {
	q, g := fig1()
	validate := func(t *testing.T, mapping []graph.VertexID) {
		t.Helper()
		seen := map[graph.VertexID]bool{}
		for u := 0; u < q.NumVertices(); u++ {
			v := mapping[u]
			if seen[v] {
				t.Fatalf("mapping not injective: %v", mapping)
			}
			seen[v] = true
			if q.Label(graph.VertexID(u)) != g.Label(v) {
				t.Fatalf("label mismatch at %d: %v", u, mapping)
			}
		}
		for _, e := range q.Edges() {
			if !g.HasEdge(mapping[e.U], mapping[e.V]) {
				t.Fatalf("edge (%d,%d) not preserved: %v", e.U, e.V, mapping)
			}
		}
	}
	for name, run := range matchers() {
		t.Run(name, func(t *testing.T) {
			count := 0
			run(q, g, Options{OnEmbedding: func(m []graph.VertexID) bool {
				validate(t, m)
				count++
				return true
			}})
			if count == 0 {
				t.Error("no embeddings emitted")
			}
		})
	}
}

func TestOnEmbeddingEarlyStop(t *testing.T) {
	q, g := fig1()
	for name, run := range matchers() {
		t.Run(name, func(t *testing.T) {
			calls := 0
			res := run(q, g, Options{OnEmbedding: func([]graph.VertexID) bool {
				calls++
				return false
			}})
			if calls != 1 {
				t.Errorf("callback called %d times after returning false, want 1", calls)
			}
			if res.Embeddings != 1 {
				t.Errorf("Embeddings = %d, want 1", res.Embeddings)
			}
		})
	}
}

func TestLimit(t *testing.T) {
	// A star query on a clique yields many embeddings; check limits.
	labels := make([]graph.Label, 8)
	var edges []graph.Edge
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	g := graph.MustFromEdges(labels, edges)
	q := graph.MustFromEdges([]graph.Label{0, 0, 0}, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	total := bruteForceCount(q, g) // 8*7*6 = 336
	if total != 336 {
		t.Fatalf("brute force = %d, want 336", total)
	}
	for name, run := range matchers() {
		t.Run(name, func(t *testing.T) {
			res := run(q, g, Options{Limit: 10})
			if res.Embeddings != 10 {
				t.Errorf("Limit=10 found %d embeddings", res.Embeddings)
			}
			res = run(q, g, Options{})
			if res.Embeddings != total {
				t.Errorf("unlimited found %d embeddings, want %d", res.Embeddings, total)
			}
		})
	}
}

func TestStepBudgetAborts(t *testing.T) {
	// A label-free 4-clique query against a 12-clique explodes; a tiny step
	// budget must abort rather than hang, and must report Aborted.
	n := 12
	labels := make([]graph.Label, n)
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	g := graph.MustFromEdges(labels, edges)
	q := graph.MustFromEdges(make([]graph.Label, 5), []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4},
		{U: 2, V: 3}, {U: 2, V: 4}, {U: 3, V: 4},
	})
	for name, run := range matchers() {
		t.Run(name, func(t *testing.T) {
			res := run(q, g, Options{StepBudget: 50})
			if !res.Aborted {
				t.Errorf("StepBudget=50 did not abort (found %d in %d steps)", res.Embeddings, res.Steps)
			}
		})
	}
}

func TestDeadlineAborts(t *testing.T) {
	n := 14
	labels := make([]graph.Label, n)
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	g := graph.MustFromEdges(labels, edges)
	q := graph.MustFromEdges(make([]graph.Label, 7), func() []graph.Edge {
		var es []graph.Edge
		for i := 0; i < 7; i++ {
			for j := i + 1; j < 7; j++ {
				es = append(es, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
			}
		}
		return es
	}())
	res := (&VF2{}).Run(q, g, Options{Deadline: time.Now().Add(5 * time.Millisecond)})
	if !res.Aborted {
		t.Skip("machine enumerated a 7-clique in a 14-clique within 5ms") // absurdly fast
	}
}

func TestEmptyAndTrivialQueries(t *testing.T) {
	_, g := fig1()
	empty := graph.MustFromEdges(nil, nil)
	single := graph.MustFromEdges([]graph.Label{1}, nil)
	wrongLabel := graph.MustFromEdges([]graph.Label{9}, nil)
	for name, run := range matchers() {
		t.Run(name, func(t *testing.T) {
			if res := run(empty, g, Options{}); res.Embeddings != 1 {
				t.Errorf("empty query: %d embeddings, want 1 (the empty mapping)", res.Embeddings)
			}
			if res := run(single, g, Options{}); res.Embeddings != 2 {
				t.Errorf("single-vertex query label 1: %d embeddings, want 2", res.Embeddings)
			}
			if res := run(wrongLabel, g, Options{}); res.Embeddings != 0 {
				t.Errorf("absent label query: %d embeddings, want 0", res.Embeddings)
			}
			_ = name
		})
	}
}

func TestQueryLargerThanData(t *testing.T) {
	q, g := fig1() // q has 4 vertices
	small := graph.MustFromEdges([]graph.Label{0, 1}, []graph.Edge{{U: 0, V: 1}})
	for name, run := range matchers() {
		if res := run(q, small, Options{}); res.Embeddings != 0 {
			t.Errorf("%s: query larger than data found %d embeddings", name, res.Embeddings)
		}
	}
	_ = g
}

// TestRunStopsInFilterOnClosedCancel: Run hands Cancel to the filter pass,
// so under an already-closed Cancel a pair that passes the label-pair
// prefilter comes back Aborted from the filter's first stage boundary — on
// the word path and on the list path — with no search step taken, instead of
// being filtered to completion and searched up to the first checkpoint.
func TestRunStopsInFilterOnClosedCancel(t *testing.T) {
	q, g := fig1()
	closed := make(chan struct{})
	close(closed)
	for _, m := range []Matcher{CFL, GraphQL, CFQL} {
		for path, g := range map[string]*graph.Graph{"word": g, "list": padded(t, g, domain.WordVertices+1)} {
			if m.Filter(q, g, FilterOptions{}).AnyEmpty() {
				t.Fatalf("%s/%s: the pair does not pass the filter", m.Name, path)
			}
			if res := m.Run(q, g, Options{Cancel: closed}); !res.Aborted || res.Steps != 0 || res.Embeddings != 0 {
				t.Errorf("%s/%s: closed Cancel: got %+v, want Aborted before any step", m.Name, path, res)
			}
		}
	}
}
