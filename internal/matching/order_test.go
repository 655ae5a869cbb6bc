package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"subgraphquery/internal/budget"
	"subgraphquery/internal/graph"
)

func TestCTIndexOrderDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(r, 6+r.Intn(10), r.Intn(12), 1+r.Intn(3))
		q := randomQueryFrom(r, g, 1+r.Intn(5))
		a := CTIndexOrder(q, g)
		b := CTIndexOrder(q, g)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("CTIndexOrder not deterministic: %v vs %v", a, b)
			}
		}
	}
}

func TestCTIndexOrderStartsHighDegree(t *testing.T) {
	// A star query: the center has the maximum degree and must come first.
	q := graph.MustFromEdges([]graph.Label{0, 1, 1, 1},
		[]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	g := graph.MustFromEdges([]graph.Label{0, 1, 1, 1, 1},
		[]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	order := CTIndexOrder(q, g)
	if order[0] != 0 {
		t.Errorf("CTIndexOrder starts at %d, want the star center 0", order[0])
	}
}

func TestGraphQLOrderDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(313))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(r, 6+r.Intn(10), r.Intn(12), 1+r.Intn(3))
		q := randomQueryFrom(r, g, 1+r.Intn(5))
		cand := GraphQLFilter(q, g, FilterOptions{})
		if cand.AnyEmpty() {
			continue
		}
		a := GraphQLOrder(q, cand)
		b := GraphQLOrder(q, cand)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("GraphQLOrder not deterministic: %v vs %v", a, b)
			}
		}
	}
}

func TestBudgetStepLimit(t *testing.T) {
	opts := Options{StepBudget: 3}
	b := newBudget(&opts)
	for i := 0; i < 3; i++ {
		if b.spend() {
			t.Fatalf("aborted at step %d, budget is 3", i+1)
		}
	}
	if !b.spend() {
		t.Error("step 4 should exceed StepBudget 3")
	}
	if !b.aborted {
		t.Error("aborted flag not set")
	}
}

func TestBudgetDeadline(t *testing.T) {
	opts := Options{Deadline: time.Now().Add(-time.Second)}
	b := newBudget(&opts)
	// The deadline is polled every budget.StepStride steps.
	aborted := false
	for i := 0; i < budget.StepStride+1; i++ {
		if b.spend() {
			aborted = true
			break
		}
	}
	if !aborted {
		t.Error("expired deadline never aborted the budget")
	}
}

func TestBudgetUnlimited(t *testing.T) {
	opts := Options{}
	b := newBudget(&opts)
	for i := 0; i < 10000; i++ {
		if b.spend() {
			t.Fatal("unlimited budget aborted")
		}
	}
	if b.steps != 10000 {
		t.Errorf("steps = %d, want 10000", b.steps)
	}
}

func TestEnumerateRejectsBadOrders(t *testing.T) {
	q, g := fig1()
	cand := CFLFilter(q, g, FilterOptions{})
	cases := map[string][]graph.VertexID{
		"too-short":    {0, 1},
		"disconnected": {3, 0, 1, 2},
	}
	for name, order := range cases {
		if _, err := Enumerate(q, g, cand, order, Options{}); err == nil {
			t.Errorf("Enumerate accepted %s order", name)
		}
	}
}

// TestEnumerateRejectsNonPermutations: an order of the right length that
// repeats a vertex or names one outside q is an error, not a search. The
// path 0-1-2 (labels 0, 0, 1) has no embedding in a label-0 triangle plus an
// isolated label-1 vertex, yet [0 1 1] never maps vertex 2 and would report
// the triangle's six ordered edges.
func TestEnumerateRejectsNonPermutations(t *testing.T) {
	q := graph.MustFromEdges([]graph.Label{0, 0, 1}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	g := graph.MustFromEdges([]graph.Label{0, 0, 0, 1}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	cand := NewCandidates(3, 4)
	for _, v := range []graph.VertexID{0, 1, 2} {
		cand.Add(0, v)
		cand.Add(1, v)
	}
	cand.Add(2, 3)
	if r, err := Enumerate(q, g, cand, []graph.VertexID{0, 1, 2}, Options{}); err != nil || r.Found() {
		t.Fatalf("order [0 1 2]: %+v, %v; want no embedding", r, err)
	}
	for _, order := range [][]graph.VertexID{{0, 1, 1}, {0, 1, 0}, {0, 1, 3}, {1, 0, 7}} {
		if r, err := Enumerate(q, g, cand, order, Options{}); err == nil {
			t.Errorf("order %v accepted: %+v", order, r)
		}
		if VerifyOrder(q, order) == nil {
			t.Errorf("VerifyOrder accepted %v", order)
		}
	}
}

func TestResultFound(t *testing.T) {
	if (Result{}).Found() {
		t.Error("zero result should not be Found")
	}
	if !(Result{Embeddings: 2}).Found() {
		t.Error("result with embeddings should be Found")
	}
}

// TestGraphQLOrderWordsMatchLists: the word order of a query of at most 64
// vertices is the flag-scanning one, vertex for vertex — over every
// (query, data graph) pair of the generated corpora with CFL's and
// GraphQL's candidates, and for 64-vertex, disconnected and edgeless
// queries; a 65-vertex query takes the list path.
func TestGraphQLOrderWordsMatchLists(t *testing.T) {
	s, ref := NewScratch(), NewScratch()
	check := func(at string, q *graph.Graph, cand *Candidates) {
		t.Helper()
		got := GraphQLOrderScratch(q, cand, s)
		if want := graphQLOrderLists(q, cand, ref); !slices.Equal(got, want) {
			t.Fatalf("%s: order %v, list order %v", at, got, want)
		}
	}
	pairs := 0
	for name, c := range smallCorpora(t) {
		for qi, q := range c.queries {
			for gid, g := range c.db.Graphs() {
				check(fmt.Sprintf("%s q%d g%d CFL", name, qi, gid), q, CFLFilter(q, g, FilterOptions{Scratch: NewScratch()}))
				check(fmt.Sprintf("%s q%d g%d GraphQL", name, qi, gid), q, GraphQLFilter(q, g, FilterOptions{}))
				pairs++
			}
		}
	}
	// Wide and disconnected queries, against themselves and with every
	// candidate count equal, so that degrees and ids break the ties.
	two := func(a, b *graph.Graph) *graph.Graph {
		labels := append(slices.Clone(a.Labels()), b.Labels()...)
		edges := a.Edges()
		for _, e := range b.Edges() {
			edges = append(edges, graph.Edge{U: e.U + graph.VertexID(a.NumVertices()), V: e.V + graph.VertexID(a.NumVertices())})
		}
		return graph.MustFromEdges(labels, edges)
	}
	isolated := graph.MustFromEdges([]graph.Label{2, 0, 1}, nil)
	for name, q := range map[string]*graph.Graph{
		"ring-64": hubRing(64), "ring-65": hubRing(65), "ring-30+ring-34": two(hubRing(30), hubRing(34)),
		"isolated+ring-20": two(isolated, hubRing(20)), "ring-20+isolated": two(hubRing(20), isolated), "edgeless": isolated,
	} {
		check(name+" CFL", q, CFLFilter(q, q, FilterOptions{Scratch: NewScratch()}))
		uniform := &Candidates{Sets: make([][]graph.VertexID, q.NumVertices())}
		check(name+" uniform", q, uniform)
	}
	if pairs < 100 {
		t.Errorf("only %d (query, graph) pairs", pairs)
	}
}
