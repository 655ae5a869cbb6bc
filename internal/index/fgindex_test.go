package index

import (
	"math/rand"
	"testing"

	"subgraphquery/internal/graph"
)

func TestCanonicalCodeIsomorphismInvariant(t *testing.T) {
	// The same labeled triangle-with-tail under different vertex
	// numberings must canonicalize identically.
	a := graph.MustFromEdges([]graph.Label{0, 1, 2, 1},
		[]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}})
	// Image of a under the vertex permutation 0→2, 1→3, 2→1, 3→0.
	b := graph.MustFromEdges([]graph.Label{1, 2, 0, 1},
		[]graph.Edge{{U: 2, V: 3}, {U: 2, V: 1}, {U: 3, V: 1}, {U: 1, V: 0}})
	if canonicalSmallGraphCode(a) != canonicalSmallGraphCode(b) {
		t.Errorf("isomorphic graphs canonicalize differently:\n%s\n%s",
			canonicalSmallGraphCode(a), canonicalSmallGraphCode(b))
	}
	// A different structure with identical label multiset must differ.
	c := graph.MustFromEdges([]graph.Label{0, 1, 2, 1}, // path, no triangle
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if canonicalSmallGraphCode(a) == canonicalSmallGraphCode(c) {
		t.Error("non-isomorphic graphs share a canonical code")
	}
}

func TestCanonicalCodeRandomPermutations(t *testing.T) {
	r := rand.New(rand.NewSource(503))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(5)
		g := randomConnected(r, n, r.Intn(2*n), 1+r.Intn(3))
		base := canonicalSmallGraphCode(g)
		// Apply a random vertex permutation and re-canonicalize.
		perm := r.Perm(n)
		labels := make([]graph.Label, n)
		for i := 0; i < n; i++ {
			labels[perm[i]] = g.Label(graph.VertexID(i))
		}
		var edges []graph.Edge
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{
				U: graph.VertexID(perm[e.U]),
				V: graph.VertexID(perm[e.V]),
			})
		}
		h := graph.MustFromEdges(labels, edges)
		if canonicalSmallGraphCode(h) != base {
			t.Fatalf("trial %d: permutation changed the canonical code", trial)
		}
	}
}

func TestFGIndexExactAnswer(t *testing.T) {
	r := rand.New(rand.NewSource(509))
	db := randomDB(r, 12, 8, 2)
	ix := NewFGIndex()
	ix.support = 0.01 // keep almost every feature
	if err := ix.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for k := 0; k < 10; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(3))
		if q.NumEdges() > fgMaxFeatureEdges {
			continue
		}
		ids, exact := ix.FilterExact(q)
		if !exact {
			continue
		}
		hits++
		// Exact answers must equal the true answer set.
		want := trueAnswers(db, q)
		if len(ids) != len(want) {
			t.Fatalf("exact answer %v != truth (%d graphs)", ids, len(want))
		}
		for _, id := range ids {
			if !want[id] {
				t.Fatalf("exact answer contains non-answer %d", id)
			}
		}
	}
	if hits == 0 {
		t.Error("no verification-free hits on small queries drawn from the database")
	}
}

func TestEnumerateConnectedSubgraphsFindsCycles(t *testing.T) {
	// A labeled triangle's canonical code must be produced by the
	// enumeration (cycles are connected subgraphs, not trees).
	g := graph.MustFromEdges([]graph.Label{0, 1, 2},
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	want := canonicalSmallGraphCode(g)
	found := false
	enumerateConnectedSubgraphs(g, 3, func(code string) bool {
		if code == want {
			found = true
		}
		return true
	})
	if !found {
		t.Error("triangle feature never enumerated")
	}
}

func TestIsSingleVertexGraphCode(t *testing.T) {
	single := graph.MustFromEdges([]graph.Label{7}, nil)
	if !isSingleVertexGraphCode(canonicalSmallGraphCode(single)) {
		t.Error("single-vertex code not recognized")
	}
	pair := graph.MustFromEdges([]graph.Label{1, 2}, []graph.Edge{{U: 0, V: 1}})
	if isSingleVertexGraphCode(canonicalSmallGraphCode(pair)) {
		t.Error("two-vertex code misclassified as single-vertex")
	}
}
