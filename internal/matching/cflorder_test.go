package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"subgraphquery/internal/graph"
)

// cflOrderRef is CFLOrderScratch as it was before its paths moved onto the
// arena: a graph.BFSTree, the 2-core from graph.TwoCore, paths collected by
// a recursive walk and ranked with sort.SliceStable. The arena version must
// return the same order.
func cflOrderRef(q, g *graph.Graph, cand *Candidates) []graph.VertexID {
	n := q.NumVertices()
	if n == 0 {
		return nil
	}
	s := NewScratch()
	root := cflRoot(q, g, s)
	tree := graph.NewBFSTree(q, root)
	core := q.TwoCore()

	var paths [][]graph.VertexID
	var walk func(u graph.VertexID, prefix []graph.VertexID)
	walk = func(u graph.VertexID, prefix []graph.VertexID) {
		prefix = append(prefix, u)
		if len(tree.Children[u]) == 0 {
			paths = append(paths, append([]graph.VertexID(nil), prefix...))
			return
		}
		for _, c := range tree.Children[u] {
			walk(c, prefix)
		}
	}
	walk(root, nil)

	type scored struct {
		path   []graph.VertexID
		cost   float64
		inCore bool
	}
	ranked := make([]scored, len(paths))
	for i, p := range paths {
		ranked[i] = scored{
			path:   p,
			cost:   pathEmbeddingEstimate(g, q, cand, p, s),
			inCore: pathInCore(core, p),
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].inCore != ranked[j].inCore {
			return ranked[i].inCore
		}
		return ranked[i].cost < ranked[j].cost
	})

	var order []graph.VertexID
	in := make([]bool, n)
	for _, sc := range ranked {
		for _, u := range sc.path {
			if !in[u] {
				in[u] = true
				order = append(order, u)
			}
		}
	}
	return order
}

// TestCFLOrderMatchesReference: on the gen corpora and on random graphs,
// with one arena reused across every pair, CFLOrderScratch returns the
// reference order.
func TestCFLOrderMatchesReference(t *testing.T) {
	s := NewScratch()
	compared := 0
	check := func(at string, q, g *graph.Graph) {
		t.Helper()
		cand := CFLFilter(q, g, FilterOptions{})
		if cand.AnyEmpty() {
			return
		}
		compared++
		want := cflOrderRef(q, g, cand)
		if got := CFLOrderScratch(q, g, cand, s); !slices.Equal(got, want) {
			t.Fatalf("%s: order %v, reference %v", at, got, want)
		}
	}
	for name, c := range smallCorpora(t) {
		for qi, q := range c.queries {
			for gi, g := range c.db.Graphs() {
				check(fmt.Sprintf("%s query %d graph %d", name, qi, gi), q, g)
			}
		}
	}
	r := rand.New(rand.NewSource(331))
	for trial := 0; trial < 200; trial++ {
		g := randomConnectedGraph(r, 4+r.Intn(30), r.Intn(40), 1+r.Intn(4))
		check(fmt.Sprintf("random trial %d", trial), randomQueryFrom(r, g, 1+r.Intn(10)), g)
	}
	if compared < 100 {
		t.Fatalf("only %d pairs passed the filter, want at least 100", compared)
	}
}
