package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/scratch"
)

// filters lists every Filter implementation (the preprocessing phases of
// the vcFV algorithms) by name.
func filters() map[string]func(q, g *graph.Graph) *Candidates {
	return map[string]func(q, g *graph.Graph) *Candidates{
		"GraphQL": func(q, g *graph.Graph) *Candidates { return GraphQLFilter(q, g, FilterOptions{}) },
		"CFL":     func(q, g *graph.Graph) *Candidates { return CFLFilter(q, g, FilterOptions{}) },
	}
}

// TestFilterCompleteness is the Definition III.1 property test: for every
// embedding found by brute force, the image of each query vertex must be in
// that vertex's candidate set — unless the filter already proved
// non-containment by emptying some set, which must then never happen when
// an embedding exists.
func TestFilterCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		g := randomConnectedGraph(r, 4+r.Intn(16), r.Intn(20), 1+r.Intn(4))
		q := randomQueryFrom(r, g, 1+r.Intn(7))
		embeddings := bruteForceEmbeddings(q, g)
		for name, filter := range filters() {
			cand := filter(q, g)
			if len(embeddings) > 0 && cand.AnyEmpty() {
				t.Fatalf("trial %d: %s emptied a candidate set although %d embeddings exist",
					trial, name, len(embeddings))
			}
			for _, emb := range embeddings {
				for u, v := range emb {
					if !cand.Contains(graph.VertexID(u), v) {
						t.Fatalf("trial %d: %s dropped mapping (%d,%d) of a real embedding",
							trial, name, u, v)
					}
				}
			}
		}
	}
}

// TestFilterSoundLabels checks that candidates always satisfy the basic
// label and degree requirements.
func TestFilterSoundLabels(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := randomConnectedGraph(r, 5+r.Intn(12), r.Intn(15), 1+r.Intn(4))
		q := randomQueryFrom(r, g, 1+r.Intn(5))
		for name, filter := range filters() {
			cand := filter(q, g)
			for u := 0; u < q.NumVertices(); u++ {
				for _, v := range cand.Sets[u] {
					if g.Label(v) != q.Label(graph.VertexID(u)) {
						t.Fatalf("%s: candidate %d for %d has wrong label", name, v, u)
					}
					if g.Degree(v) < q.Degree(graph.VertexID(u)) {
						t.Fatalf("%s: candidate %d for %d has insufficient degree", name, v, u)
					}
				}
			}
		}
	}
}

// TestFilterPrecisionOrdering: the refined filters never admit more
// candidates than the plain label-degree filter would.
func TestFilterNoWeakerThanLabelDegree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randomConnectedGraph(r, 5+r.Intn(12), r.Intn(15), 1+r.Intn(3))
		q := randomQueryFrom(r, g, 1+r.Intn(5))
		ld := 0
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.VertexID(u)
			for v := 0; v < g.NumVertices(); v++ {
				vv := graph.VertexID(v)
				if g.Label(vv) == q.Label(uu) && g.Degree(vv) >= q.Degree(uu) {
					ld++
				}
			}
		}
		for name, filter := range filters() {
			if got := filter(q, g).TotalSize(); got > ld {
				t.Fatalf("%s admitted %d candidates, label-degree admits %d", name, got, ld)
			}
		}
	}
}

func TestFig1Candidates(t *testing.T) {
	q, g := fig1()
	// Example III.1 expects Φ(u1)={v1}, Φ(u2)={v2}, Φ(u3)={v3}; Φ(u0) may
	// be {v0} or {v0,v4} depending on filter strength. v4 has degree 1 so
	// both filters must exclude it (u0 has degree 2).
	for name, filter := range filters() {
		cand := filter(q, g)
		if !cand.Contains(0, 0) || !cand.Contains(1, 1) || !cand.Contains(2, 2) || !cand.Contains(3, 3) {
			t.Errorf("%s: missing identity candidates: %v", name, cand.Sets)
		}
		if cand.Contains(0, 4) {
			t.Errorf("%s: v4 (degree 1) should not be a candidate for u0 (degree 2)", name)
		}
	}
}

func TestCandidatesBasics(t *testing.T) {
	c := NewCandidates(2, 10)
	c.Add(0, 3)
	c.Add(0, 3) // duplicate ignored
	c.Add(0, 7)
	c.Add(1, 2)
	if c.Count(0) != 2 || c.Count(1) != 1 {
		t.Fatalf("counts = %d,%d, want 2,1", c.Count(0), c.Count(1))
	}
	if !c.Contains(0, 3) || c.Contains(0, 4) || !c.Contains(1, 2) {
		t.Error("Contains inconsistent with Add")
	}
	if c.AnyEmpty() {
		t.Error("no set should be empty")
	}
	c.Retain(0, func(v graph.VertexID) bool { return v == 7 })
	if c.Count(0) != 1 || c.Contains(0, 3) || !c.Contains(0, 7) {
		t.Error("Retain misbehaved")
	}
	c.Retain(1, func(graph.VertexID) bool { return false })
	if !c.AnyEmpty() {
		t.Error("AnyEmpty should be true after clearing set 1")
	}
	if c.TotalSize() != 1 {
		t.Errorf("TotalSize = %d, want 1", c.TotalSize())
	}
	if c.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint should be positive")
	}
}

func TestBitset(t *testing.T) {
	var b scratch.Bits
	f := func(bits []uint16) bool {
		b.Reset(1 << 16) // O(1) epoch clear between property-test rounds
		ref := map[uint32]bool{}
		for i, raw := range bits {
			v := uint32(raw)
			if i%3 == 2 {
				b.Clear(v)
				delete(ref, v)
			} else {
				b.Set(v)
				ref[v] = true
			}
		}
		for v := range ref {
			if !b.Get(v) {
				return false
			}
		}
		for _, raw := range bits {
			if b.Get(uint32(raw)) != ref[uint32(raw)] {
				return false
			}
		}
		return b.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCFLRootSelection(t *testing.T) {
	q, g := fig1()
	root := cflRoot(q, g, NewScratch())
	// u2 (label C, unique in G, degree 3) has ratio 1/3 — the minimum.
	if root != 2 {
		t.Errorf("cflRoot = %d, want 2", root)
	}
}

func TestOrdersAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := randomConnectedGraph(r, 5+r.Intn(12), r.Intn(15), 1+r.Intn(3))
		q := randomQueryFrom(r, g, 1+r.Intn(6))
		cand := GraphQLFilter(q, g, FilterOptions{})
		if cand.AnyEmpty() {
			continue
		}
		if err := VerifyOrder(q, GraphQLOrder(q, cand)); err != nil {
			t.Fatalf("GraphQLOrder invalid: %v", err)
		}
		cfl := CFLFilter(q, g, FilterOptions{})
		if cfl.AnyEmpty() {
			continue
		}
		if err := VerifyOrder(q, CFLOrder(q, g, cfl)); err != nil {
			t.Fatalf("CFLOrder invalid: %v", err)
		}
		if err := VerifyOrder(q, CTIndexOrder(q, g)); err != nil {
			t.Fatalf("CTIndexOrder invalid: %v", err)
		}
		if err := VerifyOrder(q, idOrder(q, nil, nil, nil)); err != nil {
			t.Fatalf("idOrder invalid: %v", err)
		}
	}
}

func TestGraphQLOrderStartsAtRarest(t *testing.T) {
	q, g := fig1()
	cand := GraphQLFilter(q, g, FilterOptions{})
	order := GraphQLOrder(q, cand)
	// The first vertex must achieve the global minimum candidate count.
	minCount := cand.Count(order[0])
	for u := 0; u < q.NumVertices(); u++ {
		if cand.Count(graph.VertexID(u)) < minCount {
			t.Errorf("order starts at %d (count %d) but %d has count %d",
				order[0], minCount, u, cand.Count(graph.VertexID(u)))
		}
	}
}

func TestCFLOrderPrioritizesCore(t *testing.T) {
	q, g := fig1()
	cand := CFLFilter(q, g, FilterOptions{})
	order := CFLOrder(q, g, cand)
	core := q.TwoCore()
	// u3 is the only non-core vertex; with core-first ordering it must come
	// after all the triangle vertices.
	pos := map[graph.VertexID]int{}
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < q.NumVertices(); u++ {
		if core[u] && pos[graph.VertexID(u)] > pos[3] {
			t.Errorf("core vertex %d ordered after non-core vertex 3: %v", u, order)
		}
	}
}

func TestVerifyOrderRejects(t *testing.T) {
	q, _ := fig1()
	cases := map[string][]graph.VertexID{
		"short":        {0, 1},
		"repeat":       {0, 1, 1, 2},
		"out-of-range": {0, 1, 2, 9},
		"disconnected": {3, 0, 1, 2}, // 0 is not adjacent to 3? u3-u2 edge only; 0 after 3 has no earlier neighbor
	}
	for name, order := range cases {
		if err := VerifyOrder(q, order); err == nil {
			t.Errorf("VerifyOrder accepted %s order %v", name, order)
		}
	}
}

func TestSortCandidates(t *testing.T) {
	c := NewCandidates(1, 10)
	c.Add(0, 7)
	c.Add(0, 2)
	c.Add(0, 5)
	SortCandidates(c)
	if c.Sets[0][0] != 2 || c.Sets[0][1] != 5 || c.Sets[0][2] != 7 {
		t.Errorf("SortCandidates produced %v", c.Sets[0])
	}
}
