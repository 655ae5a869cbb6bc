package graph

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// fig1Query returns the query graph q of the paper's Figure 1: a triangle
// u0-u1-u2 with a pendant u3 attached to u2 (labels A,B,C,B).
func fig1Query() *Graph {
	return MustFromEdges(
		[]Label{0, 1, 2, 1},
		[]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}},
	)
}

// fig1Data returns a data graph G containing q (v0..v3 mirror u0..u3) plus
// an extra vertex v4 with label A attached to v1.
func fig1Data() *Graph {
	return MustFromEdges(
		[]Label{0, 1, 2, 1, 0},
		[]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {1, 4}},
	)
}

func TestBuilderBasics(t *testing.T) {
	g := fig1Query()
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if got := g.Degree(2); got != 3 {
		t.Errorf("Degree(2) = %d, want 3", got)
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	if got := g.Label(3); got != 1 {
		t.Errorf("Label(3) = %d, want 1", got)
	}
	if got := g.AverageDegree(); got != 2.0 {
		t.Errorf("AverageDegree = %v, want 2.0", got)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge
	}{
		{"self-loop", []Edge{{0, 0}}},
		{"out-of-range", []Edge{{0, 5}}},
		{"duplicate", []Edge{{0, 1}, {1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromEdges([]Label{0, 1}, tc.edges); err == nil {
				t.Fatalf("FromEdges(%v) succeeded, want error", tc.edges)
			}
		})
	}
}

func TestHasEdge(t *testing.T) {
	g := fig1Data()
	want := map[[2]VertexID]bool{
		{0, 1}: true, {1, 0}: true, {0, 2}: true, {1, 2}: true,
		{2, 3}: true, {1, 4}: true,
		{0, 3}: false, {0, 4}: false, {3, 4}: false, {2, 4}: false,
	}
	for pair, w := range want {
		if got := g.HasEdge(pair[0], pair[1]); got != w {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", pair[0], pair[1], got, w)
		}
	}
}

func TestNeighborsSortedByLabel(t *testing.T) {
	g := fig1Data()
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.Neighbors(VertexID(v))
		for i := 1; i < len(nbrs); i++ {
			li, lj := g.Label(nbrs[i-1]), g.Label(nbrs[i])
			if li > lj || (li == lj && nbrs[i-1] >= nbrs[i]) {
				t.Fatalf("neighbors of %d not sorted by (label,id): %v", v, nbrs)
			}
		}
	}
}

func TestNeighborsWithLabel(t *testing.T) {
	g := fig1Data()
	// v2 has neighbors v0 (label 0), v1 and v3 (label 1).
	got := g.NeighborsWithLabel(2, 1)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("NeighborsWithLabel(2, 1) = %v, want [1 3]", got)
	}
	if got := g.NeighborsWithLabel(2, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("NeighborsWithLabel(2, 0) = %v, want [0]", got)
	}
	if got := g.NeighborsWithLabel(2, 7); got != nil {
		t.Errorf("NeighborsWithLabel(2, 7) = %v, want nil", got)
	}
}

func TestLabelFrequency(t *testing.T) {
	g := fig1Data()
	if got := g.LabelFrequency(0); got != 2 {
		t.Errorf("LabelFrequency(0) = %d, want 2", got)
	}
	if got := g.LabelFrequency(1); got != 2 {
		t.Errorf("LabelFrequency(1) = %d, want 2", got)
	}
	if got := g.LabelFrequency(9); got != 0 {
		t.Errorf("LabelFrequency(9) = %d, want 0", got)
	}
	if got := g.DistinctLabels(); got != 3 {
		t.Errorf("DistinctLabels = %d, want 3", got)
	}
}

func TestVerticesWithLabel(t *testing.T) {
	g := fig1Data()
	got := g.VerticesWithLabel(nil, 1)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("VerticesWithLabel(1) = %v, want [1 3]", got)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := fig1Data()
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() returned %d edges, want %d", len(edges), g.NumEdges())
	}
	g2, err := FromEdges(g.Labels(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Error("rebuilding from Edges() changed the graph")
	}
}

func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(VertexID(v)) != b.Label(VertexID(v)) {
			return false
		}
		na := append([]VertexID(nil), a.Neighbors(VertexID(v))...)
		nb := append([]VertexID(nil), b.Neighbors(VertexID(v))...)
		sort.Slice(na, func(i, j int) bool { return na[i] < na[j] })
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func TestIsConnected(t *testing.T) {
	if !fig1Query().IsConnected() {
		t.Error("fig1 query should be connected")
	}
	disc := MustFromEdges([]Label{0, 0, 0, 0}, []Edge{{0, 1}, {2, 3}})
	if disc.IsConnected() {
		t.Error("two disjoint edges should not be connected")
	}
	empty := MustFromEdges(nil, nil)
	if !empty.IsConnected() {
		t.Error("empty graph is connected by convention")
	}
	single := MustFromEdges([]Label{0}, nil)
	if !single.IsConnected() {
		t.Error("single vertex is connected")
	}
}

func TestBFSTree(t *testing.T) {
	g := fig1Data()
	tr := NewBFSTree(g, 0)
	if tr.Root != 0 || tr.Depth[0] != 0 || tr.Parent[0] != -1 {
		t.Fatalf("bad root bookkeeping: %+v", tr)
	}
	if tr.Depth[1] != 1 || tr.Depth[2] != 1 {
		t.Errorf("v1,v2 should be at depth 1, got %d,%d", tr.Depth[1], tr.Depth[2])
	}
	if tr.Depth[3] != 2 || tr.Depth[4] != 2 {
		t.Errorf("v3,v4 should be at depth 2, got %d,%d", tr.Depth[3], tr.Depth[4])
	}
	if len(tr.Order) != g.NumVertices() {
		t.Errorf("Order covers %d vertices, want %d", len(tr.Order), g.NumVertices())
	}
	// Order must be non-decreasing in depth.
	for i := 1; i < len(tr.Order); i++ {
		if tr.Depth[tr.Order[i]] < tr.Depth[tr.Order[i-1]] {
			t.Fatalf("BFS order not level-by-level: %v", tr.Order)
		}
	}
	// Parent edges must exist in g.
	for v := 0; v < g.NumVertices(); v++ {
		if p := tr.Parent[v]; p >= 0 && !g.HasEdge(VertexID(v), VertexID(p)) {
			t.Errorf("tree edge (%d,%d) not in graph", v, p)
		}
	}
	// Children lists must be consistent with Parent.
	for v := 0; v < g.NumVertices(); v++ {
		for _, c := range tr.Children[v] {
			if tr.Parent[c] != int32(v) {
				t.Errorf("child %d of %d has Parent %d", c, v, tr.Parent[c])
			}
		}
	}
}

func TestTwoCore(t *testing.T) {
	g := fig1Query() // triangle + pendant
	core := g.TwoCore()
	want := []bool{true, true, true, false}
	for v, w := range want {
		if core[v] != w {
			t.Errorf("TwoCore[%d] = %v, want %v", v, core[v], w)
		}
	}
	if got := g.CoreSize(); got != 3 {
		t.Errorf("CoreSize = %d, want 3", got)
	}

	tree := MustFromEdges([]Label{0, 0, 0}, []Edge{{0, 1}, {1, 2}})
	if got := tree.CoreSize(); got != 0 {
		t.Errorf("tree CoreSize = %d, want 0", got)
	}
	if !tree.IsTree() {
		t.Error("path graph should be a tree")
	}
	if fig1Query().IsTree() {
		t.Error("triangle+pendant should not be a tree")
	}
}

func TestNLF(t *testing.T) {
	g := fig1Data()
	p2 := NLFOf(g, 2) // neighbors: v0(A=0), v1(B=1), v3(B=1)
	if got := p2.Count(0); got != 1 {
		t.Errorf("NLF(v2).Count(0) = %d, want 1", got)
	}
	if got := p2.Count(1); got != 2 {
		t.Errorf("NLF(v2).Count(1) = %d, want 2", got)
	}
	if got := p2.Count(5); got != 0 {
		t.Errorf("NLF(v2).Count(5) = %d, want 0", got)
	}
	if got := p2.DistinctLabels(); got != 2 {
		t.Errorf("NLF(v2).DistinctLabels = %d, want 2", got)
	}

	q := fig1Query()
	qp2 := NLFOf(q, 2)
	if !p2.Subsumes(qp2) {
		t.Error("data v2 profile should subsume query u2 profile")
	}
	p4 := NLFOf(g, 4) // single neighbor with label B
	if p4.Subsumes(qp2) {
		t.Error("data v4 profile should not subsume query u2 profile")
	}
	// Any profile subsumes the empty profile.
	if !p4.Subsumes(NLF{}) {
		t.Error("profiles must subsume the empty profile")
	}
}

func TestAllNLFMatchesNLFOf(t *testing.T) {
	g := fig1Data()
	all := AllNLF(g)
	for v := 0; v < g.NumVertices(); v++ {
		one := NLFOf(g, VertexID(v))
		if len(all[v].labels) != len(one.labels) {
			t.Fatalf("AllNLF[%d] disagrees with NLFOf", v)
		}
	}
}

// randomGraph builds a random connected labeled graph for property tests.
func randomGraph(r *rand.Rand, n, extraEdges, labels int) *Graph {
	if n <= 0 {
		n = 1
	}
	lab := make([]Label, n)
	for i := range lab {
		lab[i] = Label(r.Intn(labels))
	}
	seen := map[[2]VertexID]bool{}
	var edges []Edge
	addEdge := func(u, v VertexID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]VertexID{u, v}] {
			return
		}
		seen[[2]VertexID{u, v}] = true
		edges = append(edges, Edge{u, v})
	}
	// Random spanning tree for connectivity.
	for v := 1; v < n; v++ {
		addEdge(VertexID(r.Intn(v)), VertexID(v))
	}
	for i := 0; i < extraEdges; i++ {
		addEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)))
	}
	return MustFromEdges(lab, edges)
}

func TestPropertyCSRConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(3*n), 1+r.Intn(5))
		// Symmetry: w in N(v) iff v in N(w); HasEdge agrees.
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(VertexID(v)) {
				if !g.HasEdge(VertexID(v), w) || !g.HasEdge(w, VertexID(v)) {
					return false
				}
				found := false
				for _, x := range g.Neighbors(w) {
					if x == VertexID(v) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		// Degree sums to 2|E|.
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(VertexID(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNeighborsWithLabelPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(30), r.Intn(60), 1+r.Intn(6))
		for v := 0; v < g.NumVertices(); v++ {
			total := 0
			for l := Label(0); l < 8; l++ {
				part := g.NeighborsWithLabel(VertexID(v), l)
				total += len(part)
				for _, w := range part {
					if g.Label(w) != l {
						return false
					}
				}
			}
			if total != g.Degree(VertexID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTwoCoreMinDegree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(40), r.Intn(80), 1+r.Intn(4))
		core := g.TwoCore()
		// Every core vertex has >= 2 neighbors inside the core.
		for v := 0; v < g.NumVertices(); v++ {
			if !core[v] {
				continue
			}
			deg := 0
			for _, w := range g.Neighbors(VertexID(v)) {
				if core[w] {
					deg++
				}
			}
			if deg < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDatabaseStats(t *testing.T) {
	d := NewDatabase([]*Graph{fig1Query(), fig1Data()})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	s := d.ComputeStats()
	if s.NumGraphs != 2 || s.NumLabels != 3 {
		t.Errorf("stats = %+v, want 2 graphs and 3 labels", s)
	}
	if s.VerticesPerGraph != 4.5 {
		t.Errorf("VerticesPerGraph = %v, want 4.5", s.VerticesPerGraph)
	}
	if s.EdgesPerGraph != 4.5 {
		t.Errorf("EdgesPerGraph = %v, want 4.5", s.EdgesPerGraph)
	}
	id := d.Append(fig1Query())
	if id != 2 || d.Len() != 3 {
		t.Errorf("Append returned %d with Len %d, want 2 and 3", id, d.Len())
	}
	if d.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint should be positive")
	}
}

func TestMemoryFootprint(t *testing.T) {
	// 5 vertices, 5 edges, 8 neighbour-label runs (2+2+2+1+1: vertex 1's
	// neighbours 0 and 4 share label A) with 6 run starts, 6 distinct
	// ordered label pairs around edges (A-B, A-C, B-A, B-C, C-A, C-B) in the
	// prefilter table; 3 labels in the directory over 5 by-label vertex
	// ids; 5 neighbourhood words, 3 label words and 3 degree words (the
	// largest degree is 3).
	g := fig1Data()
	want := int64(5*4+6*4+10*4) + int64(6*4+8*4+8*4) + int64(6*8+6*4) + int64(3*8+5*4) + int64((5+3+3)*8)
	if got := g.MemoryFootprint(); got != want {
		t.Errorf("MemoryFootprint = %d, want %d", got, want)
	}

	// Past the cut-off the words go: 65 isolated vertices of one label cost
	// labels, offsets, the run starts (no runs), one directory entry and the
	// by-label array.
	big := MustFromEdges(make([]Label, 65), nil)
	if big.NeighborWords() != nil {
		t.Error("a 65-vertex graph keeps neighbourhood words")
	}
	if got, want := big.MemoryFootprint(), int64(65*4+66*4+66*4+1*8+65*4); got != want {
		t.Errorf("MemoryFootprint of 65 isolated vertices = %d, want %d", got, want)
	}
}

// TestIdentical: the same graph built twice is identical; a relabelled
// vertex, a renumbering (even one that keeps the label array), a moved
// edge, and a rewiring that keeps every degree are not.
func TestIdentical(t *testing.T) {
	g := fig1Data()
	for _, c := range []struct {
		name string
		h    *Graph
		want bool
	}{
		{"itself", g, true},
		{"rebuilt", fig1Data(), true},
		{"relabelled", MustFromEdges([]Label{0, 1, 2, 1, 1}, g.Edges()), false},
		// Vertices 0 and 4 (both label 0) trade numbers.
		{"renumbered", MustFromEdges(g.Labels(), []Edge{{4, 1}, {4, 2}, {1, 2}, {2, 3}, {1, 0}}), false},
		// Edge (2,3) becomes (2,4).
		{"edge moved", MustFromEdges(g.Labels(), []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 4}, {1, 4}}), false},
		// (2,3),(1,4) become (2,4),(1,3): same labels and offsets, other
		// adjacency.
		{"rewired", MustFromEdges(g.Labels(), []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 4}, {1, 3}}), false},
		{"subgraph", MustFromEdges(g.Labels(), []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}), false},
		{"empty", &Graph{}, false},
	} {
		if got := g.Identical(c.h); got != c.want {
			t.Errorf("%s: Identical = %v, want %v", c.name, got, c.want)
		}
		if got := c.h.Identical(g); got != c.want {
			t.Errorf("%s: Identical reversed = %v, want %v", c.name, got, c.want)
		}
	}
	if !(&Graph{}).Identical(MustFromEdges(nil, nil)) {
		t.Error("two empty graphs are not identical")
	}
}

// TestLabelDirectory checks the four label accessors against a scan of the
// label array, absent labels below, between and above the present ones
// included.
func TestLabelDirectory(t *testing.T) {
	g := MustFromEdges([]Label{7, 3, 7, 9, 3, 7}, []Edge{{0, 1}, {2, 3}})
	if got := g.DistinctLabels(); got != 3 {
		t.Errorf("DistinctLabels = %d, want 3", got)
	}
	for l := Label(0); l <= 10; l++ {
		var want []VertexID
		for v, lv := range g.Labels() {
			if lv == l {
				want = append(want, VertexID(v))
			}
		}
		if got := g.LabeledVertices(l); !slices.Equal(got, want) {
			t.Errorf("LabeledVertices(%d) = %v, want %v", l, got, want)
		}
		if got := g.LabelFrequency(l); got != len(want) {
			t.Errorf("LabelFrequency(%d) = %d, want %d", l, got, len(want))
		}
		if got := g.VerticesWithLabel([]VertexID{42}, l); !slices.Equal(got[1:], want) || got[0] != 42 {
			t.Errorf("VerticesWithLabel(%d) = %v, want 42 then %v", l, got, want)
		}
	}
	// Appending to a returned run must not reach the next label's run.
	run := g.LabeledVertices(3)
	_ = append(run, 99)
	if got := g.LabeledVertices(7); !slices.Equal(got, []VertexID{0, 2, 5}) {
		t.Errorf("LabeledVertices(7) = %v after an append to label 3's run", got)
	}
}

// TestNeighborWords checks the words against HasEdge at the cut-off sizes,
// vertex 63 included.
func TestNeighborWords(t *testing.T) {
	for _, n := range []int{1, 63, 64} {
		var edges []Edge
		for v := 1; v < n; v++ {
			edges = append(edges, Edge{VertexID(v / 2), VertexID(v)}, Edge{VertexID(n - 1), VertexID((v * 7) % (n - 1))})
		}
		for i, e := range edges {
			edges[i] = Edge{min(e.U, e.V), max(e.U, e.V)}
		}
		slices.SortFunc(edges, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
		edges = slices.CompactFunc(edges, func(a, b Edge) bool { return a == b })
		g, err := FromEdges(make([]Label, n), edges)
		if err != nil {
			t.Fatal(err)
		}
		words := g.NeighborWords()
		if len(words) != n {
			t.Fatalf("|V| = %d: %d neighbourhood words", n, len(words))
		}
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if got, want := words[v]>>w&1 == 1, g.HasEdge(VertexID(v), VertexID(w)); got != want {
					t.Fatalf("|V| = %d: word bit (%d,%d) = %v, HasEdge = %v", n, v, w, got, want)
				}
			}
		}
	}
}

// TestClassWord checks ClassWord against a scan of the labels and degrees at
// the cut-off sizes, for every label present and absent and every degree
// from 0 to past MaxDegree; past the cut-off it is zero.
func TestClassWord(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65} {
		g := randomGraph(r, n, 2*n, 4)
		words := n <= 64
		for l := Label(0); l <= 5; l++ {
			for d := 0; d <= g.MaxDegree()+1; d++ {
				var want uint64
				for _, v := range g.LabeledVertices(l) {
					if words && g.Degree(v) >= d {
						want |= 1 << v
					}
				}
				if got := g.ClassWord(l, d); got != want {
					t.Fatalf("|V| = %d: ClassWord(%d, %d) = %#x, want %#x", n, l, d, got, want)
				}
			}
		}
	}
}

// TestSubsumingWord checks SubsumingWord against SubsumesProfile per
// member on random word-sized graphs: the profile of every vertex of the
// graph and of a query with a label the graph lacks, each against a random
// subset of the graph's vertices.
func TestSubsumingWord(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	kept, dropped := 0, 0
	for _, n := range []int{1, 20, 64} {
		g := randomGraph(r, n, 3*n, 3)
		q := randomGraph(r, 8, 20, 4) // label 3 is absent from g
		var profs []NLF
		for v := 0; v < n; v++ {
			profs = append(profs, NLFOf(g, VertexID(v)))
		}
		for v := 0; v < q.NumVertices(); v++ {
			profs = append(profs, NLFOf(q, VertexID(v)))
		}
		for _, prof := range profs {
			set := r.Uint64() | 1
			if n < 64 {
				set &= 1<<n - 1
			}
			var want uint64
			for v := 0; v < n; v++ {
				if set>>v&1 == 1 && g.SubsumesProfile(VertexID(v), prof) {
					want |= 1 << v
				}
			}
			if got := g.SubsumingWord(set, prof); got != want {
				t.Fatalf("|V| = %d: SubsumingWord(%#x) = %#x, SubsumesProfile per member %#x", n, set, got, want)
			}
			kept += bits.OnesCount64(want)
			dropped += bits.OnesCount64(set &^ want)
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("%d members kept and %d dropped; want both", kept, dropped)
	}
}

func TestMaxNeighborsWithLabel(t *testing.T) {
	g := fig1Data() // labels A,B,C,B,A
	cases := []struct {
		l1, l2 Label
		want   int
	}{
		{1, 0, 2}, // v1 (B) has two A-neighbors: v0, v4
		{2, 1, 2}, // v2 (C) has two B-neighbors: v1, v3
		{0, 1, 1}, // both A-vertices have one B-neighbor
		{0, 2, 1}, // v0 (A) has one C-neighbor
		{0, 0, 0}, // no A-A edge
		{1, 1, 0}, // no B-B edge
		{0, 9, 0}, // absent label
		{9, 0, 0},
	}
	for _, tc := range cases {
		if got := g.MaxNeighborsWithLabel(tc.l1, tc.l2); got != tc.want {
			t.Errorf("MaxNeighborsWithLabel(%d,%d) = %d, want %d", tc.l1, tc.l2, got, tc.want)
		}
		if got, want := g.HasLabelPair(tc.l1, tc.l2), tc.want > 0; got != want {
			t.Errorf("HasLabelPair(%d,%d) = %v, want %v", tc.l1, tc.l2, got, want)
		}
	}
}

// TestPropertyMaxNeighborsWithLabel cross-checks the packed table against
// a brute-force recount over random graphs, and checks presence symmetry.
func TestPropertyMaxNeighborsWithLabel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := 1 + r.Intn(6)
		g := randomGraph(r, 2+r.Intn(30), r.Intn(90), nl)
		for l1 := Label(0); l1 < Label(nl); l1++ {
			for l2 := Label(0); l2 < Label(nl); l2++ {
				want := 0
				for v := 0; v < g.NumVertices(); v++ {
					if g.Label(VertexID(v)) != l1 {
						continue
					}
					if n := len(g.NeighborsWithLabel(VertexID(v), l2)); n > want {
						want = n
					}
				}
				if g.MaxNeighborsWithLabel(l1, l2) != want {
					return false
				}
				if g.HasLabelPair(l1, l2) != g.HasLabelPair(l2, l1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
