package graph

import (
	"cmp"
	"fmt"

	"subgraphquery/internal/domain"
)

// Runtime invariant assertions over the CSR representation, active only
// under the sqdebug build tag (see sqdebug_on.go). Every graph leaving
// Builder.Build is checked; a violation panics with a description of the
// broken invariant, because a malformed CSR silently corrupts every
// downstream binary search and label-run lookup.
//
// The checks are deliberately O(V + E log d) — cheap enough that the
// sqdebug test suite runs them on every constructed graph.

// debugCheckGraph panics if g violates a CSR invariant. No-op in normal
// builds (debugInvariants is constant false and the call compiles away).
func debugCheckGraph(g *Graph) {
	if !debugInvariants {
		return
	}
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		debugFailf("offsets length %d for %d vertices", len(g.offsets), n)
	}
	if n == 0 {
		return
	}
	if g.offsets[0] != 0 {
		debugFailf("offsets[0] = %d, want 0", g.offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			debugFailf("offsets not monotone at vertex %d: %d > %d", v, g.offsets[v], g.offsets[v+1])
		}
	}
	if int(g.offsets[n]) != len(g.adj) {
		debugFailf("offsets[%d] = %d, want len(adj) = %d", n, g.offsets[n], len(g.adj))
	}

	// Adjacency: in range, no self-loops, strictly sorted by (label, id).
	var maxDeg uint32
	for v := 0; v < n; v++ {
		nbrs := g.adj[g.offsets[v]:g.offsets[v+1]]
		if uint32(len(nbrs)) > maxDeg {
			maxDeg = uint32(len(nbrs))
		}
		for i, w := range nbrs {
			if int(w) >= n {
				debugFailf("vertex %d has neighbor %d outside [0,%d)", v, w, n)
			}
			if int(w) == v {
				debugFailf("self-loop on vertex %d", v)
			}
			if i > 0 {
				p := nbrs[i-1]
				lp, lw := g.labels[p], g.labels[w]
				if lp > lw || (lp == lw && p >= w) {
					debugFailf("neighbors of %d not sorted by (label,id) at position %d: (%d,%d) before (%d,%d)", v, i, lp, p, lw, w)
				}
			}
		}
	}
	if maxDeg != g.maxDegree {
		debugFailf("maxDegree = %d, recomputed %d", g.maxDegree, maxDeg)
	}

	debugCheckLabelRuns(g)
	debugCheckLabelVertices(g)

	// Symmetry: every stored arc has its reverse. HasEdge is safe to use
	// here because the label-run index was just validated.
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if !g.HasEdge(w, VertexID(v)) {
				debugFailf("asymmetric edge: %d lists %d but not vice versa", v, w)
			}
		}
	}

	debugCheckNeighborWords(g)
}

// debugCheckLabelRuns validates the per-vertex label-run index against the
// sorted adjacency: runs tile each neighbor list exactly, with strictly
// increasing labels and correct absolute end positions.
func debugCheckLabelRuns(g *Graph) {
	n := g.NumVertices()
	if len(g.nlStart) != n+1 {
		debugFailf("nlStart length %d for %d vertices", len(g.nlStart), n)
	}
	if len(g.nlLabels) != len(g.nlEnds) {
		debugFailf("nlLabels length %d != nlEnds length %d", len(g.nlLabels), len(g.nlEnds))
	}
	if int(g.nlStart[n]) != len(g.nlLabels) {
		debugFailf("nlStart[%d] = %d, want %d label runs", n, g.nlStart[n], len(g.nlLabels))
	}
	for v := 0; v < n; v++ {
		s, e := g.nlStart[v], g.nlStart[v+1]
		if s > e {
			debugFailf("nlStart not monotone at vertex %d: %d > %d", v, s, e)
		}
		cursor := g.offsets[v]
		for r := s; r < e; r++ {
			l := g.nlLabels[r]
			if r > s && g.nlLabels[r-1] >= l {
				debugFailf("label runs of vertex %d not strictly increasing at run %d", v, r)
			}
			end := g.nlEnds[r]
			if end <= cursor || end > g.offsets[v+1] {
				debugFailf("run %d of vertex %d has end %d outside (%d,%d]", r, v, end, cursor, g.offsets[v+1])
			}
			for i := cursor; i < end; i++ {
				if g.labels[g.adj[i]] != l {
					debugFailf("run %d of vertex %d labeled %d contains neighbor %d with label %d", r, v, l, g.adj[i], g.labels[g.adj[i]])
				}
			}
			cursor = end
		}
		if cursor != g.offsets[v+1] {
			debugFailf("label runs of vertex %d cover up to %d, want %d", v, cursor, g.offsets[v+1])
		}
	}
}

// debugCheckSortedUnique panics unless s is strictly ascending — the
// output contract of the intersection kernel (sorted, duplicate-free).
// No-op in normal builds.
func debugCheckSortedUnique[T cmp.Ordered](what string, s []T) {
	if !debugInvariants {
		return
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			debugFailf("%s output not strictly ascending at %d: %v then %v", what, i, s[i-1], s[i])
		}
	}
}

// debugCheckLabelVertices validates the label directory: byLabel lists
// every vertex once, sorted by (label, id), and dir names exactly the
// labels present, ascending, each with the start of its run.
func debugCheckLabelVertices(g *Graph) {
	if !debugInvariants {
		return
	}
	key := func(v VertexID) uint64 { return PairKey(g.labels[v], Label(v)) }
	runs := 0
	for i, v := range g.byLabel {
		if int(v) >= g.NumVertices() || i > 0 && key(g.byLabel[i-1]) >= key(v) {
			debugFailf("label directory: byLabel not sorted by (label, id) over V at position %d", i)
		}
		if i == 0 || g.labels[v] != g.labels[g.byLabel[i-1]] {
			if runs == len(g.dir) || g.dir[runs] != (labelRun{g.labels[v], uint32(i)}) {
				debugFailf("label directory: no entry for the run of label %d starting at %d", g.labels[v], i)
			}
			runs++
		}
	}
	if len(g.byLabel) != g.NumVertices() || runs != len(g.dir) {
		debugFailf("label directory: %d runs over %d vertices, want %d over %d", len(g.dir), len(g.byLabel), runs, g.NumVertices())
	}
}

// debugCheckNeighborWords validates the neighbourhood words against the
// CSR: one per vertex up to domain.WordVertices vertices and none beyond,
// word v holding exactly the neighbors of v.
func debugCheckNeighborWords(g *Graph) {
	want := 0
	if g.NumVertices() <= domain.WordVertices {
		want = g.NumVertices()
	}
	if len(g.nbrWords) != want {
		debugFailf("%d neighbourhood words for %d vertices, want %d", len(g.nbrWords), g.NumVertices(), want)
	}
	for v, word := range g.nbrWords {
		var adj uint64
		for _, w := range g.Neighbors(VertexID(v)) {
			adj |= 1 << w
		}
		if word != adj {
			debugFailf("neighbourhood word of %d is %#x, adjacency gives %#x", v, word, adj)
		}
	}
}

func debugFailf(format string, args ...any) {
	panic("sqdebug: graph: " + fmt.Sprintf(format, args...))
}
