// Package graph provides the labeled undirected graph substrate used by all
// subgraph query processing and subgraph matching algorithms in this module.
//
// Graphs are stored in CSR (compressed sparse row) form: a label array, an
// offset array and an edge array, exactly the storage the paper assumes for
// its in-memory graph databases. Neighbor lists are kept sorted by
// (label, id) so that edge tests are binary searches and label-restricted
// neighbor ranges are contiguous slices.
package graph

import (
	"fmt"
	"sort"
)

// Label is a vertex label drawn from the database's label set Σ.
type Label uint32

// VertexID identifies a vertex within a single graph.
type VertexID uint32

// Graph is an immutable vertex-labeled undirected graph in CSR form.
// Construct one with a Builder or with FromEdges; the zero value is an
// empty graph.
type Graph struct {
	labels  []Label    // labels[v] is the label of vertex v
	offsets []uint32   // CSR offsets, len = |V|+1
	adj     []VertexID // concatenated neighbor lists, sorted by (label,id)

	// labelOffsets[i] delimits, within adj[offsets[v]:offsets[v+1]], the
	// sub-range of neighbors sharing one label. It is a parallel structure:
	// for vertex v, nlStart[v]..nlStart[v+1] indexes into nlLabels/nlEnds.
	nlStart  []uint32
	nlLabels []Label
	nlEnds   []uint32 // end position (absolute into adj) of each label run

	// Label-pair neighborhood-frequency table (see nbrmax.go): sorted
	// packed (l1,l2) keys with, per pair, the maximum number of l2-labeled
	// neighbors over l1-labeled vertices — the per-graph prefilter data.
	nbrMaxKeys []uint64
	nbrMaxVals []uint32

	maxDegree uint32

	// Label directory: byLabel holds the vertex ids sorted by (label, id);
	// dir holds the distinct labels, ascending, with where each one's run
	// starts in it.
	dir     []labelRun
	byLabel []VertexID

	// nbrWords[v] has bit w set iff (v, w) is an edge: one neighbourhood
	// word per vertex, nil past domain.WordVertices vertices.
	nbrWords []uint64
}

type labelRun struct {
	label Label
	start uint32
}

// NumVertices returns |V(g)|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E(g)| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Labels returns the label array; callers must not modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Label returns the label of vertex v.
func (g *Graph) Label(v VertexID) Label { return g.labels[v] }

// Degree returns d(v), the number of neighbors of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum vertex degree in g.
func (g *Graph) MaxDegree() int { return int(g.maxDegree) }

// Neighbors returns the neighbor list of v, sorted by (label, id).
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsWithLabel returns the neighbors of v whose label is l, as a
// contiguous sub-slice of the neighbor list. Callers must not modify it.
func (g *Graph) NeighborsWithLabel(v VertexID, l Label) []VertexID {
	s, e := g.nlStart[v], g.nlStart[v+1]
	// The number of distinct labels among a vertex's neighbors is small;
	// binary search over the label runs.
	lo, hi := int(s), int(e)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.nlLabels[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == int(e) || g.nlLabels[lo] != l {
		return nil
	}
	start := g.offsets[v]
	if lo > int(s) {
		start = g.nlEnds[lo-1]
	}
	return g.adj[start:g.nlEnds[lo]]
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	du, dv := g.Degree(u), g.Degree(v)
	if dv < du {
		u, v = v, u
	}
	nbrs := g.NeighborsWithLabel(u, g.labels[v])
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// LabelFrequency returns the number of vertices in g with label l.
func (g *Graph) LabelFrequency(l Label) int { return len(g.LabeledVertices(l)) }

// DistinctLabels returns the number of distinct vertex labels in g.
func (g *Graph) DistinctLabels() int { return len(g.dir) }

// VerticesWithLabel appends to dst all vertices of g labeled l and returns
// the extended slice.
func (g *Graph) VerticesWithLabel(dst []VertexID, l Label) []VertexID {
	return append(dst, g.LabeledVertices(l)...)
}

// LabeledVertices returns the vertices of g labeled l, in ascending id
// order, without copying. Callers must not modify the returned slice. This
// is the index that turns every "scan V(G) for label L(u)" loop in the
// filters into an O(|candidates|) walk.
func (g *Graph) LabeledVertices(l Label) []VertexID {
	lo := sort.Search(len(g.dir), func(i int) bool { return g.dir[i].label >= l })
	if lo == len(g.dir) || g.dir[lo].label != l {
		return nil
	}
	end := len(g.byLabel)
	if lo+1 < len(g.dir) {
		end = int(g.dir[lo+1].start)
	}
	return g.byLabel[g.dir[lo].start:end:end]
}

// NeighborWords returns one adjacency word per vertex — bit w of word v iff
// (v, w) is an edge — or nil when g has more than domain.WordVertices
// vertices. Callers must not modify it.
func (g *Graph) NeighborWords() []uint64 { return g.nbrWords }

// SubsumesProfile reports whether vertex v's neighborhood label frequency
// profile subsumes q — v has at least q.counts[j] neighbors of label
// q.labels[j] for every j. It reads the CSR label-run index directly, so
// unlike NLFOf(g, v).Subsumes(q) it allocates nothing.
func (g *Graph) SubsumesProfile(v VertexID, q NLF) bool {
	i, e := int(g.nlStart[v]), int(g.nlStart[v+1])
	prev := g.offsets[v] // start position of run i within adj
	for j := range q.labels {
		lj := q.labels[j]
		for i < e && g.nlLabels[i] < lj {
			prev = g.nlEnds[i]
			i++
		}
		if i == e || g.nlLabels[i] != lj || g.nlEnds[i]-prev < q.counts[j] {
			return false
		}
		prev = g.nlEnds[i]
		i++
	}
	return true
}

// MemoryFootprint returns the approximate number of bytes held by the CSR
// arrays of g — the "Datasets" storage cost the paper reports: a label
// array, an offset array and an edge array — plus what is built alongside:
// the O(distinct label pairs) prefilter table, the label directory with its
// by-label vertex array, and the neighbourhood words of a small graph.
func (g *Graph) MemoryFootprint() int64 {
	return int64(len(g.labels))*4 + int64(len(g.offsets))*4 + int64(len(g.adj))*4 +
		int64(len(g.nbrMaxKeys))*8 + int64(len(g.nbrMaxVals))*4 +
		int64(len(g.dir))*8 + int64(len(g.byLabel))*4 + int64(len(g.nbrWords))*8
}

// String returns a short diagnostic description of g.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d |Σ|=%d}", g.NumVertices(), g.NumEdges(), g.DistinctLabels())
}

// AverageDegree returns 2|E|/|V|, the degree statistic used throughout the
// paper's dataset tables.
func (g *Graph) AverageDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(2*g.NumEdges()) / float64(g.NumVertices())
}

// Edge is an undirected edge between two vertices, used by builders and
// generators.
type Edge struct {
	U, V VertexID
}

// Edges returns all undirected edges of g with U < V, in vertex order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				edges = append(edges, Edge{VertexID(v), w})
			}
		}
	}
	return edges
}
