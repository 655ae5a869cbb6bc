package graph

import (
	"fmt"
	"slices"
	"sort"

	"subgraphquery/internal/domain"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// Vertices are added implicitly by AddVertex in id order; edges may be added
// in any order and duplicates/self-loops are rejected at Build time.
type Builder struct {
	labels []Label
	edges  []Edge
}

// NewBuilder returns a Builder with capacity hints for v vertices and e
// edges.
func NewBuilder(v, e int) *Builder {
	return &Builder{
		labels: make([]Label, 0, v),
		edges:  make([]Edge, 0, e),
	}
}

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l Label) VertexID {
	b.labels = append(b.labels, l)
	return VertexID(len(b.labels) - 1)
}

// AddEdge records the undirected edge (u, v).
func (b *Builder) AddEdge(u, v VertexID) {
	b.edges = append(b.edges, Edge{u, v})
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build validates the accumulated vertices and edges and returns the CSR
// graph. It fails on out-of-range endpoints, self-loops and duplicate edges.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	for _, e := range b.edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references vertex outside [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop on vertex %d", e.U)
		}
	}

	g := &Graph{
		labels:  append([]Label(nil), b.labels...),
		offsets: make([]uint32, n+1),
		adj:     make([]VertexID, 2*len(b.edges)),
	}

	deg := make([]uint32, n)
	for _, e := range b.edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
		if deg[v] > g.maxDegree {
			g.maxDegree = deg[v]
		}
	}
	cursor := make([]uint32, n)
	copy(cursor, g.offsets[:n])
	for _, e := range b.edges {
		g.adj[cursor[e.U]] = e.V
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}

	// Sort each neighbor list by (label, id) and reject duplicates.
	for v := 0; v < n; v++ {
		nbrs := g.adj[g.offsets[v]:g.offsets[v+1]]
		sort.Slice(nbrs, func(i, j int) bool {
			li, lj := g.labels[nbrs[i]], g.labels[nbrs[j]]
			if li != lj {
				return li < lj
			}
			return nbrs[i] < nbrs[j]
		})
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] == nbrs[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, nbrs[i])
			}
		}
	}
	g.buildLabelIndex()
	g.buildLabelDirectory()
	g.buildNbrMax()
	if n <= domain.WordVertices {
		g.nbrWords = make([]uint64, n)
		for _, e := range b.edges {
			g.nbrWords[e.U] |= 1 << e.V
			g.nbrWords[e.V] |= 1 << e.U
		}
	}
	debugCheckGraph(g) // sqdebug builds only; compiles away otherwise
	return g, nil
}

// buildLabelDirectory sorts the vertex ids by (label, id) into byLabel and
// records where each label's run starts, backing LabeledVertices. The sort
// runs on packed (label, id) keys, which need no comparison callback.
func (g *Graph) buildLabelDirectory() {
	keys := make([]uint64, len(g.labels))
	for v, l := range g.labels {
		keys[v] = PairKey(l, Label(v))
	}
	slices.Sort(keys)
	runs := 0
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			runs++
		}
	}
	g.byLabel = make([]VertexID, len(keys))
	g.dir = make([]labelRun, 0, runs)
	for i, k := range keys {
		g.byLabel[i] = VertexID(k)
		if i == 0 || k>>32 != keys[i-1]>>32 {
			g.dir = append(g.dir, labelRun{label: Label(k >> 32), start: uint32(i)})
		}
	}
}

// buildLabelIndex constructs the per-vertex label-run index over the sorted
// neighbor lists, enabling NeighborsWithLabel in O(log k).
func (g *Graph) buildLabelIndex() {
	n := g.NumVertices()
	g.nlStart = make([]uint32, n+1)
	// First pass: count label runs.
	runs := 0
	for v := 0; v < n; v++ {
		nbrs := g.adj[g.offsets[v]:g.offsets[v+1]]
		var prev Label
		for i, w := range nbrs {
			if i == 0 || g.labels[w] != prev {
				runs++
				prev = g.labels[w]
			}
		}
	}
	g.nlLabels = make([]Label, 0, runs)
	g.nlEnds = make([]uint32, 0, runs)
	for v := 0; v < n; v++ {
		g.nlStart[v] = uint32(len(g.nlLabels))
		base := g.offsets[v]
		nbrs := g.adj[base:g.offsets[v+1]]
		for i := 0; i < len(nbrs); {
			l := g.labels[nbrs[i]]
			j := i + 1
			for j < len(nbrs) && g.labels[nbrs[j]] == l {
				j++
			}
			g.nlLabels = append(g.nlLabels, l)
			g.nlEnds = append(g.nlEnds, base+uint32(j))
			i = j
		}
	}
	g.nlStart[n] = uint32(len(g.nlLabels))
}

// FromEdges builds a graph from a label array and an edge list. It is a
// convenience wrapper around Builder used heavily in tests and generators.
func FromEdges(labels []Label, edges []Edge) (*Graph, error) {
	b := NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error; for tests and examples
// with literal inputs.
func MustFromEdges(labels []Label, edges []Edge) *Graph {
	g, err := FromEdges(labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}
