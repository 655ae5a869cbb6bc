package graph

import (
	"fmt"
	"slices"

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
// Neighbour lists sort as packed (label, id) keys, with no callback and no
// allocation, in a buffer the label directory and label-pair table reuse.
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

	// offsets[v+1] counts v's degree, then becomes where v's list ends.
	for _, e := range b.edges {
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.maxDegree = max(g.maxDegree, g.offsets[v+1])
		g.offsets[v+1] += g.offsets[v]
	}
	// offsets[v] is v's write cursor while the keys go in, which leaves it
	// at the end of v's list; shifting the array by one restores it.
	keys := make([]uint64, max(len(g.adj), n))
	for _, e := range b.edges {
		keys[g.offsets[e.U]] = PairKey(g.labels[e.V], Label(e.V))
		g.offsets[e.U]++
		keys[g.offsets[e.V]] = PairKey(g.labels[e.U], Label(e.U))
		g.offsets[e.V]++
	}
	copy(g.offsets[1:], g.offsets[:n])
	g.offsets[0] = 0

	// Sort each neighbor list by (label, id) and reject duplicates.
	for v := 0; v < n; v++ {
		start := g.offsets[v]
		nbrs := keys[start:g.offsets[v+1]]
		slices.Sort(nbrs)
		for i, k := range nbrs {
			if i > 0 && k == nbrs[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, VertexID(k))
			}
			g.adj[start+uint32(i)] = VertexID(k)
		}
	}
	g.buildLabelIndex()
	g.buildLabelDirectory(keys)
	g.buildNbrMax(keys)
	if n <= domain.WordVertices {
		g.buildWords(b.edges)
	}
	debugCheckGraph(g) // sqdebug builds only; compiles away otherwise
	return g, nil
}

// buildLabelDirectory sorts the vertex ids by (label, id) into byLabel and
// records where each label's run starts, backing LabeledVertices. The sort
// runs on packed (label, id) keys, which need no comparison callback, in
// buf, which has room for one key per vertex.
func (g *Graph) buildLabelDirectory(buf []uint64) {
	keys := buf[:len(g.labels)]
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

// buildWords lays out, in one allocation, the words of a graph of at most
// domain.WordVertices vertices: a neighbourhood word per vertex, a word per
// distinct label (in directory order) and a word per degree threshold
// 1..maxDegree.
func (g *Graph) buildWords(edges []Edge) {
	n, nl := len(g.labels), len(g.dir)
	words := make([]uint64, n+nl+int(g.maxDegree))
	g.nbrWords, g.labelWords, g.degWords = words[:n:n], words[n:n+nl:n+nl], words[n+nl:]
	for _, e := range edges {
		g.nbrWords[e.U] |= 1 << e.V
		g.nbrWords[e.V] |= 1 << e.U
	}
	for i := range g.dir {
		var w uint64
		for _, v := range g.runOf(i) {
			w |= 1 << v
		}
		g.labelWords[i] = w
	}
	// Each vertex into the word of its exact degree, then every word takes
	// in the one above it: degWords[d-1] holds the degrees d and up.
	for v := range n {
		if d := g.offsets[v+1] - g.offsets[v]; d > 0 {
			g.degWords[d-1] |= 1 << v
		}
	}
	for d := len(g.degWords) - 2; d >= 0; d-- {
		g.degWords[d] |= g.degWords[d+1]
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
