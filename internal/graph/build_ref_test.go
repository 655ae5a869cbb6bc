package graph

import (
	"fmt"
	"reflect"
	"sort"
)

// buildRef is Builder.Build as it was before it sorted packed keys: a
// sort.Slice with a comparison closure per vertex, and a map per graph for
// the label-pair table. Build is tested equal to it.
func buildRef(b *Builder) (*Graph, error) {
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
	g.buildLabelDirectory(make([]uint64, n))
	buildNbrMaxRef(g)
	if n <= 64 {
		g.nbrWords = make([]uint64, n)
		for _, e := range b.edges {
			g.nbrWords[e.U] |= 1 << e.V
			g.nbrWords[e.V] |= 1 << e.U
		}
	}
	return g, nil
}

// buildNbrMaxRef is the label-pair table as a map of running maxima,
// sorted once at the end.
func buildNbrMaxRef(g *Graph) {
	type entry struct {
		key uint64
		max uint32
	}
	acc := make(map[uint64]uint32)
	for v := 0; v < g.NumVertices(); v++ {
		l1 := g.labels[v]
		s, e := g.nlStart[v], g.nlStart[v+1]
		prev := g.offsets[v]
		for i := s; i < e; i++ {
			runLen := g.nlEnds[i] - prev
			prev = g.nlEnds[i]
			k := PairKey(l1, g.nlLabels[i])
			if runLen > acc[k] {
				acc[k] = runLen
			}
		}
	}
	entries := make([]entry, 0, len(acc))
	for k, m := range acc {
		entries = append(entries, entry{k, m})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	g.nbrMaxKeys = make([]uint64, len(entries))
	g.nbrMaxVals = make([]uint32, len(entries))
	for i, e := range entries {
		g.nbrMaxKeys[i] = e.key
		g.nbrMaxVals[i] = e.max
	}
}

// BuildRef and SameGraph give the external tests, which draw their inputs
// from gen (an importer of this package), the reference and a field-by-field
// comparison; DebugInvariants tells them when the sqdebug checks allocate.
var BuildRef = buildRef

func SameGraph(a, b *Graph) bool { return reflect.DeepEqual(a, b) }

const DebugInvariants = debugInvariants
