package index

import (
	"sort"
	"strconv"
	"strings"

	"subgraphquery/internal/graph"
)

// NewFGIndex returns a mining-based *graph*-feature index in the spirit of
// FG-Index (Cheng, Ke, Ng and Lu [4]: "towards verification-free query
// processing on graph databases"): the frequent connected subgraphs of up
// to fgMaxFeatureEdges edges, canonicalized exactly (small graphs admit
// exact canonical forms by permutation minimization).
//
// The signature property of FG-Index is reproduced: when the *entire
// query* is one of the indexed features, its posting list is the exact
// answer set — no verification at all. Larger queries fall back to
// feature-intersection filtering like the other mining-based indexes.
func NewFGIndex() *Mined {
	return &Mined{support: defaultSupportRatio, miner: miner{
		name: "FG-Index",
		enumerate: func(g *graph.Graph, visit func(code string) bool) bool {
			return enumerateConnectedSubgraphs(g, fgMaxFeatureEdges, visit)
		},
		anchor: isSingleVertexGraphCode,
		whole: func(q *graph.Graph) (string, bool) {
			if q.NumEdges() > fgMaxFeatureEdges || q.NumVertices() > fgMaxFeatureEdges+1 {
				return "", false
			}
			return canonicalSmallGraphCode(q), true
		},
	}}
}

// fgMaxFeatureEdges bounds FG-Index's features: at most 5 vertices, which
// keeps exact canonicalization trivial.
const fgMaxFeatureEdges = 4

func isSingleVertexGraphCode(code string) bool {
	return strings.HasPrefix(code, "G1|")
}

// enumerateConnectedSubgraphs visits the canonical code of every connected
// subgraph (edge subset spanning a connected vertex set) of g with at most
// maxE edges, with growth-order duplicates. Growth alternates between
// adding an edge to a new vertex and closing an edge between two existing
// vertices.
func enumerateConnectedSubgraphs(g *graph.Graph, maxE int, visit func(code string) bool) bool {
	inSub := make([]bool, g.NumVertices())
	verts := make([]graph.VertexID, 0, maxE+1)
	var edges []graph.Edge
	edgeSeen := make(map[[2]graph.VertexID]bool)

	var grow func() bool
	grow = func() bool {
		if !visit(subgraphCode(g, verts, edges)) {
			return false
		}
		if len(edges) == maxE {
			return true
		}
		for _, v := range verts {
			for _, w := range g.Neighbors(v) {
				a, b := v, w
				if a > b {
					a, b = b, a
				}
				if edgeSeen[[2]graph.VertexID{a, b}] {
					continue
				}
				edgeSeen[[2]graph.VertexID{a, b}] = true
				newVertex := !inSub[w]
				if newVertex {
					inSub[w] = true
					verts = append(verts, w)
				}
				edges = append(edges, graph.Edge{U: v, V: w})
				ok := grow()
				edges = edges[:len(edges)-1]
				if newVertex {
					inSub[w] = false
					verts = verts[:len(verts)-1]
				}
				delete(edgeSeen, [2]graph.VertexID{a, b})
				if !ok {
					return false
				}
			}
		}
		return true
	}
	for v := 0; v < g.NumVertices(); v++ {
		vv := graph.VertexID(v)
		inSub[vv] = true
		verts = append(verts[:0], vv)
		edges = edges[:0]
		ok := grow()
		inSub[vv] = false
		if !ok {
			return false
		}
	}
	return true
}

// subgraphCode canonicalizes the feature given by (verts, edges) of g.
func subgraphCode(g *graph.Graph, verts []graph.VertexID, edges []graph.Edge) string {
	n := len(verts)
	labels := make([]graph.Label, n)
	pos := make(map[graph.VertexID]int, n)
	for i, v := range verts {
		pos[v] = i
		labels[i] = g.Label(v)
	}
	var adj uint64 // bitmap over (i,j) pairs, i<j, n<=8
	for _, e := range edges {
		i, j := pos[e.U], pos[e.V]
		if i > j {
			i, j = j, i
		}
		adj |= 1 << uint(i*8+j)
	}
	return canonicalCode(labels, adj, n)
}

// canonicalSmallGraphCode canonicalizes a whole small graph.
func canonicalSmallGraphCode(g *graph.Graph) string {
	n := g.NumVertices()
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = g.Label(graph.VertexID(i))
	}
	var adj uint64
	for _, e := range g.Edges() {
		i, j := int(e.U), int(e.V)
		if i > j {
			i, j = j, i
		}
		adj |= 1 << uint(i*8+j)
	}
	return canonicalCode(labels, adj, n)
}

// canonicalCode computes the exact canonical string of a labeled graph
// with at most 8 vertices by minimizing over all vertex permutations.
func canonicalCode(labels []graph.Label, adj uint64, n int) string {
	if n > 8 {
		// Callers bound feature size well below this; degrade gracefully
		// with a non-canonical but deterministic code.
		return encodeCode(labels, adj, n)
	}
	// Vertices are first grouped by label (labels in canonical order are
	// then fixed); only permutations within equal-label groups can affect
	// the code, so the search space is the product of group factorials
	// instead of n!.
	order := make([]int, n) // original indices sorted by label
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return labels[order[a]] < labels[order[b]] })
	sortedLabels := make([]graph.Label, n)
	for newPos, old := range order {
		sortedLabels[newPos] = labels[old]
	}

	perm := append([]int(nil), order...) // perm[newPos] = original index
	var bestAdj uint64
	haveBest := false
	evaluate := func() {
		var padj uint64
		inv := make([]int, n) // original -> new position
		for newPos, old := range perm {
			inv[old] = newPos
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if adj&(1<<uint(i*8+j)) != 0 {
					a, b := inv[i], inv[j]
					if a > b {
						a, b = b, a
					}
					padj |= 1 << uint(a*8+b)
				}
			}
		}
		if !haveBest || padj < bestAdj {
			bestAdj = padj
			haveBest = true
		}
	}
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			evaluate()
			return
		}
		for i := k; i < n; i++ {
			if sortedLabels[i] != sortedLabels[k] {
				break // only swap within the same label group
			}
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	return encodeCode(sortedLabels, bestAdj, n)
}

func encodeCode(labels []graph.Label, adj uint64, n int) string {
	var b strings.Builder
	b.WriteString("G")
	b.WriteString(strconv.Itoa(n))
	b.WriteString("|")
	parts := make([]string, n)
	for i, l := range labels {
		parts[i] = strconv.FormatUint(uint64(l), 36)
	}
	if n > 8 {
		sort.Strings(parts) // deterministic fallback only
	}
	b.WriteString(strings.Join(parts, ","))
	b.WriteString("|")
	b.WriteString(strconv.FormatUint(adj, 36))
	return b.String()
}
