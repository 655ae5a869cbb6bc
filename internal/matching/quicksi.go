package matching

import "subgraphquery/internal/graph"

// QuickSI (Shang, Zhang, Lin and Yu [28]) — a direct-enumeration subgraph
// isomorphism algorithm whose contribution is the QI-sequence: a spanning
// tree of the query ordered so that infrequent vertices and edges are
// matched first, shrinking the search tree near its root. Implemented here
// with per-vertex frequencies from the data graph (freq(L(u)) weighted by
// degree) and a Prim-style greedy sequence; the enumeration itself uses
// only label and degree checks per candidate, true to the direct-
// enumeration family (no candidate set refinement): the QuickSI value of the
// catalogue in matcher.go.

func qiOrder(q, g *graph.Graph, _ *Candidates, _ *Scratch) []graph.VertexID {
	return QISequence(q, g)
}

// QISequence computes QuickSI's matching order: start at the query vertex
// whose label is rarest in g (ties to higher degree), then repeatedly
// extend with the adjacent unmatched vertex of minimum frequency weight.
func QISequence(q, g *graph.Graph) []graph.VertexID {
	n := q.NumVertices()
	weight := func(u graph.VertexID) float64 {
		deg := q.Degree(u)
		if deg == 0 {
			deg = 1
		}
		return float64(g.LabelFrequency(q.Label(u))) / float64(deg)
	}
	order := make([]graph.VertexID, 0, n)
	in := make([]bool, n)

	best := graph.VertexID(0)
	for u := 1; u < n; u++ {
		if weight(graph.VertexID(u)) < weight(best) {
			best = graph.VertexID(u)
		}
	}
	order = append(order, best)
	in[best] = true
	for len(order) < n {
		picked := -1
		for u := 0; u < n; u++ {
			uu := graph.VertexID(u)
			if in[u] {
				continue
			}
			adjacent := false
			for _, w := range q.Neighbors(uu) {
				if in[w] {
					adjacent = true
					break
				}
			}
			if !adjacent {
				continue
			}
			if picked == -1 || weight(uu) < weight(graph.VertexID(picked)) {
				picked = u
			}
		}
		if picked == -1 { // disconnected query
			for u := 0; u < n; u++ {
				if !in[u] {
					picked = u
					break
				}
			}
		}
		in[picked] = true
		order = append(order, graph.VertexID(picked))
	}
	return order
}
