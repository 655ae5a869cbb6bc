package matching

import "subgraphquery/internal/graph"

// Ullmann is the classic 1976 subgraph isomorphism algorithm [32], included
// as the historical direct-enumeration baseline: label-and-degree seeds,
// Ullmann's refinement procedure (every candidate must have a candidate
// neighbor for each query neighbor), backtracking in query vertex id order.

func ullmannFilter(q, g *graph.Graph, _ FilterOptions) *Candidates {
	cand := seedCandidates(q, g, nil)
	if !cand.AnyEmpty() {
		refineUllmann(q, g, cand)
	}
	return cand
}

// refineUllmann iterates Ullmann's refinement to a fixpoint: v stays in
// Φ(u) only if for every query neighbor u' of u, v has some neighbor in
// Φ(u').
func refineUllmann(q, g *graph.Graph, cand *Candidates) {
	changed := true
	for changed {
		changed = false
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.VertexID(u)
			before := cand.Count(uu)
			cand.Retain(uu, func(v graph.VertexID) bool {
				for _, up := range q.Neighbors(uu) {
					ok := false
					for _, w := range g.NeighborsWithLabel(v, q.Label(up)) {
						if cand.Contains(up, w) {
							ok = true
							break
						}
					}
					if !ok {
						return false
					}
				}
				return true
			})
			if cand.Count(uu) != before {
				changed = true
			}
		}
	}
}

// idOrder returns the query vertices in an order that starts at vertex 0
// and always extends by the smallest-id vertex adjacent to the prefix,
// mirroring Ullmann's simple static ordering while keeping the order
// connected for Enumerate.
func idOrder(q, _ *graph.Graph, _ *Candidates, _ *Scratch) []graph.VertexID {
	n := q.NumVertices()
	order := make([]graph.VertexID, 0, n)
	in := make([]bool, n)
	order = append(order, 0)
	in[0] = true
	for len(order) < n {
		picked := -1
		for u := 0; u < n; u++ {
			if in[u] {
				continue
			}
			for _, w := range q.Neighbors(graph.VertexID(u)) {
				if in[w] {
					picked = u
					break
				}
			}
			if picked != -1 {
				break
			}
		}
		if picked == -1 { // disconnected; take smallest free id
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
