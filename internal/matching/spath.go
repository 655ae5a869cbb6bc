package matching

import "subgraphquery/internal/graph"

// SPath (Zhao and Han [41]) — a direct-enumeration algorithm whose
// contribution is the neighborhood signature: for every vertex, the set of
// labels reachable within distance k (k = 2 here, the paper's common
// configuration). A data vertex v can host query vertex u only if v's
// signature covers u's at every distance level. Candidates pass the
// signature filter individually (no joint refinement — this is what
// separates the direct-enumeration family from preprocessing-enumeration),
// and the enumeration extends along shortest-path-first order.

// signatureRadius is the neighborhood distance of the signature filter.
const signatureRadius = 2

func spathFilter(q, g *graph.Graph, _ FilterOptions) *Candidates {
	qsig, gsig := signatures(q), signatures(g)
	return seedCandidates(q, g, func(u, v graph.VertexID) bool { return covers(gsig[v], qsig[u]) })
}

// signature holds, per distance level 1..signatureRadius, the multiset of
// labels reachable at exactly that (unweighted shortest-path) distance,
// as sorted (label, count) runs.
type signature [signatureRadius]graph.NLF

// signatures computes every vertex's distance-level label signature via a
// truncated BFS per vertex.
func signatures(g *graph.Graph) []signature {
	n := g.NumVertices()
	out := make([]signature, n)
	depth := make([]int8, n)
	var frontier, next []graph.VertexID
	counts := make(map[graph.Label]uint32)

	for v := 0; v < n; v++ {
		for i := range depth {
			depth[i] = -1
		}
		depth[v] = 0
		frontier = append(frontier[:0], graph.VertexID(v))
		for d := 1; d <= signatureRadius; d++ {
			next = next[:0]
			clear(counts)
			for _, x := range frontier {
				for _, w := range g.Neighbors(x) {
					if depth[w] == -1 {
						depth[w] = int8(d)
						next = append(next, w)
						counts[g.Label(w)]++
					}
				}
			}
			out[v][d-1] = nlfFromCounts(counts)
			frontier, next = next, frontier
		}
	}
	return out
}

// nlfFromCounts converts a label->count map into sorted NLF runs.
func nlfFromCounts(counts map[graph.Label]uint32) graph.NLF {
	return graph.NLFFromCounts(counts)
}

// covers reports whether the data signature dominates the query signature:
// at every level, the *cumulative* reachable label counts up to that level
// must dominate. Cumulative comparison is required for completeness: an
// embedding may map a query vertex at distance 2 from u to a data vertex
// at distance 1 from φ(u) (shortcut edges in G shrink distances, never
// grow them).
func covers(dv, qu signature) bool {
	// Accumulate levels into cumulative counts.
	var dCum, qCum map[graph.Label]uint32
	dCum = make(map[graph.Label]uint32)
	qCum = make(map[graph.Label]uint32)
	for lvl := 0; lvl < signatureRadius; lvl++ {
		dv[lvl].ForEach(func(l graph.Label, c int) bool {
			dCum[l] += uint32(c)
			return true
		})
		qu[lvl].ForEach(func(l graph.Label, c int) bool {
			qCum[l] += uint32(c)
			return true
		})
		for l, c := range qCum {
			if dCum[l] < c {
				return false
			}
		}
	}
	return true
}
