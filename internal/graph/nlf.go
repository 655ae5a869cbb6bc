package graph

import "sort"

// NLF is a neighborhood label frequency profile: for one vertex, the
// multiset of its neighbors' labels represented as sorted (label, count)
// runs. GraphQL's first filtering step admits a data vertex v as a candidate
// for query vertex u only if profile(v) subsumes profile(u) (§III-B:
// "generate a candidate vertex set for each query vertex based on the
// neighborhood profiles").
//
// Because neighbor lists in Graph are sorted by (label, id), a vertex's NLF
// is derived in a single pass without extra allocation beyond the runs.
type NLF struct {
	labels []Label
	counts []uint32
}

// NLFOf computes the neighborhood label frequency profile of vertex v in g.
func NLFOf(g *Graph, v VertexID) NLF {
	nbrs := g.Neighbors(v)
	var p NLF
	for i := 0; i < len(nbrs); {
		l := g.Label(nbrs[i])
		j := i + 1
		for j < len(nbrs) && g.Label(nbrs[j]) == l {
			j++
		}
		p.labels = append(p.labels, l)
		p.counts = append(p.counts, uint32(j-i))
		i = j
	}
	return p
}

// NLFArena is reusable backing storage for the profiles of all vertices of
// one graph at a time: the runs of every profile live in two flat buffers,
// so recomputing the profiles for another graph allocates only when that
// graph has more edges than any seen before. The zero value is ready.
type NLFArena struct {
	profs  []NLF
	labels []Label
	counts []uint32
}

// Of computes the profile of every vertex of g into the arena. The result
// is valid until the next call.
func (a *NLFArena) Of(g *Graph) []NLF {
	// A vertex has at most one run per neighbor, so 2|E| bounds the total
	// and the buffers never regrow (and move) mid-pass.
	if need := 2 * g.NumEdges(); cap(a.labels) < need {
		a.labels = make([]Label, 0, need)
		a.counts = make([]uint32, 0, need)
	}
	labels, counts := a.labels[:0], a.counts[:0]
	a.profs = a.profs[:0]
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.Neighbors(VertexID(v))
		start := len(labels)
		for i := 0; i < len(nbrs); {
			l := g.Label(nbrs[i])
			j := i + 1
			for j < len(nbrs) && g.Label(nbrs[j]) == l {
				j++
			}
			labels = append(labels, l)
			counts = append(counts, uint32(j-i))
			i = j
		}
		a.profs = append(a.profs, NLF{labels: labels[start:len(labels):len(labels)], counts: counts[start:len(counts):len(counts)]})
	}
	return a.profs
}

// AllNLF computes the profile of every vertex of g.
func AllNLF(g *Graph) []NLF {
	out := make([]NLF, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		out[v] = NLFOf(g, VertexID(v))
	}
	return out
}

// Subsumes reports whether p contains at least as many neighbors of every
// label as q does — the condition for a data vertex with profile p to remain
// a candidate for a query vertex with profile q.
func (p NLF) Subsumes(q NLF) bool {
	i := 0
	for j := range q.labels {
		for i < len(p.labels) && p.labels[i] < q.labels[j] {
			i++
		}
		if i == len(p.labels) || p.labels[i] != q.labels[j] || p.counts[i] < q.counts[j] {
			return false
		}
	}
	return true
}

// Count returns the number of neighbors with label l recorded in p.
func (p NLF) Count(l Label) int {
	lo, hi := 0, len(p.labels)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.labels[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.labels) && p.labels[lo] == l {
		return int(p.counts[lo])
	}
	return 0
}

// DistinctLabels returns the number of distinct neighbor labels in p.
func (p NLF) DistinctLabels() int { return len(p.labels) }

// NLFFromCounts builds a profile from a label->count map (counts of zero
// are dropped).
func NLFFromCounts(counts map[Label]uint32) NLF {
	var p NLF
	if len(counts) == 0 {
		return p
	}
	labels := make([]Label, 0, len(counts))
	for l, c := range counts {
		if c > 0 {
			labels = append(labels, l)
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	p.labels = labels
	p.counts = make([]uint32, len(labels))
	for i, l := range labels {
		p.counts[i] = counts[l]
	}
	return p
}

// ForEach visits each (label, count) run of p in ascending label order,
// stopping early if fn returns false.
func (p NLF) ForEach(fn func(l Label, count int) bool) {
	for i := range p.labels {
		if !fn(p.labels[i], int(p.counts[i])) {
			return
		}
	}
}
