package graph

import "sort"

// Label-pair neighborhood-frequency table, built once per graph alongside
// the CSR (l2Match-style prefiltering): for every ordered label pair
// (l1, l2) that occurs around some edge, the table records the maximum
// number of l2-labeled neighbors over all l1-labeled vertices.
//
// This answers, in O(log pairs) with no allocation, the strongest
// per-graph question a query's neighborhood profile can ask before any
// per-vertex work: if some query vertex labeled l1 needs c neighbors
// labeled l2 and MaxNeighborsWithLabel(l1, l2) < c, no vertex of the data
// graph can host it and the whole graph is pruned before the filter
// stages run. The c = 1 case subsumes the label-pair edge test: the query
// edge (l1, l2) exists in the data graph iff the max is non-zero.
//
// Keys pack (l1, l2) into one uint64 and are stored sorted for binary
// search; the table is O(distinct pairs), far below the |Σ|² dense matrix
// on real label sets.

// PairKey packs an ordered label pair into a sortable key.
func PairKey(l1, l2 Label) uint64 { return uint64(l1)<<32 | uint64(l2) }

// PairDemand is one label-pair demand of a query: some vertex labeled l1
// must have at least Count neighbors labeled l2, with Key = PairKey(l1, l2).
type PairDemand struct {
	Key   uint64
	Count uint32
}

// buildNbrMax fills the (l1,l2) → max-l2-neighbors table by walking the
// per-vertex label runs the CSR index already delimits.
func (g *Graph) buildNbrMax() {
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

// MaxNeighborsWithLabel returns the maximum, over all vertices labeled l1,
// of the number of their neighbors labeled l2 — zero when no l1-labeled
// vertex has any l2-labeled neighbor (including when either label is
// absent).
func (g *Graph) MaxNeighborsWithLabel(l1, l2 Label) int {
	k := PairKey(l1, l2)
	lo, hi := 0, len(g.nbrMaxKeys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.nbrMaxKeys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(g.nbrMaxKeys) || g.nbrMaxKeys[lo] != k {
		return 0
	}
	return int(g.nbrMaxVals[lo])
}

// MeetsPairDemands reports whether the graph meets every demand — whether
// MaxNeighborsWithLabel(l1, l2) >= Count for each — in one forward merge of
// the two key-sorted lists. demands must be ascending by Key with no key
// repeated; a query compiles them once and asks every data graph.
func (g *Graph) MeetsPairDemands(demands []PairDemand) bool {
	keys, i := g.nbrMaxKeys, 0
	for _, d := range demands {
		for i < len(keys) && keys[i] < d.Key {
			i++
		}
		if i == len(keys) || keys[i] != d.Key || g.nbrMaxVals[i] < d.Count {
			return false
		}
	}
	return true
}

// HasLabelPair reports whether some edge of g joins an l1-labeled vertex
// to an l2-labeled one. Symmetric in its arguments.
func (g *Graph) HasLabelPair(l1, l2 Label) bool {
	return g.MaxNeighborsWithLabel(l1, l2) > 0
}
