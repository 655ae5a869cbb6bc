package graph

import "slices"

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
// per-vertex label runs the CSR index already delimits. The l1-labeled
// vertices are one run of the label directory; their label runs, packed as
// (l2, length) keys, sort with no comparison callback, and the last key of
// each l2 carries the maximum. buf has room for every label run (at most
// one per adjacency entry); each l1's maxima are compacted into it behind
// the previous one's.
func (g *Graph) buildNbrMax(buf []uint64) {
	pairs := make([]int, len(g.dir)) // distinct l2 around each l1
	w := 0
	for r := range g.dir {
		end := len(g.byLabel)
		if r+1 < len(g.dir) {
			end = int(g.dir[r+1].start)
		}
		n := w
		for _, v := range g.byLabel[g.dir[r].start:end] {
			prev := g.offsets[v]
			for i := g.nlStart[v]; i < g.nlStart[v+1]; i++ {
				buf[n] = uint64(g.nlLabels[i])<<32 | uint64(g.nlEnds[i]-prev)
				prev = g.nlEnds[i]
				n++
			}
		}
		runs := buf[w:n]
		slices.Sort(runs)
		for i, k := range runs {
			if i+1 == len(runs) || runs[i+1]>>32 != k>>32 {
				buf[w+pairs[r]] = k
				pairs[r]++
			}
		}
		w += pairs[r]
	}
	g.nbrMaxKeys = make([]uint64, w)
	g.nbrMaxVals = make([]uint32, w)
	i := 0
	for r, run := range g.dir {
		for _, k := range buf[i : i+pairs[r]] {
			g.nbrMaxKeys[i] = PairKey(run.label, Label(k>>32))
			g.nbrMaxVals[i] = uint32(k)
			i++
		}
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
