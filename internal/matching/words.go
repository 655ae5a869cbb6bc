package matching

import (
	"math/bits"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// Word-parallel kernels for a data graph of at most 64 vertices, the
// paper's headline case: every set over V(G) — Φ(u), a neighbourhood, the
// used set — is one uint64 off graph.NeighborWords, every conflict set over
// order positions another. The list kernels of cfl.go and enumerate.go in
// another representation: same candidate sets, same candidates tried in
// ascending id, same conflict sets, hence the same Steps, Jumps, Redos and
// answers (DESIGN.md has the argument). domain.UseWords picks them.

// bit returns the word holding only slot i, for i below 64.
func bit[T ~int | ~int32 | ~uint32](i T) uint64 { return 1 << (uint(i) & 63) }

// reach returns the vertices adjacent to some member of set.
func reach(nbr []uint64, set uint64) uint64 {
	var r uint64
	for ; set != 0; set &= set - 1 {
		r |= nbr[bits.TrailingZeros64(set)]
	}
	return r
}

// cflWords is cflFilter's two passes along order, over the label-and-degree
// masks cflRoot left in s.classMask. Top-down, Φ(u) is u's mask met, for each
// neighbor u' earlier in the order, with the vertices adjacent to a member of
// Φ(u') — what the list path's scatter marks per u'. Bottom-up, v stays in
// Φ(u) iff it is adjacent to a member of Φ(u') for each later neighbor u':
// the same meet. Rows of cand are written whole as they change, so boundary
// checks and stage counts read what the list path builds; the caller lists
// the sets.
func cflWords(q, g *graph.Graph, bottomUp bool, opts *FilterOptions, s *Scratch, cand *Candidates, order []graph.VertexID) {
	ex, nbr, phi := opts.Explain, g.NeighborWords(), s.phi
	for i, u := range order {
		if opts.stop(s, cand) {
			return
		}
		w := s.classMask[s.plan.classOf[u]]
		if i == 0 { // the root: its neighborhood-label-frequency profile on top
			w = g.SubsumingWord(w, s.plan.profs[u])
		}
		for _, up := range q.Neighbors(u) {
			if s.pos[up] < i {
				w &= reach(nbr, phi[up])
			}
		}
		phi[u] = w
		if w == 0 {
			if ex != nil {
				ex.ObserveDomainRep(i, 0, 0)
			}
			s.emitStageCounts(ex, obs.StageCFLTopDown, cand)
			return
		}
		cand.dom.SetWord(int(u), w)
	}
	ex.ObserveDomainRep(len(order)-1, 0, 0)
	s.emitStageCounts(ex, obs.StageCFLTopDown, cand)
	if !bottomUp {
		return
	}
	snap := debugSnapshotCounts(cand)
	for i := len(order) - 1; i >= 0; i-- {
		if opts.stop(s, cand) {
			return
		}
		u := order[i]
		w := phi[u]
		for _, up := range q.Neighbors(u) {
			if s.pos[up] > i {
				w &= reach(nbr, phi[up])
			}
		}
		if w == phi[u] {
			continue
		}
		phi[u] = w
		cand.dom.SetWord(int(u), w)
		if w == 0 {
			break
		}
	}
	s.emitStageCounts(ex, obs.StageCFLBottomUp, cand)
	debugCheckMonotone("CFL bottom-up", snap, cand)
}

// searchWords is enumerator.search on words. A node's pool is Φ(u) ∧
// N(image of the pivot); its used members blame their owners' positions and
// leave; each further backward neighbor w then takes the non-neighbors of
// its image out and is blamed iff it took something — the list path's
// "first failing edge check" per candidate, as a candidate failing several
// is removed by the first. What is left is tried in ascending id.
func (e *enumerator) searchWords(depth int) int {
	if depth == len(e.order) {
		return e.embedding(depth)
	}
	if e.budget.spend() {
		e.stop = true
		return depth - 1
	}
	u := e.order[depth]
	pool, conf := e.phi[u], uint64(0)
	if depth > 0 {
		e.wordIsects++
		bw := e.backward[depth]
		conf = bit(e.pos[bw[0]]) // the candidate pool depends on the pivot
		pool &= e.nbr[e.mapping[bw[0]]]
		for x := pool & e.usedWord; x != 0; x &= x - 1 {
			conf |= bit(e.ownerPos[bits.TrailingZeros64(x)])
		}
		pool &^= e.usedWord
		for _, w := range bw[1:] {
			if rest := pool & e.nbr[e.mapping[w]]; rest != pool {
				conf |= bit(e.pos[w])
				pool = rest
			}
		}
	}
	e.confWords[depth] = conf
	foundBefore := e.found
	ahead := e.aheadAt(depth)
	for ; pool != 0; pool &= pool - 1 {
		v := graph.VertexID(bits.TrailingZeros64(pool))
		if ahead == nil {
			ahead = e.aheadAt(depth) // the trigger can fire within a node
		}
		if len(ahead) > 0 && e.deadAheadWords(depth, v, ahead) {
			continue
		}
		e.mapping[u] = v
		e.usedWord |= bit(v)
		e.ownerPos[v] = int32(depth)
		back := e.searchWords(depth + 1)
		e.usedWord &^= bit(v)
		if e.stop {
			return depth - 1
		}
		if back < depth {
			return back // the child's dead end did not involve this position
		}
	}
	if depth == 0 || e.found > foundBefore {
		return depth - 1 // the root, or a subtree with embeddings: chronological
	}
	// Dead end: jump to the most recent blamed position, bequeathing it the
	// rest of the blame.
	e.redos++
	conf = e.confWords[depth]
	target := 63 - bits.LeadingZeros64(conf)
	if target > 0 {
		e.confWords[target] |= conf &^ bit(target)
	}
	if target < depth-1 {
		e.jumps++
	}
	return target
}

// deadAheadWords is deadAhead on words: an entry's pool for v is Φ(u) ∧
// N(v) ∧ the neighbourhoods of the images of u's earlier neighbours, dead
// when the used word covers it.
func (e *enumerator) deadAheadWords(depth int, v graph.VertexID, ahead []aheadEntry) bool {
	nv := e.nbr[v]
	for _, a := range ahead {
		pool := e.phi[a.u] & nv
		for _, w := range e.aheadPrev[a.lo:a.hi] {
			pool &= e.nbr[e.mapping[w]]
		}
		if pool&^e.usedWord != 0 {
			continue
		}
		conf := a.blame
		for ; pool != 0; pool &= pool - 1 {
			conf |= bit(e.ownerPos[bits.TrailingZeros64(pool)])
		}
		e.confWords[depth] |= conf
		e.pruned++
		return true
	}
	return false
}
