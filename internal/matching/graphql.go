package matching

import (
	"math/bits"
	"sort"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// GraphQL's preprocessing and enumeration phases (He & Singh [14]), split
// the way the paper uses them in the vcFV framework:
//
//   - GraphQLFilter is the Filter function of Algorithm 2: candidate sets
//     from neighborhood profiles, then pruning by the pseudo subgraph
//     isomorphism test of Closure-Tree [13] — a semi-perfect bipartite
//     matching between query-vertex and data-vertex neighborhoods.
//   - GraphQLOrder is the join-based ordering strategy: repeatedly pick the
//     query vertex with the fewest candidates among the neighbors of the
//     already-selected vertices.
//
// GraphQL's Verify is GraphQLOrder + Enumerate; CFQL reuses the same Verify
// on top of CFLFilter.

// DefaultRefinementRounds bounds GraphQL's pseudo-isomorphism refinement.
// The test is applied to every (u, v) candidate pair per round; additional
// rounds propagate pruning through neighbors.
const DefaultRefinementRounds = 3

// GraphQLFilter computes a complete candidate vertex set for every query
// vertex, or nil sets when some set becomes empty (the data graph then
// cannot contain q, Proposition III.1). The candidate generation and
// pruning proceed in ascending query vertex id, as the paper's
// implementation specifies. opts.Rounds = 0 selects
// DefaultRefinementRounds; negative disables the pseudo-isomorphism
// refinement entirely (the neighborhood-profile-only ablation). The pass
// aborts (Candidates.Aborted) when opts.Deadline passes. With a non-nil
// opts.Explain it records per-vertex candidate counts after the
// neighborhood-profile generation and after the refinement, the number of
// refinement rounds executed, and how many candidate vertices the
// semi-perfect bipartite matching test rejected; a nil Explain costs a few
// predictable branches and allocates nothing.
//
// With a non-nil opts.Scratch the pass runs on the arena: the returned
// Candidates is owned by the Scratch and valid until its next filter
// call, and steady-state execution allocates nothing.
//
// Space complexity O(|V(q)|·|V(G)|); time O(|V(q)|·|V(G)|·Θ(d_q, d_G)) with
// Θ the bipartite matching cost.
func GraphQLFilter(q, g *graph.Graph, opts FilterOptions) *Candidates {
	cand := graphQLFilter(q, g, opts)
	debugCheckCandidates("GraphQLFilter", q, g, cand)
	return cand
}

func graphQLFilter(q, g *graph.Graph, opts FilterOptions) *Candidates {
	fault.Inject(fault.PointFilter)
	ex := opts.Explain
	s := opts.Scratch
	if s == nil {
		s = NewScratch()
	}
	rounds := opts.Rounds
	if rounds == 0 {
		rounds = DefaultRefinementRounds
	}
	if rounds < 0 {
		rounds = 0
	}
	nq := q.NumVertices()
	if nq == 0 {
		return s.candidates(0, g.NumVertices())
	}

	// Label-pair prefilter: reject the whole graph by its neighborhood
	// frequency table before any per-vertex work (see queryPlan.demands).
	// Empty sets are the "filtered out" signal (AnyEmpty).
	plan := s.planFor(q)
	if !g.MeetsPairDemands(plan.demands) {
		ex.ObservePrefilter(true)
		return plan.rejected()
	}
	ex.ObservePrefilter(false)
	cand := s.candidates(nq, g.NumVertices())
	profs := plan.profs

	// Step 1: candidates by neighborhood profile, in ascending id order.
	// LabeledVertices is ascending, so every set is born sorted.
	for u := 0; u < nq; u++ {
		if opts.stop(s, cand) {
			return cand
		}
		uu := graph.VertexID(u)
		prof := profs[u]
		deg := q.Degree(uu)
		for _, vv := range g.LabeledVertices(q.Label(uu)) {
			if g.Degree(vv) >= deg && g.SubsumesProfile(vv, prof) {
				cand.Add(uu, vv)
			}
		}
		if cand.Count(uu) == 0 {
			s.emitStageCounts(ex, obs.StageGraphQLProfile, cand)
			return cand
		}
	}
	s.emitStageCounts(ex, obs.StageGraphQLProfile, cand)
	snap := debugSnapshotCounts(cand) // sqdebug: stage monotonicity baseline

	// Step 2: pseudo subgraph isomorphism pruning via semi-perfect
	// bipartite matching, iterated for a bounded number of rounds. The
	// retention loop is written out (rather than via Retain's callback) to
	// keep the hot path closure-free, and the bigraph rows come from the
	// arena's reusable row storage.
	var executed int
	var rejected int64
	for r := 0; r < rounds; r++ {
		executed = r + 1
		changed := false
		for u := 0; u < nq; u++ {
			if opts.stop(s, cand) {
				s.emitRefineStats(ex, cand, executed, rejected)
				return cand
			}
			uu := graph.VertexID(u)
			qn := q.Neighbors(uu)
			before := cand.Count(uu)
			kept := cand.Sets[uu][:0]
			for _, v := range cand.Sets[uu] {
				gn := g.Neighbors(v)
				keep := len(gn) >= len(qn)
				if keep {
					// Build the bigraph B between N(u) and N(v): edge when
					// the data neighbor is a candidate of the query neighbor.
					adj := s.adjRows.Take(len(qn))
					for k, up := range qn {
						row := adj[k]
						for j, w := range gn {
							if cand.Contains(up, w) {
								row = append(row, int32(j))
							}
						}
						if len(row) == 0 {
							keep = false
							break
						}
						adj[k] = row
					}
					if keep {
						s.bm.reset(len(qn), len(gn))
						keep = s.bm.semiPerfect(adj)
					}
				}
				if keep {
					kept = append(kept, v)
				} else {
					rejected++
					cand.clearMember(uu, v)
				}
			}
			cand.Sets[uu] = kept
			if cand.Count(uu) == 0 {
				s.emitRefineStats(ex, cand, executed, rejected)
				return cand
			}
			if cand.Count(uu) != before {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	s.emitRefineStats(ex, cand, executed, rejected)
	debugCheckMonotone("GraphQL refinement", snap, cand)
	return cand
}

// emitRefineStats records GraphQL's refinement outcome for one data graph
// (no-op with a nil Explain).
func (s *Scratch) emitRefineStats(ex *obs.Explain, cand *Candidates, rounds int, rejected int64) {
	if ex == nil {
		return
	}
	s.emitStageCounts(ex, obs.StageGraphQLRefine, cand)
	ex.ObserveRefineRounds(rounds)
	ex.ObserveRejections(rejected)
}

// GraphQLOrder computes the join-based matching order: start from the query
// vertex with the minimum number of candidates; at each step select, among
// the un-ordered neighbors of the ordered prefix, the vertex with the
// minimum number of candidates (ties toward higher degree, then lower id).
func GraphQLOrder(q *graph.Graph, cand *Candidates) []graph.VertexID {
	return GraphQLOrderScratch(q, cand, nil)
}

// GraphQLOrderScratch is GraphQLOrder running on an arena: the returned
// order is owned by s and valid until its next ordering call. A nil s
// allocates a private arena (identical to GraphQLOrder). A query of at most
// domain.WordVertices vertices orders on its neighbourhood words.
func GraphQLOrderScratch(q *graph.Graph, cand *Candidates, s *Scratch) []graph.VertexID {
	fault.Inject(fault.PointOrder)
	if s == nil {
		s = NewScratch()
	}
	if len(q.NeighborWords()) == 0 {
		return graphQLOrderLists(q, cand, s)
	}
	s.orderBuf = graphQLOrderWords(q, cand, s.orderBuf[:0])
	return s.orderBuf
}

// joinBefore is GraphQL's preference between two query vertices: fewer
// candidates, then higher degree, then lower id.
func joinBefore(q *graph.Graph, cand *Candidates, a, b graph.VertexID) bool {
	ca, cb := cand.Count(a), cand.Count(b)
	if ca != cb {
		return ca < cb
	}
	da, db := q.Degree(a), q.Degree(b)
	if da != db {
		return da > db
	}
	return a < b
}

// graphQLOrderWords appends the join order to order, keeping the ordered
// prefix and its un-ordered neighbours (the frontier) as words, so that a
// step scans the frontier's members and nothing else.
func graphQLOrderWords(q *graph.Graph, cand *Candidates, order []graph.VertexID) []graph.VertexID {
	words := q.NeighborWords()
	var in, frontier uint64
	pick := ^uint64(0) >> (64 - len(words)) // the first vertex is the best of all
	for len(order) < len(words) {
		next := graph.VertexID(bits.TrailingZeros64(pick))
		for f := pick & (pick - 1); f != 0; f &= f - 1 {
			if u := graph.VertexID(bits.TrailingZeros64(f)); joinBefore(q, cand, u, next) {
				next = u
			}
		}
		order = append(order, next)
		in |= 1 << next
		frontier = (frontier | words[next]) &^ in
		if pick = frontier; pick == 0 { // disconnected query; fall back to the lowest free vertex
			pick = ^in & (in + 1)
		}
	}
	return order
}

// graphQLOrderLists is the join order with the ordered set and the frontier
// as flags, each step scanning every query vertex: the path of a query too
// wide for a word.
func graphQLOrderLists(q *graph.Graph, cand *Candidates, s *Scratch) []graph.VertexID {
	n := q.NumVertices()
	order := s.orderBuf[:0]
	in := growBools(&s.orderIn, n)
	frontier := growBools(&s.frontier, n) // un-ordered neighbors of the prefix

	pick := func(frontierOnly bool) graph.VertexID {
		best := graph.VertexID(0)
		have := false
		for u := 0; u < n; u++ {
			uu := graph.VertexID(u)
			if in[u] || (frontierOnly && !frontier[u]) {
				continue
			}
			if !have || joinBefore(q, cand, uu, best) {
				best = uu
				have = true
			}
		}
		if !have { // disconnected query; fall back to any free vertex
			for u := 0; u < n; u++ {
				if !in[u] {
					return graph.VertexID(u)
				}
			}
		}
		return best
	}

	first := pick(false)
	order = append(order, first)
	in[first] = true
	for _, w := range q.Neighbors(first) {
		frontier[w] = true
	}
	for len(order) < n {
		next := pick(true)
		order = append(order, next)
		in[next] = true
		frontier[next] = false
		for _, w := range q.Neighbors(next) {
			if !in[w] {
				frontier[w] = true
			}
		}
	}
	s.orderBuf = order
	return order
}

// SortCandidates orders every candidate set ascending by vertex id — the
// invariant the filters maintain by construction and the enumeration's
// intersection kernel requires; useful for hand-built candidate sets and
// deterministic tests.
func SortCandidates(cand *Candidates) {
	for u := range cand.Sets {
		s := cand.Sets[u]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
}
