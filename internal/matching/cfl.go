package matching

import (
	"cmp"
	"math/bits"
	"slices"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/scratch"
)

// CFL (Bi, Chang, Lin, Qin, Zhang [1]) — the state-of-the-art
// preprocessing-enumeration subgraph matching algorithm at the time of the
// paper. Its two phases, used separately by the vcFV engines:
//
//   - CFLFilter builds a complete candidate vertex set along a BFS tree q_t
//     of the query: top-down generation with backward pruning on non-tree
//     edges, then a bottom-up refinement pass — the CPI construction of the
//     CFL paper, with time O(|E(q)|·|E(G)|) and space O(|V(q)|·|E(G)|).
//   - CFLOrder produces the path-based matching order that prioritizes the
//     query's core structure (2-core): root-to-leaf paths of q_t are ranked
//     by their estimated number of embeddings, core paths first.

// CFLFilter computes candidate sets for q against g under opts. It returns
// early (with some sets possibly empty) as soon as any candidate set
// becomes empty, and aborts (Candidates.Aborted) when opts.Deadline
// passes. With a non-nil opts.Explain, per-query-vertex candidate counts
// are recorded after the label/degree qualification, the top-down
// generation (with backward pruning) and the bottom-up refinement; a nil
// Explain costs a few predictable branches and allocates nothing.
//
// With a non-nil opts.Scratch the pass runs entirely on the arena: the
// returned Candidates is owned by the Scratch and valid until its next
// filter call, and steady-state execution allocates nothing.
func CFLFilter(q, g *graph.Graph, opts FilterOptions) *Candidates {
	cand := cflFilter(q, g, true, opts)
	debugCheckCandidates("CFLFilter", q, g, cand)
	return cand
}

// CFLFilterTopDownOnly is the ablation variant that skips the bottom-up
// refinement pass, isolating its contribution to filtering precision
// (DESIGN.md ablation index).
func CFLFilterTopDownOnly(q, g *graph.Graph, opts FilterOptions) *Candidates {
	cand := cflFilter(q, g, false, opts)
	debugCheckCandidates("CFLFilterTopDownOnly", q, g, cand)
	return cand
}

// emitStageCounts records the current per-vertex candidate counts of one
// filter stage (no-op with a nil Explain; a plain method rather than a
// closure so the nil path stays allocation-free): the domain rows'
// cardinalities — popcounts on the word path, which lists the sets only
// after its last stage — in an arena buffer Explain sums and does not keep.
func (s *Scratch) emitStageCounts(ex *obs.Explain, stage string, cand *Candidates) {
	if ex == nil {
		return
	}
	s.counts = scratch.Grow(s.counts, len(cand.Sets))
	for u := range s.counts {
		s.counts[u] = cand.dom.Count(u)
	}
	ex.ObserveStageDense(stage, s.counts, cand.dom.NData())
}

// candVolume estimates the scatter volume of generating one query
// vertex's candidates: the processed neighbors' total candidate count, a
// lower bound on the (candidate, adjacency) pairs both generation paths
// iterate — the input the bits-vs-chain switch is calibrated on.
func candVolume(cand *Candidates, before []graph.VertexID) int {
	vol := 0
	for _, up := range before {
		vol += cand.Count(up)
	}
	return vol
}

// emitLDFCounts records CFL's label-and-degree qualification stage: the
// raw candidate pool size per query vertex before any connectivity
// pruning, read off the class counts cflRoot just filled.
func (s *Scratch) emitLDFCounts(ex *obs.Explain) {
	if ex == nil {
		return
	}
	s.counts = scratch.Grow(s.counts, len(s.plan.classOf))
	for u, ci := range s.plan.classOf {
		s.counts[u] = s.classCount[ci]
	}
	ex.ObserveStage(obs.StageCFLLDF, s.counts)
}

func cflFilter(q, g *graph.Graph, bottomUp bool, opts FilterOptions) *Candidates {
	fault.Inject(fault.PointFilter)
	ex := opts.Explain
	s := opts.Scratch
	if s == nil {
		s = NewScratch()
	}
	nq, nd := q.NumVertices(), g.NumVertices()
	if nq == 0 {
		return s.candidates(0, nd)
	}
	// Label-pair prefilter: reject the whole graph by its neighborhood
	// frequency table before any per-vertex work, the candidate structure's
	// reset included. Empty sets are exactly the "filtered out" signal
	// (AnyEmpty).
	plan := s.planFor(q)
	if !g.MeetsPairDemands(plan.demands) {
		ex.ObservePrefilter(true)
		return plan.rejected()
	}
	ex.ObservePrefilter(false)
	cand := s.candidates(nq, nd)
	profs := plan.profs

	s.ensureCFL(nq, nd)
	root := cflRoot(q, g, s)
	s.emitLDFCounts(ex)
	order := s.bfsOrderInto(q, root)
	if domain.UseWords(nq, nd) {
		cflWords(q, g, bottomUp, &opts, s, cand, order)
		cand.listSets()
		return cand
	}
	bitsVerts, chainVerts := 0, 0

	// Top-down generation along the BFS order. processed[u'] marks query
	// vertices whose candidate sets exist already; for each new u, a data
	// vertex v qualifies if label/degree match and, for *every* processed
	// neighbor u' of u, v is adjacent to some candidate of u' (backward
	// pruning over both tree and non-tree edges).
	for _, u := range order {
		if opts.stop(s, cand) {
			return cand
		}
		qDeg := q.Degree(u)
		qLab := q.Label(u)
		before := s.adjacent[:0]
		for _, up := range q.Neighbors(u) {
			if s.processed[up] {
				before = append(before, up)
			}
		}
		s.adjacent = before
		if len(before) == 0 {
			// The root: label + degree + neighborhood-label-frequency seed.
			// LabeledVertices is ascending, so Φ(root) is born sorted.
			prof := profs[u]
			for _, vv := range g.LabeledVertices(qLab) {
				if g.Degree(vv) >= qDeg && g.SubsumesProfile(vv, prof) {
					cand.Add(u, vv)
				}
			}
		} else if vol := candVolume(cand, before); domain.UseBitsGenerate(vol, nd) {
			// Dense label: run the backward-pruning intersection on packed
			// bit rows. Scatter each processed neighbor's reachable set
			// into a row and AND them together — one word covers 64 data
			// vertices — then extract survivors in ascending order (the
			// set invariant holds by construction, no sort needed).
			bitsVerts++
			acc, mark := &s.accBits, &s.markBits
			for i, up := range before {
				dst := acc
				if i > 0 {
					dst = mark
				}
				dst.Reset(nd)
				for _, vp := range cand.Sets[up] {
					for _, w := range g.NeighborsWithLabel(vp, qLab) {
						dst.Set(uint32(w))
					}
				}
				if i > 0 {
					acc.And(mark)
				}
			}
			acc.IterateSet(func(w uint32) bool {
				if g.Degree(graph.VertexID(w)) >= qDeg {
					cand.Add(u, graph.VertexID(w))
				}
				return true
			})
		} else {
			// A data vertex v survives iff, for every processed neighbor u'
			// of u, v is adjacent to some candidate in Φ(u'). One epoch per
			// u'; chain[v] counts how many consecutive epochs marked v. The
			// epoch counter is monotonic across the Scratch's whole
			// lifetime, so stale stamps from earlier graphs never match.
			chainVerts++
			marked := s.marked[:0]
			for i, up := range before {
				prevEpoch := s.epoch
				s.epoch++
				epoch := s.epoch
				if i == len(before)-1 {
					marked = marked[:0]
				}
				for _, vp := range cand.Sets[up] {
					for _, w := range g.NeighborsWithLabel(vp, qLab) {
						if s.lastEpoch[w] == epoch {
							continue // already counted for this u'
						}
						if i == 0 {
							s.chain[w] = 1
						} else if s.lastEpoch[w] == prevEpoch && s.chain[w] == int32(i) {
							s.chain[w] = int32(i + 1)
						} else {
							continue // missed an earlier u'
						}
						s.lastEpoch[w] = epoch
						if i == len(before)-1 {
							marked = append(marked, w)
						}
					}
				}
			}
			s.marked = marked
			need := int32(len(before))
			for _, vv := range marked {
				if s.chain[vv] == need && g.Degree(vv) >= qDeg {
					cand.Add(u, vv)
				}
			}
			// marked is in discovery order; restore the ascending-set
			// invariant the enumeration kernel relies on.
			slices.Sort(cand.Sets[u])
		}
		if cand.Count(u) == 0 {
			if ex != nil {
				ex.ObserveDomainRep(0, bitsVerts, chainVerts)
			}
			s.emitStageCounts(ex, obs.StageCFLTopDown, cand)
			return cand
		}
		s.processed[u] = true
	}
	ex.ObserveDomainRep(0, bitsVerts, chainVerts)
	s.emitStageCounts(ex, obs.StageCFLTopDown, cand)

	if !bottomUp {
		return cand
	}
	snap := debugSnapshotCounts(cand) // sqdebug: stage monotonicity baseline

	// Bottom-up refinement: in reverse BFS order, keep v ∈ Φ(u) only if for
	// every neighbor u' processed after u (tree children and forward
	// non-tree edges), N(v) ∩ Φ(u') ≠ ∅. The retention loop is written out
	// (rather than via Retain's callback) to keep the hot path closure-free.
	for i := nq - 1; i >= 0; i-- {
		if opts.stop(s, cand) {
			return cand
		}
		u := order[i]
		after := s.adjacent[:0]
		for _, up := range q.Neighbors(u) {
			if s.pos[up] > i {
				after = append(after, up)
			}
		}
		s.adjacent = after
		if len(after) == 0 {
			continue
		}
		kept := cand.Sets[u][:0]
		for _, v := range cand.Sets[u] {
			ok := true
			for _, up := range after {
				found := false
				for _, w := range g.NeighborsWithLabel(v, q.Label(up)) {
					if cand.Contains(up, w) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, v)
			} else {
				cand.clearMember(u, v)
			}
		}
		cand.Sets[u] = kept
		if cand.Count(u) == 0 {
			s.emitStageCounts(ex, obs.StageCFLBottomUp, cand)
			return cand
		}
	}
	s.emitStageCounts(ex, obs.StageCFLBottomUp, cand)
	debugCheckMonotone("CFL bottom-up", snap, cand)
	return cand
}

// cflRoot selects the BFS root as the query vertex minimizing the ratio of
// label-and-degree-qualified data vertices to its degree, CFL's root
// selection rule. Vertices of one (label, degree) class score the same, so
// each class of q's plan is scored once — s.classCount keeps the qualified
// counts and s.classMask the qualified vertices as a word (the word
// kernels' label-and-degree mask; zero past 64 data vertices). Up to 64
// data vertices a class is one Graph.ClassWord and a popcount; past that,
// a scan of the label's vertices counts it. Classes are in order of their
// lowest member, so a tie stays with the lowest vertex id, as in a scan
// over the vertices in id order.
func cflRoot(q, g *graph.Graph, s *Scratch) graph.VertexID {
	classes := s.planFor(q).classes
	s.classCount = scratch.Grow(s.classCount, len(classes))
	s.classMask = scratch.Grow(s.classMask, len(classes))
	words := g.NeighborWords() != nil
	best := graph.VertexID(0)
	bestScore := -1.0
	for ci, c := range classes {
		cnt, mask := 0, uint64(0)
		if words {
			mask = g.ClassWord(c.label, c.degree)
			cnt = bits.OnesCount64(mask)
		} else {
			for _, vv := range g.LabeledVertices(c.label) {
				if g.Degree(vv) >= c.degree {
					cnt++
				}
			}
		}
		s.classCount[ci] = cnt
		s.classMask[ci] = mask
		score := float64(cnt) / float64(max(c.degree, 1))
		if bestScore < 0 || score < bestScore {
			bestScore = score
			best = c.rep
		}
	}
	return best
}

// CFLOrder computes the path-based matching order over the BFS tree rooted
// the same way the filter builds it: decompose q_t into root-to-leaf paths,
// estimate each path's embedding count through the candidate sets, and
// concatenate paths in ascending estimated cost with 2-core paths first.
func CFLOrder(q, g *graph.Graph, cand *Candidates) []graph.VertexID {
	return CFLOrderScratch(q, g, cand, nil)
}

// CFLOrderScratch is CFLOrder running on an arena: the returned order is
// owned by s and valid until its next ordering call. A nil s allocates a
// private arena (identical to CFLOrder).
func CFLOrderScratch(q, g *graph.Graph, cand *Candidates, s *Scratch) []graph.VertexID {
	fault.Inject(fault.PointOrder)
	n := q.NumVertices()
	if n == 0 {
		return nil
	}
	if s == nil {
		s = NewScratch()
	}
	s.core, s.coreDeg = scratch.Grow(s.core, n), scratch.Grow(s.coreDeg, n)
	s.coreQueue = scratch.Grow(s.coreQueue, n)
	core := q.TwoCoreInto(s.core, s.coreDeg, s.coreQueue[:0])
	paths := s.treePaths(q, cflRoot(q, g, s))
	for i := range paths {
		p := s.pathVerts[paths[i].lo:paths[i].hi]
		paths[i].cost = pathEmbeddingEstimate(g, q, cand, p, s)
		paths[i].inCore = pathInCore(core, p)
	}
	slices.SortStableFunc(paths, func(a, b cflPath) int {
		if a.inCore != b.inCore {
			if a.inCore {
				return -1 // core paths first
			}
			return 1
		}
		return cmp.Compare(a.cost, b.cost)
	})

	order := s.orderBuf[:0]
	in := growBools(&s.orderIn, n)
	for _, p := range paths {
		for _, u := range s.pathVerts[p.lo:p.hi] {
			if !in[u] {
				in[u] = true
				order = append(order, u)
			}
		}
	}
	s.orderBuf = order
	return order
}

// cflPath is one root-to-leaf path of CFL's BFS tree, s.pathVerts[lo:hi],
// with its rank: estimated embedding count and whether it lies in the
// 2-core.
type cflPath struct {
	lo, hi int32
	cost   float64
	inCore bool
}

// treePaths returns the root-to-leaf paths of q's BFS tree rooted at root,
// leaves in depth-first order and children in discovery order — the paths
// a recursive walk over graph.NewBFSTree's Children finds — on the arena.
// A vertex's children are the vertices it discovers, which the BFS queue
// receives consecutively: first[i] is where the children of order[i]
// start, so they are order[first[i]:first[i+1]].
func (s *Scratch) treePaths(q *graph.Graph, root graph.VertexID) []cflPath {
	seen := growBools(&s.orderIn, q.NumVertices())
	order := append(s.treeOrder[:0], root)
	seen[root] = true
	first := s.treeFirst[:0]
	for i := 0; i < len(order); i++ {
		first = append(first, int32(len(order)))
		for _, w := range q.Neighbors(order[i]) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	first = append(first, int32(len(order)))

	// Depth-first over BFS positions; prefix is the path to the popped one.
	stack := append(s.treeStack[:0], treeFrame{})
	prefix := s.treePrefix[:0]
	verts, paths := s.pathVerts[:0], s.paths[:0]
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		prefix = append(prefix[:f.depth], order[f.pos])
		lo, hi := first[f.pos], first[f.pos+1]
		if lo == hi {
			paths = append(paths, cflPath{lo: int32(len(verts)), hi: int32(len(verts) + len(prefix))})
			verts = append(verts, prefix...)
			continue
		}
		for c := hi - 1; c >= lo; c-- { // first child on top
			stack = append(stack, treeFrame{pos: c, depth: f.depth + 1})
		}
	}
	s.treeOrder, s.treeFirst, s.treeStack, s.treePrefix = order, first, stack, prefix
	s.pathVerts, s.paths = verts, paths
	return paths
}

// treeFrame is one pending vertex of treePaths' walk: its BFS position and
// its depth in the tree.
type treeFrame struct{ pos, depth int32 }

// pathInCore reports whether every non-root vertex of the path lies in the
// query's 2-core.
func pathInCore(core []bool, path []graph.VertexID) bool {
	for _, u := range path[1:] {
		if !core[u] {
			return false
		}
	}
	return len(path) > 1
}

// pathEmbeddingEstimate counts, by dynamic programming over the candidate
// sets, the number of homomorphic embeddings of the tree path — CFL's
// cardinality estimate for ranking paths. The per-step weight vectors over
// V(G) ping-pong between two arena buffers that are kept all-zero between
// uses: only the entries actually touched (tracked in the touch lists) are
// cleared, so a step costs O(reached vertices), not O(|V(G)|).
func pathEmbeddingEstimate(g, q *graph.Graph, cand *Candidates, path []graph.VertexID, s *Scratch) float64 {
	n := g.NumVertices()
	wCur, wNext := growZeroFloats(&s.wA, n), growZeroFloats(&s.wB, n)
	tCur, tNext := s.touchA[:0], s.touchB[:0]
	for _, v := range cand.Sets[path[0]] {
		wCur[v] = 1
		tCur = append(tCur, v)
	}
	for i := 1; i < len(path) && len(tCur) > 0; i++ {
		u := path[i]
		lab := q.Label(u)
		tNext = tNext[:0]
		for _, vp := range tCur {
			c := wCur[vp]
			for _, w := range g.NeighborsWithLabel(vp, lab) {
				if cand.Contains(u, w) {
					if wNext[w] == 0 {
						tNext = append(tNext, w)
					}
					wNext[w] += c
				}
			}
		}
		for _, v := range tCur {
			wCur[v] = 0 // restore the all-zero invariant before reuse
		}
		wCur, wNext = wNext, wCur
		tCur, tNext = tNext, tCur
	}
	total := 0.0
	for _, v := range tCur {
		total += wCur[v]
		wCur[v] = 0
	}
	s.wA, s.wB = wCur, wNext
	s.touchA, s.touchB = tCur, tNext
	return total
}
