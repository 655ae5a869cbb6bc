package matching

import (
	"fmt"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/scratch"
)

// Enumerate performs the backtracking search common to the
// preprocessing-enumeration algorithms: it extends partial embeddings along
// the given matching order, drawing candidates of the next query vertex u
// from Φ(u) intersected with the data neighborhood of an already-matched
// neighbor of u, and checking every edge back to matched query vertices.
//
// The candidate sets must be ascending by vertex id (the invariant every
// filter in this package maintains; call SortCandidates on hand-built
// sets). The Φ(u) ∩ N(pivot) step switches representation per node: when
// the candidate set is large relative to the pivot's label-restricted
// neighborhood it probes the domain bit row per neighbor (O(|nbrs|),
// independent of |Φ(u)|); otherwise it merges the two sorted lists
// through the shared intersection kernel. Either way candidates are
// visited in ascending id order at every depth.
//
// Dead ends backtrack by conflict-directed backjumping ("jump-redo"):
// each depth accumulates the set of earlier order positions that caused
// its candidates to fail (the pivot, used-vertex owners, failed
// edge-check endpoints), and when a subtree exhausts without finding any
// embedding the search jumps directly to the most recent conflicting
// position instead of retrying irrelevant siblings in between. Subtrees
// that did produce embeddings backtrack chronologically, which keeps the
// enumeration exhaustive. Result.Jumps counts backjumps that skipped at
// least one position; Result.Redos counts all dead-end backtracks.
//
// Once a search has spent lookAheadAfter steps it also looks ahead
// (forward checking): a candidate v of u that leaves some later query
// neighbour of u — two or more positions on — without a free candidate
// adjacent to v and to the images of that neighbour's earlier neighbours is
// skipped without a step, and blames those images' positions and the
// owners of the used vertices in the way (deadAhead). Result.Pruned counts
// the skipped candidates.
//
// The order must be a connected permutation of q's vertices: each vertex
// after the first needs at least one earlier neighbor in q (both GraphQL's
// join-based order and CFL's path-based order guarantee this). Enumerate
// returns an error for an order that repeats a vertex, names one outside q
// or is disconnected, rather than silently leaving a vertex unmapped or
// enumerating a cartesian product.
//
// With a non-nil opts.Scratch all search state (mapping, used-set,
// backward-neighbor, conflict-set and intersection buffers) comes from the
// arena and the call allocates nothing in steady state.
func Enumerate(q, g *graph.Graph, cand *Candidates, order []graph.VertexID, opts Options) (Result, error) {
	fault.Inject(fault.PointEnumerate)
	n := q.NumVertices()
	if len(order) != n {
		return Result{}, fmt.Errorf("matching: order covers %d of %d query vertices", len(order), n)
	}
	debugCheckSortedSets("Enumerate", cand) // sqdebug: kernel input invariant
	s := opts.Scratch
	if s == nil {
		s = NewScratch()
	}
	s.mapping = scratch.Grow(s.mapping, n)
	s.ownerPos = scratch.Grow(s.ownerPos, g.NumVertices())
	e := enumerator{
		q:        q,
		g:        g,
		cand:     cand,
		order:    order,
		opts:     opts,
		budget:   newBudget(&opts),
		s:        s,
		mapping:  s.mapping,
		ownerPos: s.ownerPos,
		backward: s.backward.Take(n),
	}
	words := domain.UseWords(n, g.NumVertices())
	if words {
		// One word per set: Φ(u) off the domain rows, which mirror Sets.
		s.phi = scratch.Grow(s.phi, n)
		s.confWords = scratch.Grow(s.confWords, n)
		for u := range s.phi {
			s.phi[u] = cand.dom.Row(u).Word(0)
		}
		e.nbr, e.phi, e.confWords = g.NeighborWords(), s.phi, s.confWords
	} else {
		s.used.Reset(g.NumVertices())
		if cap(s.conf) < n {
			grown := make([]scratch.Bits, n)
			copy(grown, s.conf[:cap(s.conf)])
			s.conf = grown
		} else {
			s.conf = s.conf[:n]
		}
		e.used, e.conf, e.isect = &s.used, s.conf, s.isect.Take(n)
	}

	// Precompute, for each position i > 0, the query neighbors of order[i]
	// that appear earlier in the order ("backward neighbors"), and pick the
	// pivot whose data-side neighborhood will seed the candidates.
	s.pos = scratch.Grow(s.pos, n)
	pos := s.pos
	e.pos = pos
	seen := growBools(&s.seen, n)
	for i, u := range order {
		if int(u) >= n || seen[u] {
			return Result{}, fmt.Errorf("matching: order is not a permutation at position %d (vertex %d)", i, u)
		}
		pos[u] = i
		for _, w := range q.Neighbors(u) {
			if seen[w] {
				e.backward[i] = append(e.backward[i], w)
			}
		}
		if i > 0 && len(e.backward[i]) == 0 {
			return Result{}, fmt.Errorf("matching: order is not connected at position %d (vertex %d)", i, u)
		}
		// Pivot: the earliest-matched backward neighbor. Candidates are then
		// drawn from the data adjacency of its image, restricted by label.
		if len(e.backward[i]) > 0 {
			best := e.backward[i][0]
			for _, w := range e.backward[i][1:] {
				if pos[w] < pos[best] {
					best = w
				}
			}
			// Move pivot to front so the check loop can skip it.
			for j, w := range e.backward[i] {
				if w == best {
					e.backward[i][0], e.backward[i][j] = e.backward[i][j], e.backward[i][0]
					break
				}
			}
		}
		seen[u] = true
	}

	if words {
		e.searchWords(0)
	} else {
		e.search(0)
	}
	return Result{
		Embeddings: e.found, Steps: e.budget.steps, Aborted: e.budget.aborted, Stopped: e.stopped,
		Jumps: e.jumps, Redos: e.redos, Pruned: e.pruned,
		WordIsects: e.wordIsects, ProbeIsects: e.probeIsects, MergeIsects: e.mergeIsects,
	}, nil
}

type enumerator struct {
	q, g     *graph.Graph
	cand     *Candidates
	order    []graph.VertexID
	pos      []int // pos[u] is u's position in the order
	backward [][]graph.VertexID
	isect    [][]graph.VertexID // per-depth Φ(u) ∩ N(pivot) buffers
	conf     []scratch.Bits     // per-depth conflict sets over order positions
	ownerPos []int32            // ownerPos[v]: position whose image is v (valid while used)
	opts     Options            // by value: storing &opts would heap-allocate it per call
	budget   searchBudget

	// searchWords' state, in place of isect, conf and used.
	nbr, phi, confWords []uint64 // g.NeighborWords(), Φ(u), per-depth conflict sets
	usedWord            uint64

	// The look-ahead's forward table, built on first use (see aheadAt).
	s          *Scratch
	ahead      []aheadEntry // position d's are ahead[aheadStart[d]:aheadStart[d+1]]
	aheadStart []int32
	aheadPrev  []graph.VertexID
	built      bool

	mapping     []graph.VertexID
	used        *scratch.Bits
	found       uint64
	jumps       uint64 // backjumps skipping at least one position
	redos       uint64 // dead-end backtracks (conflict-analyzed)
	pruned      uint64 // candidates the look-ahead skipped
	wordIsects  uint64 // intersections on single words
	probeIsects uint64 // intersections via domain-row probing
	mergeIsects uint64 // intersections via sorted merge
	stop        bool
	stopped     bool // an OnEmbedding callback returned false
}

// embedding reports the complete mapping reached at the given depth and
// returns the chronological backtrack target.
func (e *enumerator) embedding(depth int) int {
	debugCheckEmbedding(e.q, e.g, e.mapping) // sqdebug builds only
	e.found++
	if e.opts.OnEmbedding != nil && !e.opts.OnEmbedding(e.mapping) {
		e.stop = true
		e.stopped = true
	}
	if e.opts.Limit != 0 && e.found >= e.opts.Limit {
		e.stop = true
	}
	return depth - 1
}

// search extends the partial embedding at the given depth and returns the
// backjump target: the order position where trying further candidates can
// still change the outcome. A return below depth-1 means every position
// in between is provably irrelevant to the dead end and is unwound
// without retrying siblings. The return value is meaningless once e.stop
// is set. It sets e.stop when the limit is reached, the caller cancels,
// or the budget is exhausted.
func (e *enumerator) search(depth int) int {
	if depth == len(e.order) {
		return e.embedding(depth)
	}
	if e.budget.spend() {
		e.stop = true
		return depth - 1
	}
	u := e.order[depth]
	if depth == 0 {
		// The root has no earlier positions to conflict with: child jumps
		// to position 0 simply continue this loop with the next candidate.
		e.conf[0].Reset(len(e.order)) // look-ahead blame at the root goes nowhere
		ahead := e.aheadAt(0)
		for _, v := range e.cand.Sets[u] {
			if ahead == nil {
				ahead = e.aheadAt(0) // the trigger can fire within a node
			}
			if len(ahead) > 0 && e.deadAhead(0, v, ahead) {
				continue
			}
			e.mapping[u] = v
			e.used.Set(uint32(v))
			e.ownerPos[v] = 0
			e.search(1)
			e.used.Clear(uint32(v))
			if e.stop {
				return -1
			}
		}
		return -1
	}
	foundBefore := e.found
	conf := &e.conf[depth]
	conf.Reset(len(e.order))
	bw := e.backward[depth]
	pivot := bw[0]
	conf.Set(uint32(e.pos[pivot])) // the candidate pool depends on the pivot
	pivotImage := e.mapping[pivot]
	nbrs := e.g.NeighborsWithLabel(pivotImage, e.q.Label(u))
	// Φ(u) ∩ N_label(pivotImage): probe the domain bit row when Φ(u) is
	// large relative to the neighbor list, else merge the sorted slices.
	// Both inputs are ascending, so either path emits ascending output
	// into this depth's arena row, stable across the deeper recursion.
	var buf []graph.VertexID
	if domain.UseProbe(e.cand.Count(u), len(nbrs)) {
		e.probeIsects++
		row := e.cand.Domain().Row(int(u))
		buf = e.isect[depth][:0]
		for _, v := range nbrs {
			if row.Get(uint32(v)) {
				buf = append(buf, v)
			}
		}
	} else {
		e.mergeIsects++
		buf = graph.IntersectSorted(e.isect[depth][:0], e.cand.Sets[u], nbrs)
	}
	e.isect[depth] = buf
	ahead := e.aheadAt(depth)
	for _, v := range buf {
		if e.used.Get(uint32(v)) {
			conf.Set(uint32(e.ownerPos[v]))
			continue
		}
		ok := true
		for _, w := range bw[1:] {
			if !e.g.HasEdge(e.mapping[w], v) {
				conf.Set(uint32(e.pos[w]))
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if ahead == nil {
			ahead = e.aheadAt(depth)
		}
		if len(ahead) > 0 && e.deadAhead(depth, v, ahead) {
			continue
		}
		e.mapping[u] = v
		e.used.Set(uint32(v))
		e.ownerPos[v] = int32(depth)
		back := e.search(depth + 1)
		e.used.Clear(uint32(v))
		if e.stop {
			return depth - 1
		}
		if back < depth {
			// The child's dead end did not involve this position: siblings
			// here cannot fix it, so pass the jump through.
			return back
		}
	}
	if e.found > foundBefore {
		// The subtree produced embeddings; conflict analysis only covers
		// failures, so backtrack chronologically to stay exhaustive.
		return depth - 1
	}
	// Dead end across every candidate: jump to the most recent position
	// that contributed to a failure, bequeathing the rest of the blame set.
	e.redos++
	j, ok := conf.MaxSet()
	if !ok {
		return depth - 1 // unreachable: the pivot position is always present
	}
	target := int(j)
	if target > 0 {
		parent := &e.conf[target]
		parent.Or(conf)
		parent.Clear(j) // a position is not its own conflict
	}
	if target < depth-1 {
		e.jumps++
	}
	return target
}

// lookAheadAfter is the step count from which a search looks ahead; before
// it no forward table is built and no candidate is checked. Most of the
// ~500 searches of an AIDS query end within a few dozen steps, and the
// table and the scans cost them more than they prune. Swept in process
// (CFQL over the benchmark's inputs, thread CPU time, the fastest of three
// runs per query, every value in turn per query; 2 vCPUs), against no
// look-ahead: syn-enum 3.07 ms/query over 27.2 M steps → 2.63 at 0 (13.4 M
// steps), 2.59 at 16, 2.72 at 64 (14.1 M), 2.65 at 256, 2.69 at 1 024, 2.81
// at 4 096; AIDS 2.02 → 2.09 at 0 and level from 16; PDBS-like 0.0167 →
// 0.0181 at 0 and level from 16; PPI- and PCM-like level within noise.
// AIDS's Enumerate calls alone (the fastest of five each): 388 ns/call
// never, 572 at 0, 407 at 16, 394 at 64, 391 at 256.
const lookAheadAfter = 64

// aheadEntry is one row of the look-ahead's forward table: u is a later
// query neighbour of the vertex at some position d, aheadPrev[lo:hi] are
// u's neighbours placed before d, and blame holds their positions as a word
// (the word path's form; meaningless past 64 positions).
type aheadEntry struct {
	u      graph.VertexID
	lo, hi int32
	blame  uint64
}

// aheadAt returns the forward entries of position d once the search has
// spent lookAheadAfter steps, building the forward table the first time,
// and nil before: a search that never looks ahead never pays for it.
func (e *enumerator) aheadAt(d int) []aheadEntry {
	if e.budget.steps < lookAheadAfter {
		return nil
	}
	if !e.built {
		e.buildAhead()
	}
	return e.ahead[e.aheadStart[d]:e.aheadStart[d+1]]
}

// buildAhead fills the Scratch's forward table for e's order: for each
// position d, one entry per neighbour of order[d] placed at d+2 or later,
// in q's adjacency order.
func (e *enumerator) buildAhead() {
	s, n := e.s, len(e.order)
	s.aheadStart = scratch.Grow(s.aheadStart, n+1)
	s.ahead, s.aheadPrev = s.ahead[:0], s.aheadPrev[:0]
	for d, u := range e.order {
		s.aheadStart[d] = int32(len(s.ahead))
		for _, later := range e.q.Neighbors(u) {
			if e.pos[later] <= d+1 {
				continue // the next position checks itself (see deadAhead)
			}
			a := aheadEntry{u: later, lo: int32(len(s.aheadPrev))}
			for _, w := range e.q.Neighbors(later) {
				if e.pos[w] < d {
					s.aheadPrev = append(s.aheadPrev, w)
					a.blame |= bit(e.pos[w])
				}
			}
			a.hi = int32(len(s.aheadPrev))
			s.ahead = append(s.ahead, a)
		}
	}
	s.aheadStart[n] = int32(len(s.ahead))
	e.ahead, e.aheadStart, e.aheadPrev, e.built = s.ahead, s.aheadStart, s.aheadPrev, true
}

// deadAhead is the forward check of candidate v at depth: it reports
// whether mapping v there leaves some later
// neighbour u of order[depth] without a free candidate — a member of Φ(u) ∩
// N(v) ∩ N(M(w)) for each of u's neighbours w placed before depth, not yet
// used. For the first such u it blames, in the depth's conflict set, the
// positions of those w and the owners of the used vertices the pool held:
// the only earlier choices the verdict depends on. A neighbour at the next
// position has no entry: the child's own pool is that very set, so checking
// it here would pay the child's scan twice for every live candidate to save
// one step per dead one.
func (e *enumerator) deadAhead(depth int, v graph.VertexID, ahead []aheadEntry) bool {
	for _, a := range ahead {
		prev := e.aheadPrev[a.lo:a.hi]
		row := e.cand.Domain().Row(int(a.u))
		nbrs := e.g.NeighborsWithLabel(v, e.q.Label(a.u))
		free := false
		for _, x := range nbrs {
			if !e.used.Get(uint32(x)) && e.joins(row, prev, x) {
				free = true
				break
			}
		}
		if free {
			continue
		}
		conf := &e.conf[depth]
		for _, w := range prev {
			conf.Set(uint32(e.pos[w]))
		}
		for _, x := range nbrs {
			if e.joins(row, prev, x) { // and used, as none is free
				conf.Set(uint32(e.ownerPos[x]))
			}
		}
		e.pruned++
		return true
	}
	return false
}

// joins reports whether x is in row and adjacent to the image of every w
// in prev.
func (e *enumerator) joins(row *scratch.Bits, prev []graph.VertexID, x graph.VertexID) bool {
	if !row.Get(uint32(x)) {
		return false
	}
	for _, w := range prev {
		if !e.g.HasEdge(e.mapping[w], x) {
			return false
		}
	}
	return true
}

// VerifyOrder checks that order is a valid connected permutation of the
// query vertices; exposed for tests of the ordering strategies.
func VerifyOrder(q *graph.Graph, order []graph.VertexID) error {
	if len(order) != q.NumVertices() {
		return fmt.Errorf("matching: order has %d vertices, query has %d", len(order), q.NumVertices())
	}
	seen := make([]bool, q.NumVertices())
	for i, u := range order {
		if int(u) >= q.NumVertices() || seen[u] {
			return fmt.Errorf("matching: order is not a permutation at position %d", i)
		}
		if i > 0 {
			connected := false
			for _, w := range q.Neighbors(u) {
				if seen[w] {
					connected = true
					break
				}
			}
			if !connected {
				return fmt.Errorf("matching: vertex %d at position %d has no earlier neighbor", u, i)
			}
		}
		seen[u] = true
	}
	return nil
}
