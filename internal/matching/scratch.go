package matching

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/scratch"
)

// Scratch is the per-worker arena for the filtering-verification hot path.
// Algorithm 2 runs its loop body once per data graph per query; everything
// that body needs — the candidate structure, CFL's top-down/bottom-up
// buffers, GraphQL's bipartite rows, the ordering and enumeration state —
// lives here and is reused across graphs, so steady-state filtering
// performs zero heap allocations per graph (asserted by
// testing.AllocsPerRun in the tests).
//
// Ownership rules (see DESIGN.md, "Scratch arenas"):
//
//   - A Scratch belongs to exactly one goroutine at a time. Engines
//     acquire one per Query call (sequential) or one per worker
//     (parallel pools), never per graph.
//   - A *Candidates returned by a filter running on a Scratch is owned by
//     that Scratch and valid only until the next filter call on it. The
//     caller must finish ordering and enumeration for the current data
//     graph before filtering the next.
//   - Orders returned by the scratch-aware ordering functions are
//     likewise valid until the next ordering call on the same Scratch.
//
// The zero value is ready to use; the pool exists only to recycle warmed
// arenas across queries.
type Scratch struct {
	cand Candidates // the reusable Φ structure filters hand out

	// CFL filter state. epoch is monotonic across the Scratch's lifetime:
	// stale lastEpoch stamps from earlier graphs are always smaller than
	// any epoch the current pass issues, so neither array is ever zeroed.
	epoch     int64
	lastEpoch []int64
	chain     []int32
	processed []bool
	marked    []graph.VertexID
	adjacent  []graph.VertexID // before/after-neighbor collection
	pos       []int
	bfsDepth  []int32
	bfsOrder  []graph.VertexID

	// What the filters need of the query alone (see queryPlan), and the
	// per-graph class counts cflRoot fills from it.
	plan       queryPlan
	classCount []int
	classMask  []uint64

	// Word kernels: Φ(u) per query vertex, conflict set per depth.
	phi, confWords []uint64

	// Explain's per-graph views, which it sums or copies and never keeps.
	counts []int
	steps  []obs.OrderStep

	// boundaries counts FilterOptions.stop calls over the Scratch's
	// lifetime; every deadlineStride-th one reads the clock.
	boundaries uint

	// GraphQL refinement: the reusable bipartite matcher and its
	// per-query-neighbor adjacency rows.
	bm      bipartiteMatcher
	adjRows scratch.Rows[int32]

	// CFL path-cost estimation: ping-pong weight buffers over V(G) (kept
	// all-zero between uses, see pathEmbeddingEstimate) and the
	// touched-vertex lists that restore them.
	wA, wB []float64
	touchA []graph.VertexID
	touchB []graph.VertexID

	// Ordering state shared by GraphQLOrderScratch and CFLOrderScratch.
	orderBuf []graph.VertexID
	orderIn  []bool
	frontier []bool

	// CFL top-down bit-path state: the accumulator and per-neighbor
	// scatter rows of the word-wide generation kernel (used when
	// domain.UseBitsGenerate selects the dense representation).
	accBits  scratch.Bits
	markBits scratch.Bits

	// Enumeration state. conf holds the per-depth conflict sets of the
	// jump-redo backtracking (bit rows over order positions); ownerPos
	// maps a used data vertex to the order position whose image it is
	// (valid only while the used bit is set, so it is never cleared).
	mapping  []graph.VertexID
	seen     []bool
	used     scratch.Bits
	ownerPos []int32
	conf     []scratch.Bits
	backward scratch.Rows[graph.VertexID]
	isect    scratch.Rows[graph.VertexID]
}

// growBools sizes *buf to n and clears it; for the visited/membership
// masks whose algorithms expect all-false on entry.
func growBools(buf *[]bool, n int) []bool {
	*buf = scratch.Grow(*buf, n)
	clear(*buf)
	return *buf
}

// growZeroFloats sizes *buf to n relying on the all-zero invariant its
// users maintain: fresh storage is zeroed by make, and every user restores
// the zeros for the entries it touched before returning, so no O(n) clear
// is ever needed.
func growZeroFloats(buf *[]float64, n int) []float64 {
	*buf = scratch.Grow(*buf, n)
	return *buf
}

// NewScratch returns an empty arena. Buffers grow on first use and are
// retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// scratchLive counts arenas acquired but not yet released. The leak
// checks in the chaos and panic-recovery tests assert it returns to its
// pre-test value — a scratch stranded by a panic path would show here.
var scratchLive atomic.Int64

// ScratchLive reports how many pooled arenas are currently checked out.
func ScratchLive() int64 { return scratchLive.Load() }

// AcquireScratch takes a warmed arena from the process-wide pool. Pair
// with ReleaseScratch once no Candidates or order obtained from it is
// still in use.
func AcquireScratch() *Scratch {
	scratchLive.Add(1)
	return scratchPool.Get().(*Scratch)
}

// ReleaseScratch returns s to the pool. The caller must not retain any
// pointer obtained from s (its Candidates, orders, profiles).
func ReleaseScratch(s *Scratch) {
	scratchLive.Add(-1)
	scratchPool.Put(s)
}

// candidates resets and returns the arena's candidate structure, shaped
// for nq query vertices over nd data vertices.
func (s *Scratch) candidates(nq, nd int) *Candidates {
	s.cand.reset(nq, nd)
	return &s.cand
}

// ObserveOrder records a matching order with per-vertex selectivity into
// the Explain report, through an arena buffer (no-op with a nil Explain).
func (s *Scratch) ObserveOrder(ex *obs.Explain, order []graph.VertexID, cand *Candidates) {
	if ex == nil {
		return
	}
	s.steps = s.steps[:0]
	for _, u := range order {
		s.steps = append(s.steps, obs.OrderStep{Vertex: int(u), Candidates: cand.Count(u)})
	}
	ex.ObserveOrder(s.steps)
}

// ensureCFL sizes the CFL filter buffers for a query with nq vertices
// against a data graph with nd vertices. Only capacity growth allocates.
func (s *Scratch) ensureCFL(nq, nd int) {
	s.lastEpoch = scratch.Grow(s.lastEpoch, nd)
	s.chain = scratch.Grow(s.chain, nd)
	s.processed = scratch.Grow(s.processed, nq)
	clear(s.processed)
	s.pos = scratch.Grow(s.pos, nq)
	s.phi = scratch.Grow(s.phi, nq)
	s.bfsDepth = scratch.Grow(s.bfsDepth, nq)
	s.bfsOrder = s.bfsOrder[:0]
	s.marked = s.marked[:0]
	s.adjacent = s.adjacent[:0]
}

// queryPlan is the part of a filter pass that depends only on the query
// graph: compiled once per (Scratch, query) pair and read by every data
// graph's pass. It lives on the Scratch rather than beside the query
// because a Scratch already belongs to one goroutine and outlives the
// query, so a change of query (one per entry the result cache probes)
// reuses the same storage and allocates nothing.
type queryPlan struct {
	q *graph.Graph // the query the plan was compiled for

	// profs are the neighborhood-label-frequency profiles of q's vertices.
	profs []graph.NLF
	arena graph.NLFArena

	// demands is the label-pair prefilter's question: for every ordered
	// label pair (l1, l2) around some query edge, the largest number of
	// l2-labeled neighbors any l1-labeled query vertex has, ascending by
	// packed key. Any embedding exhibits a data vertex meeting each
	// demand, so a graph that fails one (Graph.MeetsPairDemands) cannot
	// contain q and is rejected before any per-vertex work.
	demands []graph.PairDemand

	// classes are the distinct (label, degree) pairs among q's vertices.
	// CFL's root rule scores a query vertex by those two alone, so cflRoot
	// scans the data graph once per class, not once per vertex. They are in
	// order of first appearance over the vertex ids; classOf[u] indexes
	// them.
	classes []rootClass
	classOf []int32

	// none is what a filter returns for a graph the prefilter rejects: one
	// empty set per query vertex, shaped once here so that a rejected graph
	// costs no O(|V(q)|) reset.
	none Candidates
}

// rootClass is one (label, degree) class of query vertices; rep is its
// lowest-id member, the vertex the per-vertex rule would have picked.
type rootClass struct {
	label  graph.Label
	degree int
	rep    graph.VertexID
}

// planFor returns the plan of q, compiling it on the first call for this
// query and reusing it for every subsequent data graph.
func (s *Scratch) planFor(q *graph.Graph) *queryPlan {
	p := &s.plan
	if p.q != q {
		p.compile(q)
	}
	return p
}

func (p *queryPlan) compile(q *graph.Graph) {
	p.q = q
	p.profs = p.arena.Of(q)
	nq := q.NumVertices()
	p.demands = p.demands[:0]
	p.classes = p.classes[:0]
	p.classOf = scratch.Grow(p.classOf, nq)
	for u, prof := range p.profs {
		uu := graph.VertexID(u)
		l1, deg := q.Label(uu), q.Degree(uu)
		prof.ForEach(func(l graph.Label, c int) bool {
			p.demands = append(p.demands, graph.PairDemand{Key: graph.PairKey(l1, l), Count: uint32(c)})
			return true
		})
		ci := slices.IndexFunc(p.classes, func(c rootClass) bool { return c.label == l1 && c.degree == deg })
		if ci < 0 {
			ci = len(p.classes)
			p.classes = append(p.classes, rootClass{label: l1, degree: deg, rep: uu})
		}
		p.classOf[u] = int32(ci)
	}
	// One demand per key, the largest: sort it to the front of its key's
	// run and drop the rest. Both calls work in place; sort.Slice would box
	// the slice and allocate on every change of query.
	slices.SortFunc(p.demands, func(a, b graph.PairDemand) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(b.Count, a.Count))
	})
	p.demands = slices.CompactFunc(p.demands, func(a, b graph.PairDemand) bool { return a.Key == b.Key })
	p.none.reset(nq, 0)
}

// rejected returns the plan's all-empty candidate structure, the answer
// for a data graph that fails the prefilter. The flags are cleared in case
// a caller marked the previous one.
func (p *queryPlan) rejected() *Candidates {
	p.none.Aborted, p.none.BudgetExceeded = false, false
	return &p.none
}

// bfsOrderInto computes the BFS visit order of q from root into the
// arena's bfsOrder buffer and fills pos with each vertex's position in
// it. This is the only part of graph.BFSTree the CFL filter needs, without
// the tree's per-call allocations.
func (s *Scratch) bfsOrderInto(q *graph.Graph, root graph.VertexID) []graph.VertexID {
	n := q.NumVertices()
	for i := 0; i < n; i++ {
		s.bfsDepth[i] = -1
	}
	order := s.bfsOrder[:0]
	order = append(order, root)
	s.bfsDepth[root] = 0
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, w := range q.Neighbors(v) {
			if s.bfsDepth[w] == -1 {
				s.bfsDepth[w] = s.bfsDepth[v] + 1
				order = append(order, w)
			}
		}
	}
	s.bfsOrder = order
	for i, u := range order {
		s.pos[u] = i
	}
	return order
}
