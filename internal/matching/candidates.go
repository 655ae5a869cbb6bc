package matching

import (
	"math/bits"
	"unsafe"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/graph"
)

// Element sizes for the memory-footprint accounting, derived from the
// actual types rather than hardcoded so the paper's footprint tables stay
// honest if a representation changes.
const vertexIDBytes = int64(unsafe.Sizeof(graph.VertexID(0)))

// Candidates is the candidate vertex set structure Φ of Definition III.1:
// Sets[u] lists the data vertices that may be matched to query vertex u. A
// filter is correct when its output is *complete*: every data vertex that
// participates in some subgraph isomorphism appears in the respective set.
//
// The filters in this package keep every set ascending by vertex id —
// the invariant the enumeration's sorted-intersection kernel relies on.
// Callers constructing Candidates by hand (tests, external orderings)
// should Add in ascending order or call SortCandidates before Enumerate.
//
// Storage is arena-style: a Candidates owned by a Scratch is reset — not
// re-allocated — between data graphs. Membership lives in a bit-matrix of
// compatibility domains (domain.Matrix, one epoch-stamped row per query
// vertex — O(1) clear) and the per-vertex sets retain their backing
// capacity, so steady-state filtering performs no heap allocation per
// graph. The two representations mirror each other exactly: Sets[u] is
// the sorted-slice view, Domain().Row(u) the packed view, and the
// enumeration picks whichever is cheaper per intersection.
type Candidates struct {
	Sets [][]graph.VertexID

	// Aborted reports that the filtering pass hit its FilterOptions
	// deadline (or cancellation, or memory budget) before completing. The
	// sets are then incomplete and prove nothing: a caller must treat the
	// data graph as timed out rather than pruned (AnyEmpty on an aborted
	// filter is not a filtering condition).
	Aborted bool

	// BudgetExceeded refines Aborted: the pass stopped because the
	// structure outgrew FilterOptions.MemoryBudget, not because time ran
	// out. Callers skip the data graph with a budget error and keep the
	// query going, instead of reporting a timeout.
	BudgetExceeded bool

	// dom is the bit-matrix mirror of Sets: row u holds the same members
	// as Sets[u], used for O(1) membership tests during refinement and as
	// the probe side of the enumeration's representation switch.
	dom domain.Matrix
}

// NewCandidates returns an empty candidate structure for a query with
// numQuery vertices against a data graph with numData vertices.
func NewCandidates(numQuery, numData int) *Candidates {
	c := &Candidates{}
	c.reset(numQuery, numData)
	return c
}

// reset clears c and shapes it for a numQuery-vertex query against a
// numData-vertex data graph, reusing all retained capacity: set backing
// arrays keep their storage and the membership bitsets clear by epoch
// bump. This is the per-data-graph entry point of the scratch arena.
func (c *Candidates) reset(numQuery, numData int) {
	c.Aborted = false
	c.BudgetExceeded = false
	c.dom.Reset(numQuery, numData)
	if cap(c.Sets) < numQuery {
		grownSets := make([][]graph.VertexID, numQuery)
		copy(grownSets, c.Sets[:cap(c.Sets)])
		c.Sets = grownSets
	} else {
		c.Sets = c.Sets[:numQuery]
	}
	for i := range c.Sets {
		c.Sets[i] = c.Sets[i][:0]
	}
}

// Domain returns the bit-matrix view of Φ: row u mirrors Sets[u]. Callers
// that mutate rows through it must keep Sets in sync (the filters and the
// enumeration do; sqdebug builds assert the mirror).
func (c *Candidates) Domain() *domain.Matrix { return &c.dom }

// Add inserts data vertex v into Φ(u) if not already present.
func (c *Candidates) Add(u graph.VertexID, v graph.VertexID) {
	if c.dom.Add(int(u), uint32(v)) {
		c.Sets[u] = append(c.Sets[u], v)
	}
}

// listSets fills the still empty Sets from the domain rows, for a structure
// over at most 64 data vertices: ascending by construction.
func (c *Candidates) listSets() {
	for u := range c.Sets {
		set := c.Sets[u]
		for x := c.dom.Row(u).Word(0); x != 0; x &= x - 1 {
			set = append(set, graph.VertexID(bits.TrailingZeros64(x)))
		}
		c.Sets[u] = set
	}
}

// Contains reports whether v ∈ Φ(u).
func (c *Candidates) Contains(u, v graph.VertexID) bool {
	return c.dom.Contains(int(u), uint32(v))
}

// Count returns |Φ(u)|.
func (c *Candidates) Count(u graph.VertexID) int { return len(c.Sets[u]) }

// AnyEmpty reports whether some query vertex has an empty candidate set; by
// Proposition III.1 the data graph then cannot contain the query, which is
// the filtering condition of the vcFV framework (Algorithm 2, line 5).
func (c *Candidates) AnyEmpty() bool {
	for _, s := range c.Sets {
		if len(s) == 0 {
			return true
		}
	}
	return false
}

// Retain keeps in Φ(u) only the vertices for which keep returns true.
func (c *Candidates) Retain(u graph.VertexID, keep func(v graph.VertexID) bool) {
	s := c.Sets[u][:0]
	for _, v := range c.Sets[u] {
		if keep(v) {
			s = append(s, v)
		} else {
			c.dom.Remove(int(u), uint32(v))
		}
	}
	c.Sets[u] = s
}

// clearMember drops v's membership bit for u. The closure-free retention
// loops on the filter hot paths rebuild Sets[u] in place and call this for
// each dropped vertex, exactly what Retain does without the callback.
func (c *Candidates) clearMember(u, v graph.VertexID) {
	c.dom.Remove(int(u), uint32(v))
}

// TotalSize returns the sum of candidate set sizes — the live candidate
// count whose byte cost the paper reports as the memory footprint of vcFV
// algorithms. Arena-retained capacity beyond the live sets is excluded;
// see ReservedBytes.
func (c *Candidates) TotalSize() int {
	total := 0
	for _, s := range c.Sets {
		total += len(s)
	}
	return total
}

// MemoryFootprint returns the live byte size of the candidate vertex sets
// plus their membership bitsets — the auxiliary data structure cost of a
// vcFV algorithm on one data graph (space complexity O(|V(q)|·|V(G)|) for
// the bitsets and O(|V(q)|·|E(G)|) worst case for the sets). For an
// arena-backed Candidates this is what the structure logically holds for
// the current data graph, not what the arena has reserved; ReservedBytes
// reports the latter.
func (c *Candidates) MemoryFootprint() int64 {
	// By the rows' cardinalities: they mirror the sets, and exist while a
	// word-path filter has yet to list them.
	var b int64
	for u := range c.Sets {
		b += int64(c.dom.Count(u)) * vertexIDBytes
	}
	return b + c.dom.LiveBytes()
}

// ReservedBytes returns the bytes pinned by the backing arrays regardless
// of the current data graph — the arena's actual resident cost, which
// after warm-up is sized by the largest graph seen. Always ≥
// MemoryFootprint.
func (c *Candidates) ReservedBytes() int64 {
	var b int64
	sets := c.Sets[:cap(c.Sets)]
	for _, s := range sets {
		b += int64(cap(s)) * vertexIDBytes
	}
	return b + c.dom.ReservedBytes()
}
