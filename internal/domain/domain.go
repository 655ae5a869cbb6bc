// Package domain provides the packed bit-matrix representation of
// compatibility domains: one epoch-stamped bit row per query vertex over
// the data-vertex universe, with maintained cardinalities.
//
// The candidate structure Φ of Definition III.1 is logically a
// |V(q)| × |V(G)| boolean matrix. Representing each row as machine words
// turns the two inner loops that dominate subgraph matching — filter
// refinement (intersect a row with a neighborhood) and enumeration
// intersection (intersect a candidate set with a matched vertex's
// adjacency) — into word-wide kernels: one AND covers 64 data vertices.
// Sorted candidate slices stay the better representation when domains are
// sparse, so the matching layer keeps both and switches per operation (see
// UseProbe / UseBitsGenerate, whose thresholds come from the crossover
// benchmarks in this package, not guesses).
//
// A Matrix is arena-style scratch like the rest of the hot path: Reset
// re-shapes it between data graphs by epoch bump, with no per-graph
// allocation or O(|V(G)|) clear in steady state. Not safe for concurrent
// use.
package domain

import (
	"math/bits"

	"subgraphquery/internal/scratch"
)

// Matrix is a bit-matrix of compatibility domains: Row(u) holds the set
// of data vertices v with bit v set iff v ∈ Φ(u). Cardinalities are
// maintained incrementally by Add/Remove; callers that refine a row
// through bulk word operations must resync with RecountRow (the sqdebug
// build asserts the consistency).
type Matrix struct {
	rows   []scratch.Bits
	counts []int32
	nData  int
}

// Reset shapes the matrix for numQuery rows over a numData-vertex
// universe, clearing every row. Steady-state cost is O(numQuery) epoch
// bumps; backing storage is retained across calls.
func (m *Matrix) Reset(numQuery, numData int) {
	m.nData = numData
	if cap(m.rows) < numQuery {
		grownRows := make([]scratch.Bits, numQuery)
		copy(grownRows, m.rows[:cap(m.rows)])
		m.rows = grownRows
	} else {
		m.rows = m.rows[:numQuery]
	}
	m.counts = scratch.Grow(m.counts, numQuery)
	for u := range m.rows {
		m.rows[u].Reset(numData)
		m.counts[u] = 0
	}
}

// NumRows returns the number of query-vertex rows.
func (m *Matrix) NumRows() int { return len(m.rows) }

// NData returns the size of the data-vertex universe.
func (m *Matrix) NData() int { return m.nData }

// Add sets bit v in row u and reports whether it was newly set.
func (m *Matrix) Add(u int, v uint32) bool {
	if m.rows[u].Get(v) {
		return false
	}
	m.rows[u].Set(v)
	m.counts[u]++
	return true
}

// Remove clears bit v in row u and reports whether it was set.
func (m *Matrix) Remove(u int, v uint32) bool {
	if !m.rows[u].Get(v) {
		return false
	}
	m.rows[u].Clear(v)
	m.counts[u]--
	return true
}

// Contains reports whether v ∈ Φ(u).
func (m *Matrix) Contains(u int, v uint32) bool { return m.rows[u].Get(v) }

// Count returns |Φ(u)| without touching the row words.
func (m *Matrix) Count(u int) int { return int(m.counts[u]) }

// Row returns row u for bulk word operations (And/AndNot/IterateSet/...).
// After mutating a row in bulk, call RecountRow(u) to resync the
// maintained cardinality.
func (m *Matrix) Row(u int) *scratch.Bits { return &m.rows[u] }

// SetWord makes row u exactly the set w, cardinality included, over a
// universe of 1 to WordVertices data vertices: the whole row in one store
// where Add takes a call per member. Row(u).Word(0) reads it back.
func (m *Matrix) SetWord(u int, w uint64) {
	m.rows[u].SetWord(0, w)
	m.counts[u] = int32(bits.OnesCount64(w))
}

// RecountRow repopulates the maintained cardinality of row u from its
// words and returns it. Required after bulk mutation through Row.
func (m *Matrix) RecountRow(u int) int {
	n := m.rows[u].Count()
	m.counts[u] = int32(n)
	return n
}

// Density returns |Φ(u)| / |V(G)|, the row's fill fraction — the quantity
// the representation switch and the explain output report.
func (m *Matrix) Density(u int) float64 {
	if m.nData == 0 {
		return 0
	}
	return float64(m.counts[u]) / float64(m.nData)
}

// AnyEmpty reports whether some row is empty (the filtering condition of
// Proposition III.1).
func (m *Matrix) AnyEmpty() bool {
	for u := range m.counts {
		if m.counts[u] == 0 {
			return true
		}
	}
	return false
}

// LiveBytes returns the bytes the matrix logically holds for the current
// shape: row words and epoch stamps plus the cardinality array.
func (m *Matrix) LiveBytes() int64 {
	var b int64
	for u := range m.rows {
		b += m.rows[u].LiveBytes()
	}
	return b + int64(len(m.counts))*4
}

// ReservedBytes returns the bytes pinned by the backing arrays regardless
// of the current shape — the arena's resident cost. Always ≥ LiveBytes.
func (m *Matrix) ReservedBytes() int64 {
	var b int64
	rows := m.rows[:cap(m.rows)]
	for u := range rows {
		b += rows[u].ReservedBytes()
	}
	return b + int64(cap(m.counts))*4
}
