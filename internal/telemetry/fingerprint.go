// Package telemetry is the workload-level observability layer: where
// internal/obs makes a *single* query observable (counters, Trace,
// Explain), this package makes the *population* of queries observable —
// which shapes dominate the workload, which shapes misbehave, and a
// wide-event stream that keeps every anomalous query without paying to
// keep every fast one.
//
// It provides four pieces, composed by sqserver and the CLIs:
//
//   - Fingerprint: a canonical, label-aware hash of a query graph,
//     invariant under vertex renumbering, computed once per query at the
//     engine entry point and threaded through QueryOptions, Trace, the
//     slow log, wide events and workload profiles — the join key of all
//     workload telemetry.
//   - Event: one bounded wide-event record per query (verdicts, phase
//     times, candidate totals, failure flags), cheap enough to build on
//     every request.
//   - Profile: a fixed-capacity space-saving sketch of per-fingerprint
//     heavy hitters, each slot holding counts, failure tallies and a
//     latency histogram — the data behind /debug/top.
//   - Exporter: a tail-sampled async NDJSON export of wide events (file
//     or HTTP POST) that retains 100% of anomalous queries and a
//     configurable fraction of healthy ones, with a lossy ring for
//     backpressure so export can never stall healthy queries.
//
// The package is standard-library only and its hot paths (Compute, Emit,
// Profile.Record on an existing slot) are allocation-free in steady state.
package telemetry

import (
	"fmt"
	"slices"
	"sync"

	"subgraphquery/internal/graph"
)

// Fingerprint is a canonical 64-bit hash of a query graph's labeled
// structure. Two isomorphic queries — in particular, the same query with
// its vertices renumbered — always produce the same fingerprint, so it is
// the aggregation key for workload profiles, wide events and per-shape
// bench breakdowns. Zero means "not computed".
//
// The hash is a Weisfeiler-Leman style color refinement: every vertex
// starts from its (label, degree) pair — the label-multiset and
// degree-sequence refinement — and each round replaces a vertex's color
// with a hash of its own color and the *sorted* multiset of its
// neighbors' colors. After a fixed number of rounds the fingerprint is a
// hash of the sorted final colors together with |V| and |E|. Sorting at
// every step is what buys renumbering invariance; distinct non-isomorphic
// shapes may still collide (as with any hash), which profiling tolerates.
type Fingerprint uint64

// String renders the fingerprint the way every surface displays it:
// 16 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// MarshalJSON writes the fingerprint as a quoted hex string: JSON numbers
// are float64 in most readers, which silently corrupts 64-bit hashes.
func (f Fingerprint) MarshalJSON() ([]byte, error) {
	return []byte(`"` + f.String() + `"`), nil
}

// UnmarshalJSON accepts the quoted hex form (and, leniently, an unquoted
// decimal from hand-written files).
func (f *Fingerprint) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		v, err := ParseFingerprint(s[1 : len(s)-1])
		*f = v
		return err
	}
	var v uint64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return fmt.Errorf("telemetry: parsing fingerprint %q: %w", s, err)
	}
	*f = Fingerprint(v)
	return nil
}

// ParseFingerprint parses the 16-hex-digit form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return 0, fmt.Errorf("telemetry: parsing fingerprint %q: %w", s, err)
	}
	return Fingerprint(v), nil
}

// fpRounds is the number of refinement rounds. Query graphs are small
// (the paper's sets top out at 32 edges), and three rounds propagate
// 3-hop structure — enough to separate every query-set shape in practice
// while keeping Compute a few microseconds.
const fpRounds = 3

// fpSeed seeds the mixer so a fingerprint is not trivially predictable
// from raw labels.
const fpSeed = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function (public domain, Vigna).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpScratch holds the per-computation color buffers. Pooled so Compute is
// allocation-free in steady state: one Get/Put pair per query, buffers
// grown once and reused.
type fpScratch struct {
	cur, next []uint64 // vertex colors, current and next round
	buf       []uint64 // sorted neighbor colors / sorted final colors
}

var fpPool = sync.Pool{New: func() any { return &fpScratch{} }}

// grow sizes the buffers for an n-vertex graph without shrinking capacity.
func (s *fpScratch) grow(n int) {
	if cap(s.cur) < n {
		s.cur = make([]uint64, n)
		s.next = make([]uint64, n)
		s.buf = make([]uint64, n)
	}
	s.cur = s.cur[:n]
	s.next = s.next[:n]
	s.buf = s.buf[:n]
}

// Compute returns the canonical fingerprint of q. It is safe for
// concurrent use and allocates nothing in steady state (scratch buffers
// are pooled). The result is never zero, so zero can mean "unset" in
// QueryOptions and wide events.
func Compute(q *graph.Graph) Fingerprint {
	n := q.NumVertices()
	if n == 0 {
		return Fingerprint(mix64(fpSeed))
	}
	s := fpPool.Get().(*fpScratch)
	s.grow(n)

	// Round 0: (label, degree) — the degree-sequence + label-multiset base
	// partition.
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		s.cur[v] = mix64(uint64(q.Label(vid))<<24 ^ uint64(q.Degree(vid)) ^ fpSeed)
	}

	// Refinement: color(v) <- h(color(v), sorted colors of N(v)). The sort
	// makes the update independent of neighbor-list order, hence of vertex
	// numbering.
	for round := 0; round < fpRounds; round++ {
		for v := 0; v < n; v++ {
			nbrs := q.Neighbors(graph.VertexID(v))
			buf := s.buf[:0]
			for _, w := range nbrs {
				buf = append(buf, s.cur[w])
			}
			slices.Sort(buf)
			h := mix64(s.cur[v] ^ 0xff51afd7ed558ccd)
			for _, c := range buf {
				h = mix64(h ^ c)
			}
			s.next[v] = h
		}
		s.cur, s.next = s.next, s.cur
	}

	// Fold the sorted final colors with the graph's size signature.
	final := s.buf[:n]
	copy(final, s.cur)
	slices.Sort(final)
	h := mix64(uint64(n)<<32 ^ uint64(q.NumEdges()) ^ fpSeed)
	for _, c := range final {
		h = mix64(h ^ c)
	}
	fpPool.Put(s)
	if h == 0 {
		h = 1 // reserve 0 for "unset"
	}
	return Fingerprint(h)
}
