package matching

import (
	"fmt"

	"subgraphquery/internal/graph"
)

// Runtime invariant assertions for the filtering and enumeration layers,
// active only under the sqdebug build tag (see sqdebug_on.go):
//
//   - candidate structures leaving a filter keep their Sets/member bitset
//     mirror exact, hold only label-compatible data vertices, and contain
//     no duplicates;
//   - the bottom-up/refinement stages only ever shrink candidate sets
//     (stage monotonicity);
//   - every reported embedding is injective and edge-preserving.
//
// Violations panic: a broken mirror silently corrupts Contains-based
// pruning, and a non-embedding result would be a wrong answer, not a
// recoverable condition.

// debugCheckCandidates panics if cand violates a structural invariant
// against query q and data graph g. stage names the filter pass for the
// panic message. No-op in normal builds.
func debugCheckCandidates(stage string, q, g *graph.Graph, cand *Candidates) {
	if !debugInvariants {
		return
	}
	if len(cand.Sets) != q.NumVertices() || cand.dom.NumRows() != q.NumVertices() {
		debugFailf("%s: candidate structure shaped for %d/%d vertices, query has %d", stage, len(cand.Sets), cand.dom.NumRows(), q.NumVertices())
	}
	for u, set := range cand.Sets {
		uu := graph.VertexID(u)
		for i, v := range set {
			if int(v) >= g.NumVertices() {
				debugFailf("%s: Φ(%d) contains %d outside the data graph", stage, u, v)
			}
			if !cand.dom.Contains(u, uint32(v)) {
				debugFailf("%s: Φ(%d) lists %d but its member bit is clear", stage, u, v)
			}
			if g.Label(v) != q.Label(uu) {
				debugFailf("%s: Φ(%d) contains %d with label %d, query vertex has label %d", stage, u, v, g.Label(v), q.Label(uu))
			}
			if i > 0 && set[i-1] >= v {
				debugFailf("%s: Φ(%d) not strictly ascending at position %d", stage, u, i)
			}
		}
		// Exact mirror: the bitset population must equal the set length, so
		// combined with the per-element check above there are no duplicates
		// in Sets and no stray bits in member.
		if pop := cand.dom.Row(u).Count(); pop != len(set) {
			debugFailf("%s: Φ(%d) has %d entries but %d member bits", stage, u, len(set), pop)
		}
		if cnt := cand.dom.Count(u); cnt != len(set) {
			debugFailf("%s: Φ(%d) has %d entries but the domain maintains count %d", stage, u, len(set), cnt)
		}
	}
}

// debugCheckSortedSets panics unless every candidate set is strictly
// ascending — the input invariant of the enumeration's sorted-intersection
// kernel. Checked on entry to Enumerate so hand-built unsorted sets fail
// loudly under sqdebug instead of silently skipping embeddings.
func debugCheckSortedSets(stage string, cand *Candidates) {
	if !debugInvariants {
		return
	}
	for u, set := range cand.Sets {
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				debugFailf("%s: Φ(%d) not strictly ascending at position %d", stage, u, i)
			}
		}
	}
}

// debugSnapshotCounts captures per-vertex candidate counts before a
// refinement stage (the rows' cardinalities: current even while a word-path
// filter has yet to list the sets); returns nil in normal builds.
func debugSnapshotCounts(cand *Candidates) []int {
	if !debugInvariants {
		return nil
	}
	counts := make([]int, len(cand.Sets))
	for u := range counts {
		counts[u] = cand.dom.Count(u)
	}
	return counts
}

// debugCheckMonotone panics if a refinement stage grew some candidate set:
// filters may only remove candidates after generation.
func debugCheckMonotone(stage string, before []int, cand *Candidates) {
	if !debugInvariants || before == nil {
		return
	}
	for u := range cand.Sets {
		if n := cand.dom.Count(u); n > before[u] {
			debugFailf("%s: Φ(%d) grew from %d to %d candidates", stage, u, before[u], n)
		}
	}
}

// debugCheckEmbedding panics unless mapping is a subgraph isomorphism from
// q into g: label-preserving, injective, and edge-preserving. Called on
// every embedding the enumerators report.
func debugCheckEmbedding(q, g *graph.Graph, mapping []graph.VertexID) {
	if !debugInvariants {
		return
	}
	if len(mapping) != q.NumVertices() {
		debugFailf("embedding maps %d of %d query vertices", len(mapping), q.NumVertices())
	}
	seen := make(map[graph.VertexID]graph.VertexID, len(mapping))
	for u, v := range mapping {
		uu := graph.VertexID(u)
		if int(v) >= g.NumVertices() {
			debugFailf("embedding maps %d to %d outside the data graph", u, v)
		}
		if g.Label(v) != q.Label(uu) {
			debugFailf("embedding maps %d (label %d) to %d (label %d)", u, q.Label(uu), v, g.Label(v))
		}
		if prev, dup := seen[v]; dup {
			debugFailf("embedding is not injective: %d and %d both map to %d", prev, u, v)
		}
		seen[v] = uu
	}
	for _, e := range q.Edges() {
		if !g.HasEdge(mapping[e.U], mapping[e.V]) {
			debugFailf("embedding drops query edge (%d,%d): no data edge (%d,%d)", e.U, e.V, mapping[e.U], mapping[e.V])
		}
	}
}

func debugFailf(format string, args ...any) {
	panic("sqdebug: matching: " + fmt.Sprintf(format, args...))
}
