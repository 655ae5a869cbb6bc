// Package matching implements the subgraph isomorphism and subgraph matching
// algorithms the paper studies. A matcher is a value: a Filter that builds
// the candidate vertex sets, an Order over the query vertices, and the one
// backtracking search (Enumerate) both feed — the catalogue in matcher.go
// covers the preprocessing-enumeration algorithms GraphQL and CFL, the
// paper's CFQL (CFL's Filter + GraphQL's Order, §III-B) and the
// direct-enumeration baselines Ullmann, QuickSI and SPath. The two halves
// stay callable on their own so the query engines in internal/core can time
// them apart. VF2 and TurboIso run their own search.
//
// All algorithms operate on vertex-labeled undirected graphs and find
// subgraph isomorphisms as defined in Definition II.1: injective mappings
// preserving labels and edges.
package matching

import (
	"sync/atomic"
	"time"

	"subgraphquery/internal/budget"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// Options bounds an enumeration. The zero value means "find everything with
// no limits", which is rarely what a caller wants: subgraph query
// verification passes Limit=1, and the experiment harness sets deadlines to
// emulate the paper's 10-minute per-query budget.
type Options struct {
	// Limit stops the enumeration after this many embeddings have been
	// found. 0 means unlimited. Verification (the Verify function of the
	// paper's Algorithm 2) uses Limit = 1.
	Limit uint64

	// Deadline aborts the enumeration when exceeded. The zero time means no
	// deadline. The deadline is checked every few thousand recursion steps,
	// so overshoot is bounded and cheap.
	Deadline time.Time

	// Cancel aborts the enumeration cooperatively when closed
	// (context-compatible: pass ctx.Done()). It is polled at the same
	// stride as Deadline, so a cancelled search returns promptly with
	// Aborted set. nil disables the check at no cost.
	Cancel <-chan struct{}

	// StepBudget aborts after this many recursion steps, a deterministic
	// alternative to Deadline for tests. 0 means unlimited.
	StepBudget uint64

	// Progress, when non-nil, receives the enumeration step count in
	// budget-checkpoint-stride batches (see budget.Checkpoint.Progress) —
	// live progress for in-flight inspection at one atomic add per stride
	// and zero allocations. nil disables the flush at no cost.
	Progress *atomic.Uint64

	// OnEmbedding, when non-nil, receives each found embedding: mapping[u]
	// is the data vertex matched to query vertex u. The slice is reused
	// between calls; callers must copy it to retain it. Returning false
	// stops the enumeration early.
	OnEmbedding func(mapping []graph.VertexID) bool

	// Scratch, when non-nil, supplies the arena for all enumeration state
	// (and, through Matcher.Run, the filter and ordering passes). The arena must not be shared between goroutines. nil
	// allocates private state per call, the historic behavior.
	Scratch *Scratch
}

// FilterOptions bounds and instruments one filtering pass — the
// preprocessing phase a vcFV engine runs per candidate data graph. The
// zero value filters to completion with no instrumentation, the historic
// behavior.
type FilterOptions struct {
	// Deadline aborts the filtering pass when exceeded, fewer than
	// deadlineStride stage boundaries late. The returned Candidates then
	// has Aborted set and is incomplete: callers must treat the data graph
	// as timed out, never as filtered out. The zero time disables the
	// check.
	Deadline time.Time

	// Cancel aborts the filtering pass cooperatively when closed
	// (context-compatible: pass ctx.Done()), at the next stage boundary,
	// with the same Aborted semantics as Deadline. nil disables the check
	// at no cost.
	Cancel <-chan struct{}

	// MemoryBudget bounds the live byte footprint of the candidate
	// structure under construction (Candidates.MemoryFootprint). When a
	// stage boundary finds the structure over budget, the pass stops with
	// both Aborted and BudgetExceeded set on the returned Candidates:
	// callers must skip the data graph with a budget error rather than
	// treat it as timed out or filtered out. 0 disables the check.
	MemoryBudget int64

	// Rounds bounds GraphQL's pseudo-isomorphism refinement: 0 selects
	// DefaultRefinementRounds, negative disables refinement (the
	// profile-only ablation). CFL's filter ignores it.
	Rounds int

	// Explain, when non-nil, records per-stage candidate counts,
	// refinement rounds and semi-perfect rejections. nil collects nothing
	// and costs nothing on the hot path.
	Explain *obs.Explain

	// Scratch, when non-nil, supplies the reusable arena the pass runs on.
	// The returned Candidates is then owned by the Scratch and valid only
	// until its next filter call; steady-state filtering allocates
	// nothing. The arena must not be shared between goroutines. nil
	// allocates private state per call, the historic behavior.
	Scratch *Scratch
}

// deadlineStride is how many stage boundaries of the filters share one
// clock read. A stage is one query vertex of one pass — for CFL at most
// O(|E(G)|) adjacency scanned per neighbor of that vertex — so a pass
// overshoots FilterOptions.Deadline by fewer than deadlineStride stages;
// the engines' per-graph loop also compares its own reading against the
// deadline after every graph.
const deadlineStride = 8

// overBudget marks cand budget-exceeded (and aborted) when its live
// footprint passed MemoryBudget, and reports whether the pass must stop.
// Called at stage boundaries, where the structure just grew.
func (o *FilterOptions) overBudget(cand *Candidates) bool {
	if o.MemoryBudget <= 0 || cand.MemoryFootprint() <= o.MemoryBudget {
		return false
	}
	cand.Aborted = true
	cand.BudgetExceeded = true
	return true
}

// stop is the stage-boundary check of a filtering pass running on s.
// Cancellation, polled at every boundary, a passed deadline, for which the
// clock is read at every deadlineStride-th boundary s has seen, and, under
// sqchaos, an injected spurious abort stop the pass with Aborted set; a
// blown memory budget stops it with BudgetExceeded set as well. Returns
// true when the pass must return cand as-is.
func (o *FilterOptions) stop(s *Scratch, cand *Candidates) bool {
	s.boundaries++
	late := s.boundaries%deadlineStride == 0 && !o.Deadline.IsZero() && time.Until(o.Deadline) < 0
	if late || budget.Cancelled(o.Cancel) || fault.Abort(fault.PointFilter) {
		cand.Aborted = true
		return true
	}
	return o.overBudget(cand)
}

// Result reports the outcome of an enumeration.
type Result struct {
	// Embeddings is the number of subgraph isomorphisms found before the
	// enumeration stopped.
	Embeddings uint64

	// Steps is the number of recursive search-tree nodes expanded.
	Steps uint64

	// Aborted is true if the enumeration hit its Deadline or StepBudget
	// before completing; Embeddings is then a lower bound.
	Aborted bool

	// Stopped is true if an OnEmbedding callback returned false, halting
	// the enumeration early.
	Stopped bool

	// Jumps counts conflict-directed backjumps that skipped at least one
	// order position (the "jump" of jump-redo backtracking); Redos counts
	// all dead-end backtracks that went through conflict analysis.
	Jumps uint64
	Redos uint64

	// Pruned counts candidates the look-ahead skipped: mapping one would
	// have left a later query neighbour with no free candidate.
	Pruned uint64

	// WordIsects, ProbeIsects and MergeIsects count candidate-set ∩
	// neighborhood intersections by representation: single words, or what
	// the density switch chose, bit-row probing vs sorted-slice merging.
	WordIsects  uint64
	ProbeIsects uint64
	MergeIsects uint64
}

// Found reports whether at least one embedding was discovered.
func (r Result) Found() bool { return r.Embeddings > 0 }

// searchBudget tracks steps against Options during a recursive search;
// deadline and cancellation polling runs through the shared
// budget.Checkpoint at its step stride.
type searchBudget struct {
	steps      uint64
	stepBudget uint64
	check      budget.Checkpoint
	aborted    bool
}

func newBudget(opts *Options) searchBudget {
	return searchBudget{
		stepBudget: opts.StepBudget,
		check:      budget.Checkpoint{Deadline: opts.Deadline, Cancel: opts.Cancel, Stride: budget.StepStride, Progress: opts.Progress},
	}
}

// spend consumes one step and reports whether the search must abort.
func (b *searchBudget) spend() bool {
	b.steps++
	if b.stepBudget != 0 && b.steps > b.stepBudget {
		b.aborted = true
		return true
	}
	if b.check.Tick() {
		b.aborted = true
		return true
	}
	return false
}
