package core

import (
	"fmt"
	"sort"
)

// This file holds the Result-merging helpers of the scatter-gather tier
// (internal/cluster): a coordinator fans one query out to N disjoint
// database partitions, each shard returns a partial *Result in its own
// global graph ids, and MergeResults folds them into the single Result
// the caller sees. The helpers live in core, next to the Result type,
// because they encode the type's own semantics — what is additive, what
// is a critical path, what ORs — not anything about transports.

// MergeResults folds per-shard partial results into one. The parts must
// cover disjoint graph-id partitions (answers are concatenated and
// sorted, never deduplicated). nil entries are skipped, so callers can
// pass a fixed-size slice with holes for shards that returned nothing.
//
// Field semantics:
//
//   - Answers: sorted union (disjoint partitions cannot overlap);
//   - Candidates, VerifySteps, Skipped, AuxMemory: sums — each shard did
//     its own work and held its own memory concurrently, and the paper's
//     metrics stay database-wide totals;
//   - FilterTime, VerifyTime: element-wise maxima — the shards ran in
//     parallel, so the slowest shard's phase time is the critical path
//     the caller actually waited for (summing would report N× the
//     wall-clock on a balanced cluster); Workers: the maximum pool size;
//   - TimedOut, Cancelled, Degraded: ORs — one shard hitting its budget
//     makes the merged answer set a lower bound;
//   - GraphErrors: concatenation, in part order, deliberately NOT capped
//     here. The coordinator appends its own KindShard entries for lost
//     partitions first and then applies the cap exactly once via
//     CapGraphErrors, so the cap cannot silently eat the most important
//     errors (GraphErrorsTruncated sums are carried through);
//   - Err: set only when every part failed at the engine boundary (the
//     first such error is kept) — if any shard produced a usable partial
//     result the merged result is usable, and per-shard failures are the
//     coordinator's degradation path, not a query failure;
//   - Fingerprint: the first non-zero (all parts ran the same query).
func MergeResults(parts []*Result) *Result {
	merged := &Result{}
	live, failed := 0, 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		live++
		if p.Err != nil {
			failed++
			if merged.Err == nil {
				merged.Err = p.Err
			}
		}
		merged.Answers = append(merged.Answers, p.Answers...)
		merged.Candidates += p.Candidates
		merged.VerifySteps += p.VerifySteps
		merged.Skipped += p.Skipped
		merged.AuxMemory += p.AuxMemory
		merged.FilterTime = max(merged.FilterTime, p.FilterTime)
		merged.VerifyTime = max(merged.VerifyTime, p.VerifyTime)
		merged.Workers = max(merged.Workers, p.Workers)
		merged.TimedOut = merged.TimedOut || p.TimedOut
		merged.Cancelled = merged.Cancelled || p.Cancelled
		merged.Degraded = merged.Degraded || p.Degraded
		merged.GraphErrors = append(merged.GraphErrors, p.GraphErrors...)
		merged.GraphErrorsTruncated += p.GraphErrorsTruncated
		if merged.Fingerprint == 0 {
			merged.Fingerprint = p.Fingerprint
		}
	}
	if failed < live {
		merged.Err = nil
	}
	sort.Ints(merged.Answers)
	return merged
}

// CapGraphErrors enforces the per-result GraphErrors cap after a merge:
// entries beyond maxGraphErrors are dropped and counted in
// GraphErrorsTruncated instead of disappearing silently. The coordinator
// calls it exactly once, after appending its own shard-loss entries, so
// the cap holds on the wire no matter how many shards contributed.
// Idempotent: a result already within the cap is unchanged.
func (r *Result) CapGraphErrors() {
	if over := len(r.GraphErrors) - maxGraphErrors; over > 0 {
		r.GraphErrorsTruncated += over
		r.GraphErrors = r.GraphErrors[:maxGraphErrors:maxGraphErrors]
	}
}

// NewShardError builds the KindShard QueryError naming a partition lost
// at the scatter-gather tier: the shard id, how many graphs its loss
// removed from consideration, and the final transport error. graphs is
// the lost partition's global graph-id list (only its bounds and size
// are reported; a partition can hold millions of ids).
func NewShardError(engine string, shard int, graphs []int, cause error) *QueryError {
	span := ""
	if len(graphs) > 0 {
		span = fmt.Sprintf(" (ids %d..%d)", graphs[0], graphs[len(graphs)-1])
	}
	msg := fmt.Sprintf("shard %d lost: %d graphs unreachable%s", shard, len(graphs), span)
	if cause != nil {
		msg += ": " + cause.Error()
	}
	return &QueryError{
		Engine:  engine,
		Kind:    KindShard,
		GraphID: -1,
		Shard:   shard,
		Message: msg,
		value:   cause,
	}
}
