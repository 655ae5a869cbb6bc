package core

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestMergeResultsFieldSemantics(t *testing.T) {
	a := &Result{
		Answers:     []int{4, 9},
		Candidates:  3,
		FilterTime:  10 * time.Millisecond,
		VerifyTime:  2 * time.Millisecond,
		VerifySteps: 100,
		AuxMemory:   1 << 10,
		Fingerprint: 7,
		Workers:     2,
	}
	b := &Result{
		Answers:     []int{1, 6},
		Candidates:  2,
		FilterTime:  3 * time.Millisecond,
		VerifyTime:  8 * time.Millisecond,
		VerifySteps: 50,
		AuxMemory:   1 << 11,
		TimedOut:    true,
		Skipped:     1,
		GraphErrors: []*QueryError{newBudgetError("CFQL", 6, 1)},
		Fingerprint: 7,
	}
	m := MergeResults([]*Result{a, nil, b})
	if want := []int{1, 4, 6, 9}; len(m.Answers) != len(want) {
		t.Fatalf("answers %v, want %v", m.Answers, want)
	} else {
		for i, id := range want {
			if m.Answers[i] != id {
				t.Fatalf("answers %v, want %v", m.Answers, want)
			}
		}
	}
	if m.Candidates != 5 || m.VerifySteps != 150 || m.Skipped != 1 {
		t.Errorf("sums wrong: candidates=%d steps=%d skipped=%d", m.Candidates, m.VerifySteps, m.Skipped)
	}
	if m.AuxMemory != 1<<10+1<<11 {
		t.Errorf("aux memory %d, want sum %d", m.AuxMemory, 1<<10+1<<11)
	}
	if m.FilterTime != 10*time.Millisecond || m.VerifyTime != 8*time.Millisecond || m.Workers != 2 {
		t.Errorf("phase times filter=%v verify=%v, workers %d, want element-wise maxima 10ms/8ms and 2",
			m.FilterTime, m.VerifyTime, m.Workers)
	}
	if !m.TimedOut || m.Cancelled || m.Degraded {
		t.Errorf("flags timed_out=%v cancelled=%v degraded=%v, want OR semantics (true,false,false)",
			m.TimedOut, m.Cancelled, m.Degraded)
	}
	if len(m.GraphErrors) != 1 || m.Fingerprint != 7 {
		t.Errorf("graph errors %d fingerprint %d", len(m.GraphErrors), m.Fingerprint)
	}
	if m.Err != nil {
		t.Errorf("merged Err = %v, want nil", m.Err)
	}
}

// TestMergeResultsErrSurvivesOnlyTotalFailure: a shard-boundary panic on
// one shard degrades, it does not fail the merged query — Err is kept
// only when every live part failed.
func TestMergeResultsErrSurvivesOnlyTotalFailure(t *testing.T) {
	bad := &Result{Err: newPanicError("CFQL", -1, "boom")}
	ok := &Result{Answers: []int{2}}
	if m := MergeResults([]*Result{bad, ok}); m.Err != nil {
		t.Errorf("one healthy part should clear Err, got %v", m.Err)
	}
	if m := MergeResults([]*Result{bad, {Err: newPanicError("CFQL", -1, "boom2")}}); m.Err == nil {
		t.Error("all parts failed, want Err kept")
	} else if !strings.Contains(m.Err.Message, "boom") {
		t.Errorf("kept Err %q, want the first part's", m.Err.Message)
	}
}

// TestCapGraphErrorsHoldsAfterMerge is the merge-semantics fix from the
// issue: N shards each legitimately carrying up to 16 entries must not
// yield a merged result with 16·N entries, and what the cap drops must
// be counted, not silently discarded.
func TestCapGraphErrorsHoldsAfterMerge(t *testing.T) {
	mk := func(n, base int) *Result {
		r := &Result{Skipped: n}
		for i := 0; i < n; i++ {
			r.GraphErrors = append(r.GraphErrors, newBudgetError("CFQL", base+i, 1))
		}
		return r
	}
	m := MergeResults([]*Result{mk(12, 0), mk(9, 100), mk(4, 200)})
	if len(m.GraphErrors) != 25 {
		t.Fatalf("merge must not cap (the coordinator caps once): got %d entries", len(m.GraphErrors))
	}
	m.GraphErrors = append([]*QueryError{NewShardError("CFQL", 2, []int{300, 301}, errors.New("down"))},
		m.GraphErrors...)
	m.CapGraphErrors()
	if len(m.GraphErrors) != maxGraphErrors {
		t.Errorf("capped to %d entries, want %d", len(m.GraphErrors), maxGraphErrors)
	}
	if m.GraphErrorsTruncated != 26-maxGraphErrors {
		t.Errorf("truncated count %d, want %d", m.GraphErrorsTruncated, 26-maxGraphErrors)
	}
	if m.GraphErrors[0].Kind != KindShard || m.GraphErrors[0].Shard != 2 {
		t.Errorf("shard-loss entry must survive the cap at the front, got kind=%q shard=%d",
			m.GraphErrors[0].Kind, m.GraphErrors[0].Shard)
	}
	// Idempotent: a second cap changes nothing.
	m.CapGraphErrors()
	if len(m.GraphErrors) != maxGraphErrors || m.GraphErrorsTruncated != 26-maxGraphErrors {
		t.Errorf("cap not idempotent: %d entries, %d truncated", len(m.GraphErrors), m.GraphErrorsTruncated)
	}
}

func TestNewShardError(t *testing.T) {
	qe := NewShardError("CFQL-x4", 3, []int{8, 12, 16}, errors.New("transport down"))
	if qe.Kind != KindShard || qe.Shard != 3 || qe.GraphID != -1 {
		t.Errorf("kind=%q shard=%d graph=%d", qe.Kind, qe.Shard, qe.GraphID)
	}
	for _, want := range []string{"shard 3", "3 graphs", "8..16", "transport down"} {
		if !strings.Contains(qe.Message, want) {
			t.Errorf("message %q missing %q", qe.Message, want)
		}
	}
	var cause error = qe
	if !errors.Is(errors.Unwrap(cause), errors.Unwrap(cause)) {
		t.Error("unwrap not stable")
	}
}
