package inflight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// HandleSnapshot is a point-in-time, JSON-marshalable view of one live
// query — the row GET /debug/inflight returns.
type HandleSnapshot struct {
	// ID is the registry-unique handle id, the argument of
	// POST /debug/inflight/{id}/cancel.
	ID uint64 `json:"id"`
	// Fingerprint is the query's canonical shape hash, hex-encoded like
	// every other fingerprint on the wire.
	Fingerprint string `json:"fingerprint"`
	// Engine is the engine configuration running the query.
	Engine string `json:"engine"`
	// Verdict is the admission outcome recorded at registration.
	Verdict string `json:"verdict,omitempty"`
	// Phase is the current stage (filter, verify, filter+verify).
	Phase string `json:"phase"`
	// AgeMS is how long the query has been running.
	AgeMS int64 `json:"age_ms"`
	// GraphsDone and GraphsTotal are the per-data-graph progress; Total
	// is 0 until the engine classifies its work (e.g. before the index
	// probe returns the survivor count).
	GraphsDone  int64 `json:"graphs_done"`
	GraphsTotal int64 `json:"graphs_total"`
	// Candidates counts graphs that survived filtering so far.
	Candidates int64 `json:"candidates"`
	// Answers counts answers found so far.
	Answers int64 `json:"answers"`
	// Steps counts enumeration search-tree steps, flushed from the
	// matching layer at budget-checkpoint strides (lags true progress by
	// less than one stride).
	Steps uint64 `json:"steps"`
	// AuxBytes is the auxiliary-memory high-water mark so far.
	AuxBytes int64 `json:"aux_bytes"`
	// Cancelled reports a delivered (but not yet observed) cancellation.
	Cancelled bool `json:"cancelled,omitempty"`
	// Flagged reports that the stuck-query watchdog captured this query.
	Flagged bool `json:"flagged,omitempty"`
}

// Snapshot captures h at the given instant.
func (h *Handle) Snapshot(now time.Time) HandleSnapshot {
	if h == nil {
		return HandleSnapshot{}
	}
	return HandleSnapshot{
		ID:          h.id,
		Fingerprint: fmt.Sprintf("%016x", h.fingerprint),
		Engine:      h.engine,
		Verdict:     h.verdict,
		Phase:       Phase(h.phase.Load()).String(),
		AgeMS:       now.Sub(h.start).Milliseconds(),
		GraphsDone:  h.graphsDone.Load(),
		GraphsTotal: h.graphsTotal.Load(),
		Candidates:  h.candidates.Load(),
		Answers:     h.answers.Load(),
		Steps:       h.steps.Load(),
		AuxBytes:    h.auxBytes.Load(),
		Cancelled:   h.cancelled.Load(),
		Flagged:     h.flagged.Load(),
	}
}

// Snapshot returns every live query, oldest first (sorted by age
// descending) — the order an operator hunting a runaway query wants.
func (r *Registry) Snapshot() []HandleSnapshot {
	now := time.Now()
	out := []HandleSnapshot{}
	r.visit(func(h *Handle) { out = append(out, h.Snapshot(now)) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].AgeMS != out[j].AgeMS {
			return out[i].AgeMS > out[j].AgeMS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// visit calls fn for every live handle; a nil registry has none.
func (r *Registry) visit(fn func(h *Handle)) {
	if r == nil {
		return
	}
	for i := range r.slots {
		if h := r.slots[i].Load(); h != nil {
			fn(h)
		}
	}
}

// WriteTable renders snapshots as the aligned text table behind
// GET /debug/inflight?format=text.
func WriteTable(w io.Writer, snaps []HandleSnapshot) {
	fmt.Fprintf(w, "%-5s %-16s %-14s %-13s %9s %13s %6s %5s %12s %10s %s\n",
		"ID", "FINGERPRINT", "ENGINE", "PHASE", "AGE", "GRAPHS", "CAND", "ANS", "STEPS", "AUX", "FLAGS")
	for _, s := range snaps {
		graphs := fmt.Sprintf("%d/%d", s.GraphsDone, s.GraphsTotal)
		if s.GraphsTotal == 0 {
			graphs = fmt.Sprintf("%d/?", s.GraphsDone)
		}
		flags := ""
		if s.Cancelled {
			flags += "C"
		}
		if s.Flagged {
			flags += "W"
		}
		fmt.Fprintf(w, "%-5d %-16s %-14s %-13s %9s %13s %6d %5d %12d %10s %s\n",
			s.ID, s.Fingerprint, s.Engine, s.Phase,
			(time.Duration(s.AgeMS) * time.Millisecond).Round(time.Millisecond),
			graphs, s.Candidates, s.Answers, s.Steps, fmtBytes(s.AuxBytes), flags)
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
