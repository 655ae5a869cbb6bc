package core

import (
	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// observeOrder records a matching order with per-vertex selectivity into
// the Explain report (no-op with a nil Explain; allocates nothing then).
func observeOrder(ex *obs.Explain, order []graph.VertexID, cand *matching.Candidates) {
	if ex == nil {
		return
	}
	steps := make([]obs.OrderStep, len(order))
	for i, u := range order {
		steps[i] = obs.OrderStep{Vertex: int(u), Candidates: cand.Count(u)}
	}
	ex.ObserveOrder(steps)
}

// probeIndex probes an engine's index for the surviving graph ids. An
// index that recognises the query verbatim (index.ExactFilter) reports
// exact: the ids are A(q) itself. Otherwise the probe routes through
// FilterExplain when the index can report per-probe statistics and an
// Explain is attached; with ex == nil it is exactly idx.Filter(q).
func probeIndex(idx index.Index, q *graph.Graph, ex *obs.Explain) (ids []int, exact bool) {
	if ef, ok := idx.(index.ExactFilter); ok {
		return ef.FilterExact(q)
	}
	if ex != nil {
		if ei, ok := idx.(index.Explainable); ok {
			return ei.FilterExplain(q, ex), false
		}
	}
	return idx.Filter(q), false
}
