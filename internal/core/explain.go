package core

import (
	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
	"subgraphquery/internal/obs"
)

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
