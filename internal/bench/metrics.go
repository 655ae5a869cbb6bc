package bench

import (
	"context"
	"time"

	"subgraphquery/internal/core"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// SetMetrics aggregates one engine's behaviour over one query set — the
// quantities defined in §IV-A "Metrics".
type SetMetrics struct {
	Queries  int // queries evaluated
	TimedOut int // queries that hit the budget

	// FilterTime and VerifyTime are averages per query.
	FilterTime time.Duration
	VerifyTime time.Duration

	// Candidates is the average |C(q)|; Answers the average |A(q)|.
	Candidates float64
	Answers    float64

	// Precision is the filtering precision of equation (1):
	// mean over queries of |A(q)|/|C(q)| (1 when C(q) is empty).
	Precision float64

	// PerSITest is equation (3): mean over queries of
	// T_verification(D,q)/|C(q)|, skipping queries with no candidates.
	PerSITest time.Duration

	// AuxMemory is the maximum per-query auxiliary (candidate set) memory.
	AuxMemory int64

	// QueryP50/P90/P99 are per-query total query time percentiles,
	// estimated from a log-spaced histogram (internal/obs). Means hide
	// stragglers; these expose the tail that dominates engine comparisons
	// under timeouts.
	QueryP50 time.Duration
	QueryP90 time.Duration
	QueryP99 time.Duration

	// Shapes breaks the set down by query fingerprint (top shapes by
	// count, descending): set-level means can hide one pathological shape
	// dragging the tail, and the per-shape latency quantiles expose it.
	Shapes []telemetry.ShapeSnapshot
}

// benchShapeTopK bounds the per-shape breakdown recorded in SetMetrics:
// enough to cover the paper's query sets (which hold fewer distinct
// shapes), small enough that BENCH_*.json stays reviewable.
const benchShapeTopK = 16

// RunQuerySet evaluates the engine on every query and aggregates metrics.
// Per the paper, queries exceeding the budget are recorded at the budget
// value and counted in TimedOut.
func RunQuerySet(e core.Engine, queries []*graph.Graph, cfg Config) SetMetrics {
	cfg = cfg.normalized()
	var m SetMetrics
	var precisionSum float64
	var perSISum time.Duration
	perSICount := 0
	var filterSum, verifySum time.Duration
	hist := obs.NewHistogram()
	shapes := telemetry.NewProfile(0)

	for _, q := range queries {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.QueryBudget)
		res := e.Query(q, core.QueryOptions{
			Context:            ctx,
			Workers:            cfg.Workers,
			StepBudgetPerGraph: cfg.stepBudget,
		})
		cancel()
		m.Queries++
		if res.TimedOut {
			m.TimedOut++
			// Record a timed-out query at the budget value, the paper's
			// "record it as 10 minutes" rule. Filtering alone can overshoot
			// the budget (the deadline is only checked between graphs), so
			// cap it first; the verification remainder is then never
			// negative, and is clamped anyway as a guard against engines
			// reporting pathological phase times.
			if res.FilterTime > cfg.QueryBudget {
				res.FilterTime = cfg.QueryBudget
			}
			if res.QueryTime() < cfg.QueryBudget {
				res.VerifyTime = cfg.QueryBudget - res.FilterTime
			}
			if res.VerifyTime < 0 {
				res.VerifyTime = 0
			}
		}
		hist.Record(res.QueryTime())
		shapes.Record(telemetry.Event{
			Fingerprint:   res.Fingerprint,
			QueryVertices: q.NumVertices(),
			QueryEdges:    q.NumEdges(),
			DurationUS:    res.QueryTime().Microseconds(),
			FilterUS:      res.FilterTime.Microseconds(),
			VerifyUS:      res.VerifyTime.Microseconds(),
			Candidates:    res.Candidates,
			Answers:       len(res.Answers),
			Skipped:       res.Skipped,
			TimedOut:      res.TimedOut,
			Cancelled:     res.Cancelled,
			Error:         res.Err != nil,
		})
		filterSum += res.FilterTime
		verifySum += res.VerifyTime
		m.Candidates += float64(res.Candidates)
		m.Answers += float64(len(res.Answers))
		if res.Candidates > 0 {
			precisionSum += float64(len(res.Answers)) / float64(res.Candidates)
			perSISum += res.VerifyTime / time.Duration(res.Candidates)
			perSICount++
		} else {
			precisionSum += 1 // perfect filtering: nothing to verify
		}
		if res.AuxMemory > m.AuxMemory {
			m.AuxMemory = res.AuxMemory
		}
	}
	if m.Queries > 0 {
		n := time.Duration(m.Queries)
		m.FilterTime = filterSum / n
		m.VerifyTime = verifySum / n
		m.Candidates /= float64(m.Queries)
		m.Answers /= float64(m.Queries)
		m.Precision = precisionSum / float64(m.Queries)
	}
	if perSICount > 0 {
		m.PerSITest = perSISum / time.Duration(perSICount)
	}
	m.QueryP50 = hist.Quantile(0.50)
	m.QueryP90 = hist.Quantile(0.90)
	m.QueryP99 = hist.Quantile(0.99)
	m.Shapes = shapes.Snapshot(benchShapeTopK).Top
	return m
}

// QueryTime returns the average query time (filtering + verification).
func (m SetMetrics) QueryTime() time.Duration { return m.FilterTime + m.VerifyTime }
