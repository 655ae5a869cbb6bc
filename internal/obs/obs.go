// Package obs is the observability substrate of the query system: atomic
// counters and gauges, lock-free log-spaced latency histograms, a process
// registry that snapshots to JSON, and a per-query Trace that records
// the per-candidate verification events.
//
// The package is standard-library only and designed for hot paths: every
// mutation is a sync/atomic operation (no locks on the recording side of
// counters, gauges and histograms), and the Observer no-op path — a nil
// *Trace, or a nil Observer field in core.QueryOptions — costs a single
// predictable branch and allocates nothing.
//
// The paper this system reproduces is a measurement study: §IV-A defines
// per-phase metrics (filtering time, verification time, |C(q)|, per-SI-test
// cost) that every engine must report. The engine Result is the query's
// record and carries all of them but one: the per-SI-test sample, which
// the Observer streams so it can be bucketed into distributions and traced
// per query — what exposes the straggler tests that per-set means hide.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. in-flight queries).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of counters, gauges and histograms.
// Lookups are read-locked and intended for setup paths; hot paths should
// hold the returned pointer and mutate it directly (all mutations are
// atomic and safe for concurrent use).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// instrument returns m[name], creating it with mk on first use.
func instrument[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v = mk()
	m[name] = v
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return instrument(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return instrument(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return instrument(r, r.hists, name, NewHistogram)
}

// Snapshot is a point-in-time, JSON-marshalable view of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument. Values are read without stopping
// writers, so concurrent snapshots are consistent per instrument, not
// across instruments — the usual scrape semantics.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Observer receives the one query signal the Result cannot carry: the
// per-SI-test stream. ObserveVerify fires once per candidate data graph
// tested, with the graph id, search steps, duration and outcome — the
// paper's per-SI-test cost (eq. 3), one event per sample. Everything else
// a query reports (phase times, cache outcome, worker count, panics,
// fingerprint) is a field of its Result.
//
// Implementations must be safe for concurrent use: parallel engines emit
// from worker goroutines.
type Observer interface {
	ObserveVerify(graphID int, steps uint64, d time.Duration, found bool)
}

// Panics counts every panic recovered at a query-engine resilience
// boundary or a server handler, process-wide, regardless of whether the
// query carried an Observer. The server's /metrics copies it into
// panics_recovered_total at scrape time; the chaos suite checks it.
var Panics Counter

// Phase names of a TraceSnapshot's spans.
const (
	// PhaseFilter is the filtering step (§IV-A filtering time). For IvcFV
	// engines it covers both filtering levels, per the paper's metric.
	PhaseFilter = "filter"
	// PhaseVerify is the verification step (§IV-A verification time).
	PhaseVerify = "verify"
)
