// Package obs is the observability substrate of the query system: atomic
// counters and gauges, lock-free log-spaced latency histograms, a process
// registry that snapshots to JSON, and a per-query Trace that records
// phase spans and per-candidate verification events.
//
// The package is standard-library only and designed for hot paths: every
// mutation is a sync/atomic operation (no locks on the recording side of
// counters, gauges and histograms), and the Observer no-op path — a nil
// *Trace, or a nil Observer field in core.QueryOptions — costs a single
// predictable branch and allocates nothing.
//
// The paper this system reproduces is a measurement study: §IV-A defines
// per-phase metrics (filtering time, verification time, |C(q)|, per-SI-test
// cost) that every engine must report. The engine Result carries post-hoc
// totals; this package makes the same quantities *streamable* — counted,
// bucketed into distributions, and traceable per query — which is what
// exposes the straggler queries that per-set means hide.
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

// Observer receives streaming telemetry from a query as it executes.
// Engines emit three kinds of events:
//
//   - ObservePhase at the end of each processing phase, with the phase's
//     total duration (PhaseFilter and PhaseVerify always sum to the
//     Result's QueryTime; sub-phases like PhaseIndexFilter are
//     informational refinements and must not be double-counted);
//   - ObserveVerify once per candidate data graph tested, with the graph
//     id, search steps, duration and outcome — the paper's per-SI-test
//     cost (eq. 3), one event per sample;
//   - ObserveCache once per result-cache probe (hit or miss);
//   - ObserveWorkers once per query by the parallel engines, with the
//     effective worker-pool size after clamping to runtime.GOMAXPROCS(0) —
//     so oversubscribed configurations are visible in traces;
//   - ObservePanic once per panic recovered at a resilience boundary, with
//     the data graph id whose processing panicked (-1 when the panic was
//     not attributable to one graph). The engine has already converted the
//     panic into a structured error by the time this fires;
//   - ObserveFingerprint once per query at engine entry, with the query's
//     canonical shape hash (telemetry.Fingerprint, passed as a raw uint64
//     so this package stays dependency-free). It is the join key between a
//     trace, the slow log, /debug/top and the wide-event export.
//
// Implementations must be safe for concurrent use: parallel engines emit
// ObserveVerify and ObservePanic from worker goroutines.
type Observer interface {
	ObservePhase(name string, d time.Duration)
	ObserveVerify(graphID int, steps uint64, d time.Duration, found bool)
	ObserveCache(hit bool)
	ObserveWorkers(n int)
	ObservePanic(graphID int)
	ObserveFingerprint(fp uint64)
}

// Panics counts every panic recovered at a query-engine resilience
// boundary process-wide, regardless of whether the query carried an
// Observer. Exposed by the server's /metrics and checked by the chaos
// suite.
var Panics Counter

// Phase names emitted by the engines.
const (
	// PhaseFilter is the filtering step (§IV-A filtering time). For IvcFV
	// engines it covers both filtering levels, per the paper's metric.
	PhaseFilter = "filter"
	// PhaseVerify is the verification step (§IV-A verification time).
	PhaseVerify = "verify"
	// PhaseIndexFilter is the index-probe portion of an IvcFV engine's
	// filtering, a sub-span of PhaseFilter.
	PhaseIndexFilter = "filter.index"
)

// Tee fans events out to every non-nil observer. A single observer is
// returned unwrapped; Tee(nil values only) returns nil.
func Tee(observers ...Observer) Observer {
	var kept multiObserver
	for _, o := range observers {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

type multiObserver []Observer

func (m multiObserver) ObservePhase(name string, d time.Duration) {
	for _, o := range m {
		o.ObservePhase(name, d)
	}
}

func (m multiObserver) ObserveVerify(graphID int, steps uint64, d time.Duration, found bool) {
	for _, o := range m {
		o.ObserveVerify(graphID, steps, d, found)
	}
}

func (m multiObserver) ObserveCache(hit bool) {
	for _, o := range m {
		o.ObserveCache(hit)
	}
}

func (m multiObserver) ObserveWorkers(n int) {
	for _, o := range m {
		o.ObserveWorkers(n)
	}
}

func (m multiObserver) ObservePanic(graphID int) {
	for _, o := range m {
		o.ObservePanic(graphID)
	}
}

func (m multiObserver) ObserveFingerprint(fp uint64) {
	for _, o := range m {
		o.ObserveFingerprint(fp)
	}
}
