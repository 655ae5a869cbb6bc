package obs

import (
	"fmt"
	"sync"
	"time"
)

// DefaultMaxTraceEvents bounds the per-candidate verification events one
// Trace retains; further events are counted but dropped, so a query over a
// huge candidate set cannot balloon its own trace.
const DefaultMaxTraceEvents = 1024

// Trace records one query's telemetry: phase spans, per-candidate
// verification events and cache outcomes. It implements Observer.
//
// All methods are safe on a nil *Trace — they become no-ops that allocate
// nothing — so callers can unconditionally thread a possibly-nil trace
// through QueryOptions. Non-nil traces are safe for concurrent use.
type Trace struct {
	mu          sync.Mutex
	spans       []PhaseSpan
	events      []VerifyEvent
	dropped     int
	cacheHits   int
	cacheMisses int
	workers     int
	panics      int
	fingerprint uint64
	maxEvents   int
}

// NewTrace returns an empty trace retaining at most DefaultMaxTraceEvents
// verification events.
func NewTrace() *Trace { return &Trace{maxEvents: DefaultMaxTraceEvents} }

// PhaseSpan is one completed processing phase.
type PhaseSpan struct {
	Name       string `json:"name"`
	DurationUS int64  `json:"duration_us"`
}

// VerifyEvent is one subgraph isomorphism test against a candidate data
// graph — the unit the paper's per-SI-test metric (eq. 3) averages over.
type VerifyEvent struct {
	Graph      int    `json:"graph"`
	Steps      uint64 `json:"steps"`
	DurationUS int64  `json:"duration_us"`
	Found      bool   `json:"found"`
}

// ObservePhase implements Observer.
func (t *Trace) ObservePhase(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, PhaseSpan{Name: name, DurationUS: d.Microseconds()})
	t.mu.Unlock()
}

// ObserveVerify implements Observer.
func (t *Trace) ObserveVerify(graphID int, steps uint64, d time.Duration, found bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) < t.maxEvents {
		t.events = append(t.events, VerifyEvent{
			Graph: graphID, Steps: steps, DurationUS: d.Microseconds(), Found: found,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// ObserveCache implements Observer.
func (t *Trace) ObserveCache(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if hit {
		t.cacheHits++
	} else {
		t.cacheMisses++
	}
	t.mu.Unlock()
}

// ObserveWorkers implements Observer: it records the effective worker-pool
// size a parallel engine settled on after clamping.
func (t *Trace) ObserveWorkers(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workers = n
	t.mu.Unlock()
}

// ObservePanic implements Observer: it counts panics recovered at the
// engine's resilience boundaries while this query executed.
func (t *Trace) ObservePanic(int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.panics++
	t.mu.Unlock()
}

// ObserveFingerprint implements Observer: it stores the query's canonical
// shape hash so the trace can be joined against /debug/top and the
// wide-event export.
func (t *Trace) ObserveFingerprint(fp uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fingerprint = fp
	t.mu.Unlock()
}

// TraceSnapshot is the JSON-marshalable view of a Trace, inlined into the
// /query response under ?trace=1.
type TraceSnapshot struct {
	// Phases lists completed phase spans in emission order. The "filter"
	// and "verify" spans sum to the query time; dotted names (e.g.
	// "filter.index") are sub-spans of their prefix and already included
	// in it.
	Phases []PhaseSpan `json:"phases"`
	// Verifications lists one event per candidate graph tested, capped at
	// the trace's event limit.
	Verifications []VerifyEvent `json:"verifications,omitempty"`
	// VerificationsTotal counts every verification observed, retained or
	// not; when it exceeds len(Verifications) the trace is truncated.
	VerificationsTotal int `json:"verifications_total"`
	// VerificationsDropped counts events beyond the cap. Always present so
	// a truncated trace cannot be misread as complete.
	VerificationsDropped int `json:"verifications_dropped"`
	// Truncated is the explicit flag for VerificationsDropped > 0.
	Truncated   bool `json:"truncated,omitempty"`
	CacheHits   int  `json:"cache_hits"`
	CacheMisses int  `json:"cache_misses"`
	// Workers is the effective worker-pool size of a parallel engine
	// (after clamping to GOMAXPROCS); 0 for sequential engines.
	Workers int `json:"workers,omitempty"`
	// Panics counts panics recovered at the engine's resilience boundaries
	// during this query; each corresponds to a skipped data graph or a
	// structured query error, never a crash.
	Panics int `json:"panics,omitempty"`
	// Fingerprint is the query's canonical shape hash (16 hex digits), the
	// join key against /debug/top and the wide-event export. Empty when the
	// engine did not fingerprint the query.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Snapshot copies the trace's current contents.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{
		Phases:               append([]PhaseSpan(nil), t.spans...),
		Verifications:        append([]VerifyEvent(nil), t.events...),
		VerificationsTotal:   len(t.events) + t.dropped,
		VerificationsDropped: t.dropped,
		Truncated:            t.dropped > 0,
		CacheHits:            t.cacheHits,
		CacheMisses:          t.cacheMisses,
		Workers:              t.workers,
		Panics:               t.panics,
	}
	if t.fingerprint != 0 {
		s.Fingerprint = fmt.Sprintf("%016x", t.fingerprint)
	}
	return s
}
