package obs

import (
	"sync"
	"time"
)

// DefaultMaxTraceEvents bounds the per-candidate verification events one
// Trace retains; further events are counted but dropped, so a query over a
// huge candidate set cannot balloon its own trace.
const DefaultMaxTraceEvents = 1024

// Trace records one query's per-candidate verification events. It
// implements Observer; the rest of a ?trace=1 view comes from the query's
// Result (core's Result.TraceSnapshot joins the two).
//
// All methods are safe on a nil *Trace — they become no-ops that allocate
// nothing — so callers can unconditionally thread a possibly-nil trace
// through QueryOptions. Non-nil traces are safe for concurrent use.
type Trace struct {
	mu        sync.Mutex
	events    []VerifyEvent
	dropped   int
	maxEvents int
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

// Verifications copies the retained events and returns them with the
// count of events dropped past the cap (nil and 0 on a nil trace).
func (t *Trace) Verifications() (events []VerifyEvent, dropped int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]VerifyEvent(nil), t.events...), t.dropped
}

// TraceSnapshot is the JSON-marshalable ?trace=1 view of one query,
// inlined into the /query response.
type TraceSnapshot struct {
	// Phases lists the "filter" and "verify" spans, which sum to the
	// query time.
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
	Truncated bool `json:"truncated,omitempty"`
	// CacheHits and CacheMisses count the query's result-cache probes:
	// one of them is 1 behind a cache, both are 0 without one.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
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
