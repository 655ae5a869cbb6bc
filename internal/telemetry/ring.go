package telemetry

import (
	"sync"
	"time"
)

// DebugEvent is one operational incident worth keeping for /debug/events:
// an admission shed, a recovered panic — the things an operator greps for
// first when a dashboard spikes.
type DebugEvent struct {
	// Time is when the incident happened.
	Time time.Time `json:"time"`
	// Kind classifies the incident ("shed", "queue_timeout", "client_gone",
	// "handler_panic", "query_panic", ...).
	Kind string `json:"kind"`
	// Fingerprint identifies the query shape involved, when known.
	Fingerprint Fingerprint `json:"fingerprint,omitempty"`
	// Engine is the engine configuration involved, when known.
	Engine string `json:"engine,omitempty"`
	// Status is the HTTP status returned to the client, when the incident
	// maps to a request (429 for sheds, 408 for abandoned queue waits).
	Status int `json:"status,omitempty"`
	// Message carries incident detail (panic values, shed reasons).
	Message string `json:"message,omitempty"`
}

// Ring is a bounded, concurrency-safe ring of the most recent values
// offered to it: cheap to append, newest-first to read, old entries
// silently displaced. It is the one store behind /debug/events (a
// Ring[DebugEvent]) and /debug/slowlog.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total int64 // values ever offered; total % len(buf) is the next slot
}

// NewRing returns a ring keeping the most recent size values (size > 0).
func NewRing[T any](size int) *Ring[T] {
	return &Ring[T]{buf: make([]T, size)}
}

// Offer appends one value, displacing the oldest when full.
func (r *Ring[T]) Offer(v T) {
	r.mu.Lock()
	r.buf[r.total%int64(len(r.buf))] = v
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained values, newest first (empty, never nil).
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.total, int64(len(r.buf)))
	out := make([]T, 0, n)
	for i := int64(1); i <= n; i++ {
		out = append(out, r.buf[(r.total-i)%int64(len(r.buf))])
	}
	return out
}

// Total returns how many values were ever offered (retained or displaced).
func (r *Ring[T]) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
