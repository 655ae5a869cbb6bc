// Package inflight is the live-query inspection layer of the query
// system: a lock-light registry where every executing query holds a
// Handle — identity (id, fingerprint, engine, admission verdict, start
// time) plus atomic progress counters (current phase, graphs processed /
// total, candidates, enumeration steps, auxiliary bytes) — so an
// operator can see what is running *right now*, not just what already
// finished. On top of the registry sit remote cancellation (call the
// CancelFunc of the query's context, which the engines' cooperative
// cancellation polls) and the stuck-query watchdog (watchdog.go).
//
// The paper's enumeration phase is exponential in the worst case; a
// pathological query is otherwise invisible until it times out or trips
// a budget. The registry makes it visible mid-flight and stoppable
// without restarting the process.
//
// The package is standard-library only, like internal/obs. Fingerprints
// travel as raw uint64 so no telemetry dependency is needed. Every
// Handle method is safe on a nil receiver (a nil handle is the disabled
// tracker, costing one branch), and every progress mutation is a single
// atomic operation — no locks, no allocation — so handles may be updated
// from parallel verification workers and polled concurrently by HTTP
// handlers.
package inflight

import (
	"context"
	"sync/atomic"
	"time"
)

// Phase is the coarse stage a query is currently in. The fused vcFV/IvcFV
// pipelines alternate filter and verify per data graph, so they report
// PhaseFused rather than flapping between the two.
type Phase uint32

// Phases, in lifecycle order.
const (
	// PhaseStarting: registered, before the engine classified its work.
	PhaseStarting Phase = iota
	// PhaseFilter: index probe or vertex-connectivity filtering.
	PhaseFilter
	// PhaseVerify: per-candidate subgraph isomorphism tests.
	PhaseVerify
	// PhaseFused: interleaved per-graph filter+verify (vcFV, IvcFV).
	PhaseFused
)

var phaseNames = [...]string{"starting", "filter", "verify", "filter+verify"}

// String returns the phase's wire name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Handle is one live query's registry entry. Identity fields are written
// once at registration; progress fields are atomics updated from the
// engine hot paths and read by concurrent snapshots. All methods are
// nil-safe.
type Handle struct {
	id          uint64
	fingerprint uint64
	engine      string
	verdict     string
	start       time.Time

	phase       atomic.Uint32
	graphsDone  atomic.Int64
	graphsTotal atomic.Int64
	candidates  atomic.Int64
	answers     atomic.Int64
	steps       atomic.Uint64
	auxBytes    atomic.Int64

	cancelled atomic.Bool
	flagged   atomic.Bool // watchdog captured this query's stack already

	stop context.CancelFunc // ends the query's context; nil = nothing to end
	reg  *Registry          // the registry the handle was registered in
	slot int                // registry slot, -1 when the registry was full (untracked)
}

// ID returns the handle's registry-unique id (0 on nil).
func (h *Handle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.id
}

// Registry returns the registry the handle was registered in (nil on a nil
// handle), where a caller fanning the query out registers its sub-handles.
func (h *Handle) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// SetPhase records the stage the query just entered: one atomic store.
func (h *Handle) SetPhase(p Phase) {
	if h == nil {
		return
	}
	h.phase.Store(uint32(p))
}

// GraphDone counts one data graph fully processed: one atomic add.
func (h *Handle) GraphDone() {
	if h == nil {
		return
	}
	h.graphsDone.Add(1)
}

// SetGraphsTotal records how many data graphs the query will process
// (the database size, or the index survivor count once known).
func (h *Handle) SetGraphsTotal(n int) {
	if h == nil {
		return
	}
	h.graphsTotal.Store(int64(n))
}

// AddCandidates counts graphs that survived filtering into verification.
func (h *Handle) AddCandidates(n int) {
	if h == nil {
		return
	}
	h.candidates.Add(int64(n))
}

// AddAnswers counts answers found so far.
func (h *Handle) AddAnswers(n int) {
	if h == nil {
		return
	}
	h.answers.Add(int64(n))
}

// GrowAux raises the recorded auxiliary-memory high-water mark to b if
// larger (monotonic max over concurrent workers).
func (h *Handle) GrowAux(b int64) {
	if h == nil {
		return
	}
	for {
		cur := h.auxBytes.Load()
		if b <= cur || h.auxBytes.CompareAndSwap(cur, b) {
			return
		}
	}
}

// StepCounter returns the enumeration-step counter the matching layer
// flushes into at budget-checkpoint strides (budget.Checkpoint.Progress),
// or nil on a nil handle — so engines can pass it unconditionally.
func (h *Handle) StepCounter() *atomic.Uint64 {
	if h == nil {
		return nil
	}
	return &h.steps
}

// Cancel requests cooperative cancellation: the first call marks the
// handle cancelled, cancels the query's context (RegisterOptions.Cancel)
// and reports true; later calls and nil handles report false. The query
// observes the cancelled context at its next budget checkpoint and
// returns with Cancelled set.
func (h *Handle) Cancel() bool {
	if h == nil || !h.cancelled.CompareAndSwap(false, true) {
		return false
	}
	if h.stop != nil {
		h.stop()
	}
	return true
}

// flag marks the handle as watchdog-flagged; true on the first call only,
// so exactly one stack dump is captured per stuck query.
func (h *Handle) flag() bool {
	return h != nil && h.flagged.CompareAndSwap(false, true)
}

// Registry tracks the live handles. Registration claims a slot in a fixed
// atomic-pointer array by CAS (no lock on the query path); snapshots and
// cancellation scan the array without blocking writers. When every slot
// is taken the query still runs — it gets an unlisted handle and the
// overflow counter moves, because query execution must never fail on
// account of its own observability.
type Registry struct {
	slots  []atomic.Pointer[Handle]
	nextID atomic.Uint64
	cursor atomic.Uint64

	registered atomic.Int64 // total handles ever registered
	overflowed atomic.Int64 // registrations that found no free slot
	cancels    atomic.Int64 // successful Cancel deliveries via the registry
}

// DefaultRegistrySlots is the slot count when none is given — comfortably
// above any sane admission-control concurrency limit.
const DefaultRegistrySlots = 256

// NewRegistry returns a registry with the given slot capacity (<= 0
// selects DefaultRegistrySlots).
func NewRegistry(slots int) *Registry {
	if slots <= 0 {
		slots = DefaultRegistrySlots
	}
	return &Registry{slots: make([]atomic.Pointer[Handle], slots)}
}

// RegisterOptions carries a new handle's identity.
type RegisterOptions struct {
	// Engine is the engine configuration about to run the query.
	Engine string
	// Fingerprint is the query's canonical shape hash (raw uint64).
	Fingerprint uint64
	// Verdict is the admission outcome ("ok" when admission control
	// admitted the query; empty when admission was disabled).
	Verdict string
	// Cancel is the CancelFunc of the context the query runs on:
	// Handle.Cancel calls it to stop the query, Deregister to release the
	// context. nil when nothing can be stopped through the handle.
	Cancel context.CancelFunc
}

// Register creates and publishes a live handle. Safe on a nil registry
// (returns nil, the disabled tracker; the query's context is the caller's
// alone). The caller must Deregister the handle when the query returns.
func (r *Registry) Register(opts RegisterOptions) *Handle {
	if r == nil {
		return nil
	}
	h := &Handle{
		id:          r.nextID.Add(1),
		fingerprint: opts.Fingerprint,
		engine:      opts.Engine,
		verdict:     opts.Verdict,
		start:       time.Now(),
		stop:        opts.Cancel,
		reg:         r,
		slot:        -1,
	}
	r.registered.Add(1)
	n := uint64(len(r.slots))
	base := r.cursor.Add(1)
	for i := uint64(0); i < n; i++ {
		slot := int((base + i) % n)
		if r.slots[slot].CompareAndSwap(nil, h) {
			h.slot = slot
			return h
		}
	}
	// Full: the query runs untracked rather than failing or blocking.
	r.overflowed.Add(1)
	return h
}

// Deregister retracts the handle from the registry and releases the
// query's context (RegisterOptions.Cancel) without marking the handle
// cancelled. Safe on nil receiver and nil handle; idempotent.
func (r *Registry) Deregister(h *Handle) {
	if h == nil {
		return
	}
	if h.stop != nil {
		h.stop()
	}
	if r != nil && h.slot >= 0 {
		r.slots[h.slot].CompareAndSwap(h, nil)
	}
}

// Cancel delivers cooperative cancellation to the live query with the
// given id. It reports false when no such query is live (already
// finished, never registered, or cancelled and gone).
func (r *Registry) Cancel(id uint64) bool {
	delivered := false
	r.visit(func(h *Handle) {
		if h.id == id && h.Cancel() {
			r.cancels.Add(1)
			delivered = true
		}
	})
	return delivered
}

// CancelAll cancels every live query (graceful-shutdown sweep) and
// returns how many cancellations were delivered.
func (r *Registry) CancelAll() int {
	n := 0
	r.visit(func(h *Handle) {
		if h.Cancel() {
			r.cancels.Add(1)
			n++
		}
	})
	return n
}

// Len counts the live handles.
func (r *Registry) Len() int {
	n := 0
	r.visit(func(*Handle) { n++ })
	return n
}

// Stats reports the registry's lifetime counters: total registrations,
// registrations that overflowed the slot array, and cancellations
// delivered through the registry.
func (r *Registry) Stats() (registered, overflowed, cancels int64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.registered.Load(), r.overflowed.Load(), r.cancels.Load()
}
