// Package budget is the shared work-bounding substrate of the query
// system: a deadline + cancellation checkpoint polled at a fixed stride
// from every long-running loop.
//
// Before this package each loop rolled its own polling — `v%256` between
// TurboIso candidate regions, `steps%4096` in the enumeration search,
// `features%8192` in the index feature miners — and none of them could
// observe a caller-side cancellation at all. Checkpoint unifies the
// pattern: one decrement-and-compare per unit of work, with the time syscall
// and the channel poll amortized over the stride, so adding cooperative
// cancellation costs nothing measurable on the hot path.
//
// The strides are chosen per workload granularity:
//
//   - GraphStride (256) between per-data-graph units of work, where each
//     unit is already substantial;
//   - StepStride (4096) inside recursive search, where a unit is one
//     search-tree node;
//   - FeatureStride (8192) inside index feature mining, where a unit is
//     one enumerated feature instance.
package budget

import (
	"sync/atomic"
	"time"
)

// Polling strides.
const (
	// GraphStride is the polling stride for loops whose unit of work is
	// one data graph or candidate region.
	GraphStride = 256
	// StepStride is the polling stride for recursive search steps; with
	// typical step costs in the tens of nanoseconds the overshoot past a
	// deadline stays well under a millisecond.
	StepStride = 4096
	// FeatureStride is the polling stride for index feature enumeration.
	FeatureStride = 8192
)

// Checkpoint bounds a loop by wall-clock deadline and cooperative
// cancellation. The zero value never stops anything. A Checkpoint belongs
// to one goroutine; concurrent loops each carry their own.
type Checkpoint struct {
	// Deadline stops the work when exceeded; the zero time disables the
	// check.
	Deadline time.Time
	// Cancel stops the work when closed; context-compatible (pass
	// ctx.Done()). nil disables the check.
	Cancel <-chan struct{}
	// Stride is how many Tick calls share one real deadline/cancel poll;
	// 0 selects StepStride.
	Stride uint64
	// Progress, when non-nil, receives the tick count in stride-sized
	// batches at each real poll — live progress reporting piggybacked on
	// the polls the loop already pays for, adding one atomic add per
	// stride and nothing per tick. nil disables the flush.
	Progress *atomic.Uint64

	// left counts down the Tick calls to the next real poll, that one
	// included; 0 before the first call.
	left int64
}

// Tick consumes one unit of work and reports whether the loop must stop:
// every Stride-th call polls the deadline and the cancel channel, all
// other calls cost one decrement and one compare. (Stride is a field, so a
// remainder by it would be a division on every call.)
func (c *Checkpoint) Tick() bool {
	if c.left--; c.left > 0 {
		return false
	}
	return c.poll()
}

// poll is the rest of Tick on the first call and on every Stride-th.
func (c *Checkpoint) poll() bool {
	stride := c.Stride
	if stride == 0 {
		stride = StepStride
	}
	if c.left < 0 { // the first call: start the countdown with it
		if c.left = int64(stride) - 1; c.left > 0 {
			return false
		}
	}
	c.left = int64(stride)
	if c.Progress != nil {
		c.Progress.Add(stride)
	}
	return c.Exceeded()
}

// Exceeded polls the deadline and the cancel channel immediately,
// bypassing the stride — for loop boundaries where a unit of work is
// expensive enough to always check.
func (c *Checkpoint) Exceeded() bool {
	if Cancelled(c.Cancel) {
		return true
	}
	return !c.Deadline.IsZero() && time.Now().After(c.Deadline)
}

// Cancelled reports whether the cancel channel is closed. A nil channel
// is never cancelled, so unset options poll for free.
func Cancelled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}
