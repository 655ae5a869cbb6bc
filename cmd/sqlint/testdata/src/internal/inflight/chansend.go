// This file plants chansend fixtures: blocking channel operations in
// Handle*-reachable code need a cancellation alternative or a buffered
// channel, and close belongs to the owning side.
package inflight

// Hub stands in for the event fan-out between the registry and its
// exporter.
type Hub struct {
	out  chan uint64
	buf  chan uint64
	zero chan uint64
	stop chan struct{}
	done chan struct{}
}

func newHub() *Hub {
	return &Hub{
		out:  make(chan uint64),
		buf:  make(chan uint64, 16),
		zero: make(chan uint64, 0),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// HandleForward sends bare on an unbuffered channel: the moment the
// consumer stops receiving, this goroutine is wedged forever.
func (h *Hub) HandleForward(v uint64) {
	h.out <- v // want: blocking send outside a select
}

// HandleBuffered sends on a channel declared with capacity: ok.
func (h *Hub) HandleBuffered(v uint64) {
	h.buf <- v
}

// HandleZeroCapacity sends on a channel made with a constant zero
// capacity, which is unbuffered.
func (h *Hub) HandleZeroCapacity(v uint64) {
	h.zero <- v // want: blocking send outside a select
}

// HandleSelectSend races the send against the stop channel: ok.
func (h *Hub) HandleSelectSend(v uint64) {
	select {
	case h.out <- v:
	case <-h.stop:
	}
}

// HandleWaitField blocks on a field channel this function neither made
// nor feeds.
func (h *Hub) HandleWaitField() {
	<-h.done // want: blocking receive, no cancellation path
}

// HandleWaitLocal is the join idiom: the channel is made here and closed
// by the goroutine launched here, so the wait is bounded by this
// function's own work.
func (h *Hub) HandleWaitLocal() {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	<-done
}

// HandleCloseNotOwner closes a channel it received: a later send by the
// real owner panics.
func (h *Hub) HandleCloseNotOwner(ch chan uint64) {
	close(ch) // want: close of a parameter channel
}

// shutdown closes the Hub's own channel: ownership is right.
func (h *Hub) shutdown() {
	close(h.stop)
}
