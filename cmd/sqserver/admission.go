package main

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// admission is the server's load shedder: a counting semaphore bounds
// concurrently executing queries, and a bounded wait queue absorbs short
// bursts. A request that finds the queue full is shed immediately (429 +
// Retry-After); a queued request that cannot get a slot within the wait
// deadline is shed late; one whose client gives up while queued is dropped
// with 408. The alternative — admitting everything — lets a burst of
// expensive queries multiply memory footprints (each query pins a scratch
// arena and candidate sets) until the process OOMs, which no per-query
// budget can prevent.
type admission struct {
	sem      chan struct{}
	queued   atomic.Int64
	maxQueue int64
	wait     time.Duration
	jitter   int
}

// admitVerdict is the outcome of admission.acquire.
type admitVerdict int

const (
	// admitOK: a slot was acquired; the caller must invoke release.
	admitOK admitVerdict = iota
	// admitShed: the wait queue was full on arrival — shed immediately.
	admitShed
	// admitTimeout: queued, but no slot freed within the wait deadline.
	admitTimeout
	// admitCancelled: the client went away while queued.
	admitCancelled
)

// newAdmission returns the shedder, or nil (admission disabled) when
// maxConcurrent <= 0. maxQueue <= 0 disables queueing: requests beyond the
// concurrency limit are shed on arrival. wait <= 0 selects 1s.
// jitterSecs widens the Retry-After hint by a uniform random 0..jitterSecs
// seconds so a synchronized client herd shed at the same instant does not
// come back at the same instant; <= 0 keeps the hint deterministic.
func newAdmission(maxConcurrent, maxQueue int, wait time.Duration, jitterSecs int) *admission {
	if maxConcurrent <= 0 {
		return nil
	}
	if wait <= 0 {
		wait = time.Second
	}
	return &admission{
		sem:      make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		wait:     wait,
		jitter:   max(jitterSecs, 0),
	}
}

// acquire tries to take an execution slot, waiting in the bounded queue if
// necessary. done is the request context's Done channel. On admitOK the
// returned release frees the slot; it is nil otherwise.
func (a *admission) acquire(done <-chan struct{}) (func(), admitVerdict) {
	select {
	case a.sem <- struct{}{}:
		return a.release, admitOK
	default:
	}
	if a.queued.Load() >= a.maxQueue {
		return nil, admitShed
	}
	a.queued.Add(1)
	defer a.queued.Add(-1)
	t := time.NewTimer(a.wait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		return a.release, admitOK
	case <-t.C:
		return nil, admitTimeout
	case <-done:
		return nil, admitCancelled
	}
}

func (a *admission) release() { <-a.sem }

// depth reports the current wait-queue occupancy.
func (a *admission) depth() int64 { return a.queued.Load() }

// saturated reports whether a new arrival would be shed right now: every
// slot busy and the queue full. /healthz uses it as the readiness signal so
// load balancers steer traffic away before requests start bouncing.
func (a *admission) saturated() bool {
	return len(a.sem) == cap(a.sem) && a.queued.Load() >= a.maxQueue
}

// retryAfterSeconds is the Retry-After hint on shed responses: the queue
// wait rounded up to a whole second, at least 1, plus a uniform random
// 0..jitter seconds. The base value alone synchronizes retries: every
// client shed during the same burst receives the same hint and the whole
// herd returns in one spike, which is shed again — a retry storm that
// never decays. Jitter spreads the second wave across the band.
func (a *admission) retryAfterSeconds() int {
	s := max(int((a.wait+time.Second-1)/time.Second), 1)
	if a.jitter > 0 {
		s += rand.IntN(a.jitter + 1)
	}
	return s
}
