package inflight

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stoppedWatchdog builds a watchdog whose ticker never meaningfully
// fires, so tests drive scans deterministically through CheckNow.
func stoppedWatchdog(t *testing.T, reg *Registry, cfg WatchdogConfig) *Watchdog {
	t.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour
	}
	w := NewWatchdog(reg, cfg)
	if w == nil {
		t.Fatal("NewWatchdog returned nil for non-nil registry")
	}
	t.Cleanup(w.Stop)
	return w
}

func TestWatchdogNilSafe(t *testing.T) {
	var w *Watchdog
	w.Stop()
	if w.CheckNow() != 0 {
		t.Fatal("nil watchdog CheckNow should be 0")
	}
	if NewWatchdog(nil, WatchdogConfig{}) != nil {
		t.Fatal("NewWatchdog(nil) should return nil")
	}
}

func TestWatchdogFlagsExactlyOnce(t *testing.T) {
	reg := NewRegistry(8)
	var calls atomic.Int64
	var gotStack atomic.Bool
	var gotSnap HandleSnapshot
	var mu sync.Mutex
	w := stoppedWatchdog(t, reg, WatchdogConfig{
		Floor: time.Nanosecond, // everything counts as stuck
		OnStuck: func(snap HandleSnapshot, stack []byte) {
			calls.Add(1)
			gotStack.Store(len(stack) > 0 && bytes.Contains(stack, []byte("goroutine")))
			mu.Lock()
			gotSnap = snap
			mu.Unlock()
		},
	})
	h := reg.Register(RegisterOptions{Engine: "stuck", Fingerprint: 0xfeed})
	defer reg.Deregister(h)
	time.Sleep(time.Millisecond)

	if n := w.CheckNow(); n != 1 {
		t.Fatalf("first CheckNow flagged %d, want 1", n)
	}
	// Repeated scans while the query stays stuck must not re-capture.
	for i := 0; i < 5; i++ {
		if n := w.CheckNow(); n != 0 {
			t.Fatalf("scan %d re-flagged %d queries, want 0", i, n)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("OnStuck called %d times, want 1", calls.Load())
	}
	if !gotStack.Load() {
		t.Fatal("OnStuck did not receive a goroutine stack dump")
	}
	mu.Lock()
	defer mu.Unlock()
	if gotSnap.Engine != "stuck" || gotSnap.Fingerprint != "000000000000feed" {
		t.Fatalf("snapshot mismatch: %+v", gotSnap)
	}
	if !h.Snapshot(time.Now()).Flagged {
		t.Fatal("handle should be Flagged")
	}
}

func TestWatchdogRespectsFloor(t *testing.T) {
	reg := NewRegistry(8)
	w := stoppedWatchdog(t, reg, WatchdogConfig{Floor: time.Hour})
	h := reg.Register(RegisterOptions{Engine: "young"})
	defer reg.Deregister(h)
	if n := w.CheckNow(); n != 0 {
		t.Fatalf("young query flagged under hour floor: %d", n)
	}
	if h.Snapshot(time.Now()).Flagged {
		t.Fatal("handle should not be Flagged")
	}
}

func TestWatchdogP99Threshold(t *testing.T) {
	reg := NewRegistry(8)
	p99 := time.Hour
	w := stoppedWatchdog(t, reg, WatchdogConfig{
		Floor:    time.Nanosecond,
		Multiple: 2,
		P99:      func() time.Duration { return p99 },
	})
	h := reg.Register(RegisterOptions{Engine: "q"})
	defer reg.Deregister(h)
	time.Sleep(time.Millisecond)
	// 2 × 1h threshold: not stuck.
	if n := w.CheckNow(); n != 0 {
		t.Fatalf("flagged below p99 threshold: %d", n)
	}
	// p99 collapses (e.g. workload is all microsecond queries): the same
	// query now exceeds 2 × p99 and the nanosecond floor.
	p99 = time.Nanosecond
	if n := w.CheckNow(); n != 1 {
		t.Fatalf("not flagged above p99 threshold: %d", n)
	}
}

func TestWatchdogZeroP99UsesFloor(t *testing.T) {
	reg := NewRegistry(8)
	w := stoppedWatchdog(t, reg, WatchdogConfig{
		Floor: time.Hour,
		P99:   func() time.Duration { return 0 }, // no samples yet
	})
	h := reg.Register(RegisterOptions{Engine: "q"})
	defer reg.Deregister(h)
	if n := w.CheckNow(); n != 0 {
		t.Fatalf("cold p99 must not flag under the floor: %d", n)
	}
}

func TestWatchdogTickerFires(t *testing.T) {
	reg := NewRegistry(8)
	flagged := make(chan struct{})
	var once sync.Once
	w := NewWatchdog(reg, WatchdogConfig{
		Interval: 5 * time.Millisecond,
		Floor:    time.Nanosecond,
		OnStuck: func(HandleSnapshot, []byte) {
			once.Do(func() { close(flagged) })
		},
	})
	defer w.Stop()
	h := reg.Register(RegisterOptions{Engine: "tick"})
	defer reg.Deregister(h)
	select {
	case <-flagged:
	case <-time.After(5 * time.Second):
		t.Fatal("ticker-driven scan never flagged the stuck query")
	}
}

func TestWatchdogStopIdempotent(t *testing.T) {
	reg := NewRegistry(4)
	w := NewWatchdog(reg, WatchdogConfig{Interval: time.Hour})
	w.Stop()
	w.Stop() // second Stop must not panic or hang
}
