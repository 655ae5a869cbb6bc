package budget

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestZeroCheckpointNeverStops(t *testing.T) {
	var c Checkpoint
	for i := 0; i < 3*StepStride; i++ {
		if c.Tick() {
			t.Fatalf("zero checkpoint stopped at tick %d", i)
		}
	}
	if c.Exceeded() {
		t.Fatal("zero checkpoint reports Exceeded")
	}
}

func TestTickHonorsDeadlineAtStride(t *testing.T) {
	c := Checkpoint{Deadline: time.Now().Add(-time.Second), Stride: 8}
	stopped := -1
	for i := 0; i < 64; i++ {
		if c.Tick() {
			stopped = i
			break
		}
	}
	if stopped != 7 {
		t.Fatalf("expired deadline noticed at tick %d, want 7 (stride-1)", stopped)
	}
}

func TestTickHonorsCancel(t *testing.T) {
	cancel := make(chan struct{})
	c := Checkpoint{Cancel: cancel, Stride: 4}
	for i := 0; i < 16; i++ {
		if c.Tick() {
			t.Fatalf("open cancel channel stopped the loop at tick %d", i)
		}
	}
	close(cancel)
	stopped := false
	for i := 0; i < 4; i++ {
		if c.Tick() {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Fatal("closed cancel channel never stopped the loop within one stride")
	}
}

func TestDefaultStride(t *testing.T) {
	c := Checkpoint{Deadline: time.Now().Add(-time.Second)}
	for i := 1; i < StepStride; i++ {
		if c.Tick() {
			t.Fatalf("default stride polled early at tick %d", i)
		}
	}
	if !c.Tick() {
		t.Fatalf("default stride did not poll at tick %d", StepStride)
	}
}

func TestExceededBypassesStride(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	c := Checkpoint{Cancel: cancel, Stride: 1 << 20}
	if !c.Exceeded() {
		t.Fatal("Exceeded ignored a closed cancel channel")
	}
}

func TestProgressFlushedAtStride(t *testing.T) {
	var p atomic.Uint64
	c := Checkpoint{Stride: 8, Progress: &p}
	for i := 1; i <= 7; i++ {
		c.Tick()
		if p.Load() != 0 {
			t.Fatalf("progress flushed early at tick %d: %d", i, p.Load())
		}
	}
	c.Tick()
	if p.Load() != 8 {
		t.Fatalf("progress after one stride = %d, want 8", p.Load())
	}
	for i := 0; i < 24; i++ {
		c.Tick()
	}
	if p.Load() != 32 {
		t.Fatalf("progress after 32 ticks = %d, want 32", p.Load())
	}
}

func TestProgressNilIsFree(t *testing.T) {
	c := Checkpoint{Stride: 2}
	if avg := testing.AllocsPerRun(1000, func() { c.Tick() }); avg != 0 {
		t.Fatalf("Tick with nil Progress allocates %.1f/op", avg)
	}
}

func TestCancelled(t *testing.T) {
	if Cancelled(nil) {
		t.Fatal("nil channel reports cancelled")
	}
	ch := make(chan struct{})
	if Cancelled(ch) {
		t.Fatal("open channel reports cancelled")
	}
	close(ch)
	if !Cancelled(ch) {
		t.Fatal("closed channel not reported cancelled")
	}
}

// TestTickPollsEveryStrideth: the countdown polls at calls Stride, 2·Stride,
// … exactly — for a stride of one and for one that is no power of two — and
// flushes Stride ticks of progress each time.
func TestTickPollsEveryStrideth(t *testing.T) {
	for _, stride := range []uint64{1, 3, 8} {
		var p atomic.Uint64
		c := Checkpoint{Stride: stride, Progress: &p}
		for call := uint64(1); call <= 5*stride; call++ {
			c.Tick()
			if want := call / stride * stride; p.Load() != want {
				t.Fatalf("stride %d: progress after call %d = %d, want %d", stride, call, p.Load(), want)
			}
		}
	}
}
