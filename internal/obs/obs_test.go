package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries: bucket i spans (2^(i-1) µs, 2^i µs];
// boundary values land in the lower bucket, one past lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + time.Nanosecond, 0}, // sub-µs remainder truncates away
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + time.Microsecond, 2}, // 3µs -> (2µs, 4µs]
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{8 * time.Microsecond, 3},
		{1024 * time.Microsecond, 10},
		{1025 * time.Microsecond, 11},
		{time.Hour, NumHistogramBuckets - 1}, // overflow clamps to last
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Bounds are strictly increasing powers of two.
	for i := 1; i < NumHistogramBuckets; i++ {
		if BucketBound(i) != 2*BucketBound(i-1) {
			t.Errorf("BucketBound(%d) = %v, want 2*%v", i, BucketBound(i), BucketBound(i-1))
		}
	}
	if BucketBound(0) != time.Microsecond {
		t.Errorf("BucketBound(0) = %v, want 1µs", BucketBound(0))
	}
}

func TestHistogramRecordAndQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 90 fast observations and 10 slow ones: p50 stays in the fast
	// bucket, p99 lands in the slow one.
	for i := 0; i < 90; i++ {
		h.Record(3 * time.Microsecond) // bucket (2µs, 4µs]
	}
	for i := 0; i < 10; i++ {
		h.Record(900 * time.Microsecond) // bucket (512µs, 1024µs]
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	wantSum := 90*3*time.Microsecond + 10*900*time.Microsecond
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
	if p50 := h.Quantile(0.50); p50 < 2*time.Microsecond || p50 > 4*time.Microsecond {
		t.Errorf("p50 = %v, want within (2µs, 4µs]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 512*time.Microsecond || p99 > 1024*time.Microsecond {
		t.Errorf("p99 = %v, want within (512µs, 1024µs]", p99)
	}
	if h.Quantile(0) > h.Quantile(0.5) || h.Quantile(0.5) > h.Quantile(1) {
		t.Error("quantiles not monotone in p")
	}
	// Negative durations count as zero, not panic or underflow.
	h.Record(-time.Second)
	if h.Count() != 101 {
		t.Error("negative duration not recorded as zero")
	}
}

// TestHistogramQuantileSmallSamples: with few samples the quantile is the
// sample of nearest rank ⌈p·n⌉, so the median of three is the middle one
// and p99 of fewer than 100 is the slowest; and a rank sits inside its
// bucket, never on the bucket's upper bound.
func TestHistogramQuantileSmallSamples(t *testing.T) {
	h := NewHistogram()
	for _, us := range []time.Duration{3, 100, 900} {
		h.Record(us * time.Microsecond)
	}
	if p50 := h.Quantile(0.50); p50 <= 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Errorf("p50 of {3, 100, 900}µs = %v, want within (64µs, 128µs]", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 512*time.Microsecond || p99 > 1024*time.Microsecond {
		t.Errorf("p99 of {3, 100, 900}µs = %v, want within (512µs, 1024µs]", p99)
	}

	// The shape a live /debug/top showed with p50 48µs and p99 64µs.
	h = NewHistogram()
	for _, us := range []time.Duration{577, 46, 51} {
		h.Record(us * time.Microsecond)
	}
	if p99 := h.Quantile(0.99); p99 <= 512*time.Microsecond {
		t.Errorf("p99 of {577, 46, 51}µs = %v, want above 512µs", p99)
	}

	// One sample: every quantile is the middle of its bucket.
	h = NewHistogram()
	h.Record(5 * time.Millisecond)
	i := bucketIndex(5 * time.Millisecond)
	mid := (BucketBound(i-1) + BucketBound(i)) / 2
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Quantile(p); got != mid {
			t.Errorf("Quantile(%v) of one 5ms sample = %v, want %v (middle of its bucket)", p, got, mid)
		}
	}

	// Ten samples, p = 0.7: rank 7 exactly, although 0.7·10 rounds up.
	h = NewHistogram()
	for i := 0; i < 7; i++ {
		h.Record(3 * time.Microsecond)
	}
	for i := 0; i < 3; i++ {
		h.Record(900 * time.Microsecond)
	}
	if p70 := h.Quantile(0.7); p70 > 4*time.Microsecond {
		t.Errorf("p70 = %v, want the 7th sample's bucket (2µs, 4µs]", p70)
	}
}

// TestConcurrentInstruments exercises counters, gauges and histograms
// from many goroutines; run under -race this validates the lock-free
// recording paths.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("inflight")
			h := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Record(time.Duration(i) * time.Microsecond)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestTraceNopZeroAlloc: the disabled path — a nil *Trace, also when held
// behind the Observer interface — performs no allocations.
func TestTraceNopZeroAlloc(t *testing.T) {
	var tr *Trace
	var o Observer = tr
	allocs := testing.AllocsPerRun(1000, func() {
		tr.ObserveVerify(3, 17, time.Millisecond, true)
		o.ObserveVerify(4, 9, time.Millisecond, false)
	})
	if allocs != 0 {
		t.Errorf("nil-trace path allocates %.1f per run, want 0", allocs)
	}
	if events, dropped := tr.Verifications(); len(events) != 0 || dropped != 0 {
		t.Error("nil trace holds verifications")
	}
}

func TestTraceRecords(t *testing.T) {
	tr := NewTrace()
	tr.ObserveVerify(2, 100, 3*time.Millisecond, true)
	tr.ObserveVerify(7, 40, time.Millisecond, false)

	events, dropped := tr.Verifications()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("verifications = %d (%d dropped), want 2", len(events), dropped)
	}
	ev := events[0]
	if ev.Graph != 2 || ev.Steps != 100 || ev.DurationUS != 3000 || !ev.Found {
		t.Errorf("event = %+v", ev)
	}
	if ev := events[1]; ev.Graph != 7 || ev.Found {
		t.Errorf("event = %+v", ev)
	}
}

func TestTraceEventCap(t *testing.T) {
	tr := &Trace{maxEvents: 4}
	for i := 0; i < 10; i++ {
		tr.ObserveVerify(i, 1, time.Microsecond, false)
	}
	events, dropped := tr.Verifications()
	if len(events) != 4 {
		t.Errorf("kept %d events, want 4", len(events))
	}
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total").Add(42)
	r.Gauge("inflight").Set(3)
	h := r.Histogram("latency")
	h.Record(10 * time.Microsecond)
	h.Record(20 * time.Microsecond)

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["queries_total"] != 42 {
		t.Errorf("counter = %d", back.Counters["queries_total"])
	}
	if back.Gauges["inflight"] != 3 {
		t.Errorf("gauge = %d", back.Gauges["inflight"])
	}
	hs := back.Histograms["latency"]
	if hs.Count != 2 || len(hs.Buckets) == 0 {
		t.Errorf("histogram snapshot = %+v", hs)
	}

	if len(back.Counters) != 1 || len(back.Gauges) != 1 || len(back.Histograms) != 1 {
		t.Errorf("snapshot holds %d counters, %d gauges, %d histograms, want one each",
			len(back.Counters), len(back.Gauges), len(back.Histograms))
	}
}
