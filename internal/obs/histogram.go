package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistogramBuckets is the fixed bucket count of every Histogram.
// Bucket i spans (2^(i-1) µs, 2^i µs]; bucket 0 is (0, 1 µs] and the last
// bucket additionally absorbs everything beyond its bound (~36 minutes,
// comfortably past the paper's 10-minute query budget).
const NumHistogramBuckets = 32

// Histogram is a fixed-bucket, log-spaced latency histogram. Recording is
// lock-free (one atomic add on the bucket, the total count and the sum),
// so it is safe — and cheap — to call from parallel verification workers.
type Histogram struct {
	counts [NumHistogramBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= 2^i µs, clamped to the last bucket.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us - 1)) // ceil(log2(us))
	if i >= NumHistogramBuckets {
		return NumHistogramBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i: 2^i µs. The
// last bucket also collects overflow beyond its bound.
func BucketBound(i int) time.Duration { return time.Microsecond << i }

// Record adds one observation. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Reset zeroes the histogram so its storage can be reused (the workload
// profile recycles per-shape histograms when a sketch slot is evicted).
// Concurrent Record calls may land on either side of the reset; callers
// that need a clean cut serialize externally, as the profile does.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Quantile estimates the p-quantile (p in [0,1]) as the observation of
// nearest rank r = ⌈p·n⌉, placed by linear interpolation within its bucket:
// the k-th of the bucket's c observations sits at (k − ½)/c of the way
// from its lower to its upper bound. The estimate is accurate to the
// bucket's resolution (a factor of 2 here), and the slowest observation
// counts once p·n passes n−1, so p99 of fewer than 100 samples is the
// maximum's bucket. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	p = min(max(p, 0), 1)
	// Load a consistent-enough view: counts may advance during the walk;
	// quantiles are scrape-time estimates, not accounting.
	var counts [NumHistogramBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	// The epsilon keeps a product like 0.7·10 = 7.000000000000001 at rank 7.
	target := min(max(uint64(math.Ceil(p*float64(total)-1e-9)), 1), total)
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo := time.Duration(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			frac := (float64(target-cum) - 0.5) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return BucketBound(NumHistogramBuckets - 1)
}

// HistogramBucket is one non-empty bucket of a snapshot.
type HistogramBucket struct {
	// LeUS is the bucket's inclusive upper bound in microseconds.
	LeUS int64 `json:"le_us"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time, JSON-marshalable view of a
// Histogram: count, sum/mean, the standard latency quantiles and the
// non-empty buckets.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	SumUS   int64             `json:"sum_us"`
	MeanUS  int64             `json:"mean_us"`
	P50US   int64             `json:"p50_us"`
	P90US   int64             `json:"p90_us"`
	P99US   int64             `json:"p99_us"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.Count(),
		SumUS:  h.Sum().Microseconds(),
		MeanUS: h.Mean().Microseconds(),
		P50US:  h.Quantile(0.50).Microseconds(),
		P90US:  h.Quantile(0.90).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{
				LeUS:  BucketBound(i).Microseconds(),
				Count: c,
			})
		}
	}
	return s
}
