package admit

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite latency buckets: bucket i covers
// (2^(i-1), 2^i] microseconds, so the range spans 1µs .. ~33.5s before
// the overflow (+Inf) bucket. Log-spaced buckets keep the histogram a
// fixed 27 atomic counters per route while still resolving both a 80µs
// cached top-k and a multi-second degraded tail.
const HistBuckets = 26

// Histogram is a log-bucketed latency histogram: lock-free Observe
// (atomic adds only), Prometheus-style cumulative buckets, and
// upper-bound quantile estimates. The zero value is NOT ready; use
// NewHistogram.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Uint64 // last = overflow (+Inf)
	sum    atomic.Int64                   // nanoseconds
	n      atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketFor maps a duration to its bucket index: the smallest i with
// d <= 2^i microseconds, capped at the overflow bucket.
func bucketFor(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Round up to whole microseconds, then take the bit length of us-1:
	// us <= 2^i exactly when bits.Len64(us-1) == i (for us >= 2).
	us := uint64((d + time.Microsecond - 1) / time.Microsecond)
	i := bits.Len64(us - 1)
	if i > HistBuckets {
		return HistBuckets // overflow
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound in seconds
// (+Inf is represented by the overflow index's caller-side handling;
// this function is only defined for i < HistBuckets).
func BucketBound(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e6
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the total observed latency in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e9 }

// Cumulative fills buf (length HistBuckets+1) with the cumulative
// bucket counts, Prometheus "le" style: buf[i] counts samples <= the
// bucket-i bound, buf[HistBuckets] is the +Inf total. Returns the
// total. Concurrent Observes may land between reads; the result is
// monotonized so cumulative counts never decrease within one call.
func (h *Histogram) Cumulative(buf *[HistBuckets + 1]uint64) uint64 {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		buf[i] = cum
	}
	return cum
}

// PromQuantiles are the per-route quantile gauge series node and
// gateway export alongside the histogram. p50/p90/p99 are the SLO
// readouts the overload suite and dashboards key on.
var PromQuantiles = []struct {
	Label string
	Q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
}

// PromFloat renders a float the way Prometheus text exposition expects.
func PromFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Quantile returns an upper-bound estimate of quantile q in seconds:
// the upper bound of the first bucket whose cumulative count reaches
// q×total. Returns 0 when the histogram is empty. As every sample in a
// bucket is <= its bound, the estimate never under-reports — the safe
// direction for an SLO readout.
func (h *Histogram) Quantile(q float64) float64 {
	var buf [HistBuckets + 1]uint64
	total := h.Cumulative(&buf)
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	for i := 0; i < HistBuckets; i++ {
		if buf[i] >= target {
			return BucketBound(i)
		}
	}
	// Overflow bucket: report the largest finite bound; the histogram
	// can't resolve beyond its range.
	return BucketBound(HistBuckets - 1)
}
