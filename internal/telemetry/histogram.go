// Log-linear-bucket histogram: fixed memory, lock-free recording,
// bounded relative error — the HDR-histogram shape, sized for latency
// distributions.
//
// The bucket layout in one paragraph: values 0..15 each get their own
// bucket (exact at the bottom, where a log scheme would waste
// resolution); above that, each power-of-two octave [2^k, 2^(k+1)) is
// split into 4 linear sub-buckets, so a bucket's width is at most 1/4
// of its lower bound and any reported quantile is within +25% of the
// true order statistic. 16 + 59*4 = 252 buckets cover the full int64
// range in 2 KiB of atomics; recording is one bits.Len64, one shift,
// and two atomic adds. The count is the buckets' sum, read when it is
// wanted: recorders that share a histogram across CPUs contend on one
// line fewer.
//
// A histogram is one or more cells, each a whole bucket array with its
// own sum and extremes. Recorders that run on different CPUs all the
// time (papid's sweep workers) each observe into a cell of their own,
// so none writes a cache line another writes; every read sums the
// cells, the way Count already sums the buckets, so the exposition
// cannot tell one cell from many.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// linearMax is the exclusive upper bound of the one-value-per-bucket
// linear region.
const linearMax = 16

// subBits is log2 of the per-octave sub-bucket count.
const subBits = 2

// numBuckets covers int64: 16 linear + (63-4)*4 log-linear.
const numBuckets = linearMax + (63-4)<<subBits

// Histogram is a concurrent log-linear-bucket distribution. The zero
// value is not usable; histograms come from a Registry.
type Histogram struct {
	desc desc
	// scale converts recorded raw values into the exposition unit
	// (1e-9 for nanosecond recordings exposed as seconds).
	scale float64

	cells []histCell
}

// histCell is one recorder's share of a histogram.
type histCell struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	// The pad keeps the next cell's first buckets off the line this
	// cell's sum and extremes end on.
	_ [64]byte
}

func newHistogram(d desc, scale float64, cells int) *Histogram {
	h := &Histogram{desc: d, scale: scale, cells: make([]histCell, max(cells, 1))}
	for i := range h.cells {
		h.cells[i].min.Store(math.MaxInt64)
		h.cells[i].max.Store(math.MinInt64) // so clamped negatives report their true max
	}
	return h
}

// bucketFor maps a value to its bucket index. Negative values clamp
// into bucket 0 — durations are never negative, but a clock step must
// not corrupt the distribution.
func bucketFor(v int64) int {
	if v < linearMax {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // octave: 2^k <= v < 2^(k+1), k >= 4
	sub := int(v>>(uint(k)-subBits)) & (1<<subBits - 1)
	return linearMax + (k-4)<<subBits + sub
}

// bucketUpper returns the inclusive upper bound of bucket i — the
// value Quantile reports for ranks landing in it.
func bucketUpper(i int) int64 {
	if i < linearMax {
		return int64(i)
	}
	i -= linearMax
	k := uint(i>>subBits) + 4
	sub := int64(i&(1<<subBits-1)) + 1
	upper := int64(1)<<k + sub<<(k-subBits) - 1
	if upper < 0 { // top octave overflows; clamp
		return math.MaxInt64
	}
	return upper
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i == 0 {
		return math.MinInt64 // negative clamps land here
	}
	return bucketUpper(i-1) + 1
}

// Observe records one value in the histogram's first cell.
func (h *Histogram) Observe(v int64) { h.cells[0].observe(v) }

// ObserveAt records one value in cell i, which must be below the cell
// count the histogram was registered with.
func (h *Histogram) ObserveAt(i int, v int64) { h.cells[i].observe(v) }

func (c *histCell) observe(v int64) {
	c.buckets[bucketFor(v)].Add(1)
	c.sum.Add(v)
	for {
		cur := c.min.Load()
		if v >= cur || c.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := c.max.Load()
		if v <= cur || c.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() (n uint64) {
	for c := range h.cells {
		for i := range h.cells[c].buckets {
			n += h.cells[c].buckets[i].Load()
		}
	}
	return n
}

// sumAll is the sum of every observation, over the cells.
func (h *Histogram) sumAll() (sum int64) {
	for c := range h.cells {
		sum += h.cells[c].sum.Load()
	}
	return sum
}

// counts writes the cells' summed buckets into counts and returns
// their total.
func (h *Histogram) counts(counts *[numBuckets]uint64) (total uint64) {
	first := &h.cells[0].buckets
	for i := range first {
		counts[i] = first[i].Load()
		total += counts[i]
	}
	for c := 1; c < len(h.cells); c++ {
		b := &h.cells[c].buckets
		for i := range b {
			n := b[i].Load()
			counts[i] += n
			total += n
		}
	}
	return total
}

// Summary is the compact distribution view that rides the wire STATS
// op and the /statusz document: observation count, sum, extremes, and
// the standard latency quantiles, all in the histogram's raw recording
// unit (nanoseconds for latency histograms). Quantiles are bucket
// upper bounds — within +25% of the true order statistic, clamped to
// the observed max.
type Summary struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// Mean returns Sum/Count, or 0 before any observation.
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary extracts the quantile summary. Like every read of a live
// histogram it is a relaxed snapshot: observations racing the read may
// be partially included, which monitoring tolerates by construction.
func (h *Histogram) Summary() Summary {
	var counts [numBuckets]uint64
	total := h.counts(&counts)
	if total == 0 {
		return Summary{}
	}
	s := Summary{Count: total, Sum: h.sumAll(), Min: math.MaxInt64, Max: math.MinInt64}
	for c := range h.cells {
		s.Min = min(s.Min, h.cells[c].min.Load())
		s.Max = max(s.Max, h.cells[c].max.Load())
	}
	s.P50 = quantile(&counts, total, 0.50, s.Max)
	s.P90 = quantile(&counts, total, 0.90, s.Max)
	s.P99 = quantile(&counts, total, 0.99, s.Max)
	return s
}

// quantile walks the cumulative bucket counts to the bucket holding
// the q-th order statistic and reports its upper bound, clamped to the
// observed maximum (the top occupied bucket's bound can overshoot the
// largest value actually recorded).
func quantile(counts *[numBuckets]uint64, total uint64, q float64, observedMax int64) int64 {
	// rank is 1-based: the ceil(q*total)-th smallest observation.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			v := bucketUpper(i)
			if v > observedMax {
				v = observedMax
			}
			return v
		}
	}
	return observedMax
}

// forBuckets visits the non-empty prefix of the cumulative
// distribution for exposition: every occupied bucket's (upperBound,
// cumulativeCount), in ascending order. The Prometheus writer turns
// these into _bucket{le=...} lines. It returns the total, the
// observation count the visits add up to.
func (h *Histogram) forBuckets(visit func(upper int64, cum uint64)) (total uint64) {
	var counts [numBuckets]uint64
	h.counts(&counts)
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		visit(bucketUpper(i), cum)
	}
	return cum
}
