package telemetry

import "math/bits"

// Histogram is a log2-bucketed distribution: bucket i holds values whose
// bit length is i, so relative error is bounded by 2x — plenty for
// latency rollups spanning nanoseconds to seconds. Per-machine and
// fleet-merged quantiles share this one implementation and error bound.
// Not synchronized; the Registry serializes access to the ones it owns.
type Histogram struct {
	name    string
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [65]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: int64(^uint64(0) >> 1)}
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

// Add records one observation. Negative values clamp to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(uint64(v))]++
}

// Samples returns the observation count.
func (h *Histogram) Samples() int64 { return h.count }

// Quantile returns the bucket-midpoint estimate for q in [0, 1], clamped
// into [min, max]. An empty or nil histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			hi := int64(1)<<i - 1
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Merge folds o into h: counts, sums, and buckets add; min/max widen.
// Because both sides bucket by bit length, merged quantiles stay within
// the same 2x relative-error bound and are always bounded by the inputs'
// combined [min, max] envelope. A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// HistSnapshot is a read-only summary of one histogram.
type HistSnapshot struct {
	Name          string
	Count         int64
	Sum           int64
	Min, Max      int64
	P50, P95, P99 int64
}

// Snapshot returns the read-only summary (count, sum, min/max, p50/95/99).
// An empty histogram reports all zeros, not the min sentinel.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		s.Min = 0
		return s
	}
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	return s
}
