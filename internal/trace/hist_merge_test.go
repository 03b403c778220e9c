package trace_test

import (
	"testing"

	"aurora/internal/telemetry"
)

// Merge combines per-machine histograms into fleet percentiles. These
// tests pin the algebra (counts/sums add, envelopes widen) and the
// property the telemetry plane depends on: a merged quantile never
// escapes the combined [min, max] envelope of its inputs, and the
// fleet-wide estimate stays within the same 2x bucket error as the
// per-machine ones.

func TestHistogramQuantileCrossBucketInterpolation(t *testing.T) {
	// Samples split across two adjacent buckets: bucket 3 holds values
	// 4..7 (here 4,5,6,7), bucket 4 holds 8..15 (here 12). p50 must land
	// in the low bucket, p99 in the high one — the rank walk must cross
	// the bucket boundary, not collapse everything to one midpoint.
	h := telemetry.NewHistogram("x")
	for _, v := range []int64{4, 5, 6, 7, 12} {
		h.Add(v)
	}
	p50 := h.Quantile(0.50)
	if p50 < 4 || p50 > 7 {
		t.Fatalf("p50 = %d, want within low bucket [4,7]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 8 || p99 > 12 {
		t.Fatalf("p99 = %d, want within high bucket clamped to max [8,12]", p99)
	}
	if p50 >= p99 {
		t.Fatalf("quantiles not monotone across buckets: p50=%d p99=%d", p50, p99)
	}
}

func TestHistogramQuantileEmptyAndClamp(t *testing.T) {
	var empty *telemetry.Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("nil histogram quantile = %d, want 0", got)
	}
	h := telemetry.NewHistogram("e")
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	h.Add(100)
	if got := h.Quantile(-1); got != 100 {
		t.Fatalf("q<0 clamp: got %d, want 100", got)
	}
	if got := h.Quantile(2); got != 100 {
		t.Fatalf("q>1 clamp: got %d, want 100", got)
	}
}

func TestHistogramMergeAlgebra(t *testing.T) {
	a := telemetry.NewHistogram("fleet")
	for _, v := range []int64{10, 20, 30} {
		a.Add(v)
	}
	b := telemetry.NewHistogram("m1")
	for _, v := range []int64{5, 4000} {
		b.Add(v)
	}
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 5 || s.Sum != 10+20+30+5+4000 {
		t.Fatalf("merged count/sum: %+v", s)
	}
	if s.Min != 5 || s.Max != 4000 {
		t.Fatalf("merged envelope: %+v", s)
	}
	// Merging a nil or empty histogram changes nothing.
	before := a.Snapshot()
	a.Merge(nil)
	a.Merge(telemetry.NewHistogram("empty"))
	if a.Snapshot() != before {
		t.Fatalf("nil/empty merge mutated histogram: %+v vs %+v", a.Snapshot(), before)
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	// Merging into a fresh histogram must adopt the source min, not keep
	// the MaxInt64 sentinel.
	dst := telemetry.NewHistogram("fleet")
	src := telemetry.NewHistogram("m0")
	src.Add(42)
	dst.Merge(src)
	s := dst.Snapshot()
	if s.Min != 42 || s.Max != 42 || s.Count != 1 {
		t.Fatalf("merge into empty: %+v", s)
	}
}

// lcg is a tiny deterministic generator so the property sweep needs no
// seeding ceremony and no math/rand.
type lcg uint64

func (l *lcg) next() int64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int64(uint64(*l) >> 34) // 30-bit positive values
}

func TestHistogramMergePropertyBounds(t *testing.T) {
	// Property: for any partition of samples across N machines, every
	// quantile of the merged histogram is bounded by the combined
	// [min, max] of the inputs, quantiles are monotone in q, and the
	// merged histogram is identical to observing all samples directly
	// (merge is exact on this representation, not an approximation).
	rng := lcg(7)
	for trial := 0; trial < 50; trial++ {
		machines := int(rng.next()%4) + 2
		parts := make([]*telemetry.Histogram, machines)
		for i := range parts {
			parts[i] = telemetry.NewHistogram("m")
		}
		direct := telemetry.NewHistogram("direct")
		lo, hi := int64(1)<<62, int64(-1)
		n := int(rng.next()%200) + 1
		for i := 0; i < n; i++ {
			v := rng.next() % 1_000_000
			parts[int(rng.next())%machines].Add(v)
			direct.Add(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		merged := telemetry.NewHistogram("fleet")
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.Samples() != int64(n) {
			t.Fatalf("trial %d: merged count %d, want %d", trial, merged.Samples(), n)
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.50, 0.75, 0.95, 0.99, 1} {
			mq := merged.Quantile(q)
			if mq < lo || mq > hi {
				t.Fatalf("trial %d: q%.2f=%d escapes input envelope [%d,%d]", trial, q, mq, lo, hi)
			}
			if mq < prev {
				t.Fatalf("trial %d: quantiles not monotone at q=%.2f: %d < %d", trial, q, mq, prev)
			}
			prev = mq
			if dq := direct.Quantile(q); dq != mq {
				t.Fatalf("trial %d: merged q%.2f=%d differs from direct %d", trial, q, mq, dq)
			}
		}
	}
}
