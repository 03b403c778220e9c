package trace_test

// Tests that need both halves of the observability split: the tracer
// keeps spans and instants, the telemetry registry keeps every counter,
// gauge, and histogram. The `sls trace` rollup prints one after the other.

import (
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

func TestCountersAndGauges(t *testing.T) {
	reg := telemetry.New(clock.NewVirtual())
	reg.Counter("dev.submits").Add(1)
	reg.Counter("dev.submits").Add(2)
	reg.Gauge("objstore.wal_head").Set(7)
	if got := reg.Counter("dev.submits").Value(); got != 3 {
		t.Errorf("counter=%d, want 3", got)
	}
	if got := reg.Gauge("objstore.wal_head").Value(); got != 7 {
		t.Errorf("gauge=%d, want 7", got)
	}
	cs := reg.Snapshot("").Counters
	if len(cs) != 1 || cs[0].Name != "dev.submits" || cs[0].Value != 3 {
		t.Errorf("counters snapshot: %+v", cs)
	}
	// A counter never touched reads zero; reading it registers it.
	if got := reg.Counter("missing").Value(); got != 0 {
		t.Errorf("missing counter=%d, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := telemetry.NewHistogram("lat")
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("summary: %+v", s)
	}
	// Log2 buckets bound relative error by 2x.
	if s.P50 < 250 || s.P50 > 1000 {
		t.Errorf("p50=%d out of [250,1000]", s.P50)
	}
	if s.P99 < 500 || s.P99 > 1000 {
		t.Errorf("p99=%d out of [500,1000]", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone: %d %d %d", s.P50, s.P95, s.P99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := telemetry.NewHistogram("x")
	h.Add(42)
	s := h.Snapshot()
	if s.Min != 42 || s.Max != 42 || s.P50 != 42 || s.P99 != 42 {
		t.Errorf("single-value summary: %+v", s)
	}
}

func TestRollupAndTail(t *testing.T) {
	clk := clock.NewVirtual()
	tr := trace.New(clk)
	reg := telemetry.New(clk)
	s := tr.Begin(trace.TrackSLS, "checkpoint")
	clk.Advance(time.Millisecond)
	s.End()
	reg.Observe("dev.settle_ns", 1000)
	reg.Counter("dev.submits").Add(1)
	roll := tr.Rollup()
	if !strings.Contains(roll, "checkpoint") {
		t.Errorf("span rollup missing checkpoint:\n%s", roll)
	}
	metrics := reg.Rollup()
	for _, want := range []string{"dev.settle_ns", "dev.submits"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics rollup missing %q:\n%s", want, metrics)
		}
		if strings.Contains(roll, want) {
			t.Errorf("span rollup carries metric %q:\n%s", want, roll)
		}
	}
	tail := tr.TimelineTail(10)
	if !strings.Contains(tail, "checkpoint") {
		t.Errorf("tail missing span:\n%s", tail)
	}
	if got := strings.Count(tr.TimelineTail(1), "\n"); got != 1 {
		t.Errorf("tail(1) lines=%d, want 1", got)
	}
}
