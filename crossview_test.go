package aurora

import (
	"strings"
	"testing"
	"time"

	"aurora/internal/flight"
	"aurora/internal/trace"
)

// crossViewRun builds one machine with both observability halves on, runs
// incremental, full, and WAL checkpoints (fewer than the flight ring
// holds, so none is evicted), then crashes and restores. It returns the
// pre-crash machine (whose flight ring saw every checkpoint), the rebooted
// one (which shares the tracer and registry), and dev.submits as it stood
// before the restore issued any read.
func crossViewRun(t *testing.T) (pre, post *Machine, ckptSubmits int64) {
	t.Helper()
	cfg := Defaults()
	cfg.Trace, cfg.Telemetry = true, true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []CheckpointKind{CkptIncremental, CkptFull, CkptWAL, CkptWAL, CkptIncremental, CkptWAL, CkptFull}
	buf := make([]byte, 64)
	for i, kind := range kinds {
		buf[0] = byte(i + 1)
		for pg := 0; pg < 8*(i+1); pg++ {
			if err := p.WriteMem(va+uint64(pg)*PageSize, buf); err != nil {
				t.Fatal(err)
			}
		}
		m.Clock.Advance(time.Millisecond)
		if _, err := g.Checkpoint(kind); err != nil {
			t.Fatalf("checkpoint %d (%v): %v", i, kind, err)
		}
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Flight.Events()); n >= flight.DefaultCap {
		t.Fatalf("flight ring filled (%d events); checkpoint ends may be evicted", n)
	}
	ckptSubmits = m.Metrics.Counter("dev.submits").Value()
	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.Restore("app"); err != nil {
		t.Fatal(err)
	}
	return m, m2, ckptSubmits
}

// TestCrossViewConsistency checks that the three observability views —
// tracer spans, registry metrics, and the flight ring — tell the same
// story about one run.
func TestCrossViewConsistency(t *testing.T) {
	pre, m, ckptSubmits := crossViewRun(t)
	reg := m.Metrics

	var stopSum, collapseSum time.Duration
	var devWrites, devReads, collapsePages int64
	for _, ev := range m.Tracer.Events() {
		if ev.Kind != trace.KindSpan {
			continue
		}
		switch {
		case ev.Track == trace.TrackSLS && ev.Name == "stop":
			stopSum += ev.Dur
		case ev.Track == trace.TrackSLS && ev.Name == "collapse":
			collapseSum += ev.Dur
			for _, a := range ev.Args {
				if a.Key == "pages" {
					collapsePages += a.Val.(int64)
				}
			}
		case ev.Track == trace.TrackDevice && strings.HasPrefix(ev.Name, "dev.write"):
			devWrites++
		case ev.Track == trace.TrackDevice && ev.Name == "dev.read":
			devReads++
		}
	}
	stop := reg.HistogramCopy("sls.stop.ns").Snapshot()
	if stop.Count == 0 || time.Duration(stop.Sum) != stopSum {
		t.Errorf("stop spans sum to %v; sls.stop.ns sums to %v over %d samples",
			stopSum, time.Duration(stop.Sum), stop.Count)
	}
	collapse := reg.HistogramCopy("sls.collapse.ns").Snapshot()
	if collapse.Count == 0 || time.Duration(collapse.Sum) != collapseSum {
		t.Errorf("collapse spans sum to %v; sls.collapse.ns sums to %v over %d samples",
			collapseSum, time.Duration(collapse.Sum), collapse.Count)
	}
	if c := reg.Counter("sls.collapse.pages").Value(); c == 0 || c != collapsePages {
		t.Errorf("collapse spans carry %d pages; sls.collapse.pages = %d", collapsePages, c)
	}

	var ends int64
	for _, ev := range pre.Flight.Events() {
		if ev.Kind == flight.EvCheckpointEnd {
			ends++
		}
	}
	if total := reg.Counter("sls.ckpt.total").Value(); ends == 0 || ends != total {
		t.Errorf("flight has %d checkpoint ends; sls.ckpt.total = %d", ends, total)
	}

	// Checkpoints only write; the restore then adds its reads.
	if devWrites == 0 || devWrites != ckptSubmits {
		t.Errorf("device track has %d dev.write* spans; dev.submits before the restore = %d",
			devWrites, ckptSubmits)
	}
	if subs := reg.Counter("dev.submits").Value(); devReads == 0 || devWrites+devReads != subs {
		t.Errorf("device track has %d dev.write* + %d dev.read spans; dev.submits = %d",
			devWrites, devReads, subs)
	}

	// Inspect reads its counters from the same registry.
	var inspected int64 = -1
	for _, c := range m.Inspect(4).Counters {
		if c.Name == "sls.ckpt.total" {
			inspected = c.Value
		}
	}
	if inspected != ends {
		t.Errorf("Inspect reports sls.ckpt.total = %d, want %d", inspected, ends)
	}
}

// CrossViewRun exposes the cross-view workload to the external-package
// glossary test.
var CrossViewRun = crossViewRun
