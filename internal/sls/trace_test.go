package sls

import (
	"testing"
	"time"

	"aurora/internal/telemetry"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// tracedWorld wires a tracer and a metrics registry through every layer of
// a fresh world, the way aurora.Config{Trace: true, Telemetry: true} does
// for a Machine.
func tracedWorld(t *testing.T) (*world, *trace.Tracer, *telemetry.Registry) {
	t.Helper()
	w := newWorld(t)
	tr := trace.New(w.clk)
	reg := telemetry.New(w.clk)
	w.dev.Instrument(tr, reg)
	retrace(w, tr, reg)
	return w, tr, reg
}

// retrace carries the tracer and registry across a crash into the
// rebooted world.
func retrace(w *world, tr *trace.Tracer, reg *telemetry.Registry) {
	w.store.Instrument(tr, reg)
	w.o.Instrument(tr, reg)
}

func argOf(ev trace.Event, key string) (any, bool) {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return nil, false
}

func spansNamed(evs []trace.Event, name string) []trace.Event {
	var out []trace.Event
	for _, e := range evs {
		if e.Kind == trace.KindSpan && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// TestTraceCheckpointSpanTree is the tentpole's acceptance check: a traced
// checkpoint produces a span tree covering the sls, objstore, and device
// layers, and the stop-the-world span's children tile the stop window —
// their durations sum to CheckpointStats.StopTime within 1%.
func TestTraceCheckpointSpanTree(t *testing.T) {
	w, tr, reg := tracedWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(4<<20, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 200; i++ {
		if err := p.WriteMem(va+uint64(i)*vm.PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	evs := tr.Events()

	// Coverage: the tree must have spans on every layer it claims to trace.
	for _, track := range []trace.Track{trace.TrackSLS, trace.TrackFlush, trace.TrackObjstore, trace.TrackDevice} {
		found := false
		for _, e := range evs {
			if e.Kind == trace.KindSpan && e.Track == track {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no spans on track %v", track)
		}
	}

	ckpts := spansNamed(evs, "checkpoint")
	if len(ckpts) != 1 {
		t.Fatalf("checkpoint spans = %d, want 1", len(ckpts))
	}
	ckpt := ckpts[0]
	if kind, ok := argOf(ckpt, "kind"); !ok || kind != int64(CkptIncremental) {
		t.Errorf("checkpoint span kind arg = %v, %v; want %d", kind, ok, CkptIncremental)
	}
	stops := spansNamed(evs, "stop")
	if len(stops) != 1 || stops[0].Parent != ckpt.ID {
		t.Fatalf("stop span: %+v (checkpoint id %d)", stops, ckpt.ID)
	}
	stop := stops[0]
	if stop.Dur != st.StopTime {
		t.Errorf("stop span dur %v, stats StopTime %v", stop.Dur, st.StopTime)
	}

	// The four stop children tile the window: no gaps, no overlap.
	var sum time.Duration
	for _, name := range []string{"quiesce", "serialize", "writeback", "shadow"} {
		sp := spansNamed(evs, name)
		if len(sp) != 1 {
			t.Fatalf("%s spans = %d, want 1", name, len(sp))
		}
		if sp[0].Parent != stop.ID {
			t.Errorf("%s parent = %d, want stop %d", name, sp[0].Parent, stop.ID)
		}
		sum += sp[0].Dur
	}
	diff := sum - st.StopTime
	if diff < 0 {
		diff = -diff
	}
	if st.StopTime <= 0 || diff*100 > st.StopTime {
		t.Errorf("stop children sum %v vs StopTime %v (off by %v, >1%%)", sum, st.StopTime, diff)
	}

	// Flush rides under the checkpoint; commit spans live on the objstore
	// track with the durable window recorded.
	flushes := spansNamed(evs, "flush")
	if len(flushes) != 1 || flushes[0].Parent != ckpt.ID {
		t.Fatalf("flush span: %+v", flushes)
	}
	if len(spansNamed(evs, "commit")) == 0 || len(spansNamed(evs, "commit.window")) == 0 {
		t.Error("objstore commit spans missing")
	}
	if len(spansNamed(evs, "durable.window")) == 0 {
		t.Error("durable.window span missing")
	}

	// Registry counters must agree with the stats the checkpoint reported.
	if got := reg.Counter("sls.ckpt.total").Value(); got != 1 {
		t.Errorf("sls.ckpt.total = %d", got)
	}
	if got := reg.Counter("sls.dirty_pages").Value(); got != st.DirtyPages {
		t.Errorf("sls.dirty_pages = %d, stats %d", got, st.DirtyPages)
	}
	if got := reg.Counter("sls.flush_bytes").Value(); got != st.FlushBytes {
		t.Errorf("sls.flush_bytes = %d, stats %d", got, st.FlushBytes)
	}
	if reg.Counter("dev.submits").Value() == 0 || reg.Counter("dev.bytes").Value() == 0 {
		t.Error("device counters empty")
	}
}

// TestLazyRestorePageInCounters is the RestoreStats bugfix regression:
// page-ins served by the store pager AFTER RestoreGroup returns must be
// visible — through Group.LazyPageIns and the registry counters — even though
// the point-in-time RestoreStats cannot see them.
func TestLazyRestorePageInCounters(t *testing.T) {
	w, tr, reg := tracedWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	const pages = 32
	va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < pages; i++ {
		buf[0] = byte(i + 1)
		if err := p.WriteMem(va+uint64(i)*vm.PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	retrace(w2, tr, reg)
	g2, rst, err := w2.o.RestoreGroup("app", w2.store, RestoreLazy, true)
	if err != nil {
		t.Fatal(err)
	}
	if faults, _ := g2.LazyPageIns(); faults != 0 {
		t.Fatalf("lazy faults before any touch = %d", faults)
	}

	// Touch every page: each first touch faults through storePager.PageIn.
	rp := g2.Procs()[0]
	got := make([]byte, 8)
	for i := 0; i < pages; i++ {
		if err := rp.ReadMem(va+uint64(i)*vm.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("page %d content %d, want %d", i, got[0], i+1)
		}
	}
	faults, bytes := g2.LazyPageIns()
	if faults != pages {
		t.Errorf("lazy faults = %d, want %d (RestoreStats alone reported %d eager pages)",
			faults, pages, rst.PagesEager)
	}
	if bytes != pages*vm.PageSize {
		t.Errorf("lazy bytes = %d, want %d", bytes, pages*vm.PageSize)
	}
	if got := reg.Counter("sls.pagein.faults").Value(); got != pages {
		t.Errorf("registry sls.pagein.faults = %d, want %d", got, pages)
	}
	if got := reg.Counter("sls.pagein.bytes").Value(); got != pages*vm.PageSize {
		t.Errorf("registry sls.pagein.bytes = %d, want %d", got, pages*vm.PageSize)
	}
	if len(spansNamed(tr.Events(), "restore")) != 1 {
		t.Error("restore span missing")
	}
}

// TestNilTracerOverheadGuard bounds the disabled-tracing cost: the per-hook
// price is one nil pointer check, so (hook count × per-hook cost) for a
// representative checkpoint must stay under 3% of that checkpoint's host
// time. Hook count comes from an enabled run (every recorded event and
// registry histogram sample passed through exactly one hook site; counter
// and gauge updates ride alongside them), padded 4x for guarded sites that
// bail before recording anything.
func TestNilTracerOverheadGuard(t *testing.T) {
	var nilTr *trace.Tracer
	sink := 0
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if nilTr != nil {
				sink++
			}
		}
	})
	if sink != 0 {
		t.Fatal("nil tracer was not nil")
	}
	perHookNs := float64(res.T.Nanoseconds()) / float64(res.N)

	workload := func(w *world) (*Group, error) {
		p := w.k.NewProc("app")
		g := w.o.CreateGroup("app")
		if err := g.Attach(p); err != nil {
			return nil, err
		}
		va, err := p.Mmap(4<<20, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 64)
		for i := 0; i < 512; i++ {
			if err := p.WriteMem(va+uint64(i)*vm.PageSize, buf); err != nil {
				return nil, err
			}
		}
		return g, nil
	}

	// Enabled run: count what one checkpoint records.
	wt, tr, reg := tracedWorld(t)
	gt, err := workload(wt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gt.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	hooks := len(tr.Events())
	for _, h := range reg.Snapshot("").Histograms {
		hooks += int(h.Count)
	}
	hooks *= 4

	// Disabled run: host time of the same checkpoint with no tracer.
	wn := newWorld(t)
	gn, err := workload(wn)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := gn.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	host := time.Since(t0)

	overheadNs := perHookNs * float64(hooks)
	if limit := 0.03 * float64(host.Nanoseconds()); overheadNs > limit {
		t.Fatalf("disabled-tracer overhead %.0fns (%d hooks × %.2fns) exceeds 3%% of checkpoint host time %v",
			overheadNs, hooks, perHookNs, host)
	}
}
