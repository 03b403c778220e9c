package placement

// Observability tests: an instrumented coordinator turns placement
// decisions into fleet-lane spans, fleet counters, and a failover-latency
// histogram, and the kill -> failover -> promote chain is stitched across
// machine tracks by matching flow ids.

import (
	"strings"
	"testing"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// newTracedFleet is newFleet with tracing and telemetry enabled on every
// machine and the coordinator instrumented.
func newTracedFleet(t *testing.T, n int, cfg Config) (*fleet, *trace.Tracer, *telemetry.Registry) {
	t.Helper()
	f := &fleet{clk: clock.NewVirtual(), procs: make(map[string]*aurora.Proc)}
	f.c = New(f.clk, cfg)
	for i := 0; i < n; i++ {
		name := "aur" + string(rune('0'+i))
		m, err := aurora.NewMachine(aurora.Config{
			Name: name, StorageBytes: 64 << 20, Clock: f.clk,
			Trace: true, Telemetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.c.AddMachine(name, m); err != nil {
			t.Fatal(err)
		}
		f.ms = append(f.ms, m)
		f.names = append(f.names, name)
	}
	tr := trace.New(f.clk)
	reg := telemetry.New(f.clk)
	f.c.Instrument(tr, reg)
	return f, tr, reg
}

func findEvent(evs []trace.Event, name string) (trace.Event, bool) {
	for _, ev := range evs {
		if ev.Name == name {
			return ev, true
		}
	}
	return trace.Event{}, false
}

func flowArg(ev trace.Event, key string) (int64, bool) {
	for _, a := range ev.Args {
		if a.Key == key {
			if v, ok := a.Val.(int64); ok {
				return v, true
			}
		}
	}
	return 0, false
}

func TestFailoverSpansAndFlowChain(t *testing.T) {
	f, tr, reg := newTracedFleet(t, 3, Config{
		SyncEvery:      2 * time.Millisecond,
		HeartbeatEvery: 1 * time.Millisecond,
	})
	f.start(t, "g0", 0)
	f.run(t, 10, time.Millisecond)

	killAt := f.clk.Now()
	if err := f.c.KillMachine("aur0"); err != nil {
		t.Fatal(err)
	}
	evs := f.run(t, 20, time.Millisecond)
	var failedOver bool
	for _, e := range evs {
		if e.Kind == EvFailover {
			failedOver = true
		}
	}
	if !failedOver {
		t.Fatal("no failover after kill")
	}

	// The coordinator's lane carries the decision spans.
	fo, ok := findEvent(tr.Events(), "fleet.failover")
	if !ok {
		t.Fatal("no fleet.failover span on coordinator tracer")
	}
	if fo.Track != trace.TrackFleet {
		t.Fatalf("fleet.failover on track %v, want fleet", fo.Track)
	}
	if _, ok := findEvent(tr.Events(), "fleet.heartbeat"); !ok {
		t.Fatal("no fleet.heartbeat span")
	}
	if _, ok := findEvent(tr.Events(), "fleet.dead"); !ok {
		t.Fatal("no fleet.dead instant")
	}

	// The flow chain: failover span carries flow_out, the promoted
	// machine's tracer carries the matching flow_in.
	out, ok := flowArg(fo, telemetry.FlowOut)
	if !ok {
		t.Fatal("fleet.failover span has no flow_out")
	}
	a, _ := f.c.Assignment("g0")
	newPrimary, _ := f.c.Node(a.Primary)
	promote, ok := findEvent(newPrimary.M.Tracer.Events(), "fleet.promote")
	if !ok {
		t.Fatalf("no fleet.promote instant on promoted machine %s", a.Primary)
	}
	in, ok := flowArg(promote, telemetry.FlowIn)
	if !ok {
		t.Fatal("fleet.promote has no flow_in")
	}
	if in != out {
		t.Fatalf("flow ids disagree: out=%d in=%d", out, in)
	}

	// Fleet metrics: death + failover counters, latency histogram anchored
	// at the ground-truth kill time.
	if got := reg.Counter("fleet.deaths").Value(); got != 1 {
		t.Fatalf("fleet.deaths = %d, want 1", got)
	}
	if got := reg.Counter("fleet.failovers").Value(); got != 1 {
		t.Fatalf("fleet.failovers = %d, want 1", got)
	}
	if got := reg.Counter("fleet.reseeds").Value(); got < 2 {
		t.Fatalf("fleet.reseeds = %d, want >= 2 (initial seed + post-failover)", got)
	}
	h := reg.HistogramCopy("fleet.failover.ns")
	if h == nil || h.Samples() != 1 {
		t.Fatalf("fleet.failover.ns samples = %v, want 1", h)
	}
	if fo.Start < killAt {
		t.Fatalf("failover span at %v predates kill at %v", fo.Start, killAt)
	}
	// Detection needs DeadAfterMisses probes, so the measured latency must
	// cover at least that window.
	minLat := int64(time.Duration(f.c.cfg.DeadAfterMisses) * f.c.cfg.HeartbeatEvery)
	if q := h.Quantile(1); q < minLat/2 {
		t.Fatalf("failover latency %d too small for a %d-miss detector", q, f.c.cfg.DeadAfterMisses)
	}
}

// TestSpanArgsReachTimeline pins that args known when a span opens reach
// the recorded event: spans carry every arg at End, on every path that
// closes them.
func TestSpanArgsReachTimeline(t *testing.T) {
	f, tr, _ := newTracedFleet(t, 3, Config{
		SyncEvery:      2 * time.Millisecond,
		HeartbeatEvery: 1 * time.Millisecond,
	})
	f.start(t, "g0", 0)
	f.run(t, 10, time.Millisecond)
	if err := f.c.KillMachine("aur0"); err != nil {
		t.Fatal(err)
	}
	f.run(t, 20, time.Millisecond)

	arg := func(ev trace.Event, key string) any {
		for _, a := range ev.Args {
			if a.Key == key {
				return a.Val
			}
		}
		return nil
	}
	fo, ok := findEvent(tr.Events(), "fleet.failover")
	if !ok {
		t.Fatal("no fleet.failover span")
	}
	if arg(fo, "group") != "g0" || arg(fo, "from") != "aur0" || arg(fo, "to") == nil {
		t.Fatalf("fleet.failover args: %+v", fo.Args)
	}
	ckpt, ok := findEvent(f.ms[0].Tracer.Events(), "checkpoint")
	if !ok {
		t.Fatal("no checkpoint span on the primary")
	}
	if _, ok := arg(ckpt, "kind").(int64); !ok {
		t.Fatalf("checkpoint span has no kind: %+v", ckpt.Args)
	}
}

func TestStatusRendersSLOBreaches(t *testing.T) {
	f, _, reg := newTracedFleet(t, 2, Config{})
	f.start(t, "g0", 0)
	w := telemetry.NewWatch([]telemetry.SLO{
		{Name: "ops-max", Metric: "ops", Kind: telemetry.SLOMaxUnder, Bound: 5},
	})
	f.c.WatchSLO(w)
	if !strings.Contains(f.c.Status(), "slo: 0 breaches") {
		t.Fatalf("status missing clean slo line:\n%s", f.c.Status())
	}
	reg.Record("ops", telemetry.AggMax, 9)
	w.Eval(reg, f.clk.Now())
	st := f.c.Status()
	if !strings.Contains(st, "slo: 1 breaches") || !strings.Contains(st, "ops-max") {
		t.Fatalf("status missing breach:\n%s", st)
	}
}

func TestLoadGaugesTrackPrimaries(t *testing.T) {
	f, _, reg := newTracedFleet(t, 2, Config{HeartbeatEvery: time.Millisecond})
	f.start(t, "g0", 0)
	f.run(t, 3, time.Millisecond)
	if got := reg.Gauge("fleet.alive").Value(); got != 2 {
		t.Fatalf("fleet.alive = %d, want 2", got)
	}
	if got := reg.Gauge("fleet.load.aur0").Value(); got <= 0 {
		t.Fatalf("fleet.load.aur0 = %d, want > 0", got)
	}
	if got := reg.Gauge("fleet.load.aur1").Value(); got != 0 {
		t.Fatalf("fleet.load.aur1 = %d, want 0 (standby only)", got)
	}
}

// newIslandFleet builds n machines each on its own clock, as the scenario
// engine runs them, under a coordinator on a separate fleet clock, and
// manages group g0 on the first machine.
func newIslandFleet(t *testing.T, n int, cfg Config) (*clock.Virtual, *Coordinator, *telemetry.Registry, []*aurora.Machine) {
	t.Helper()
	fleetClk := clock.NewVirtual()
	c := New(fleetClk, cfg)
	reg := telemetry.New(fleetClk)
	c.Instrument(nil, reg)
	var ms []*aurora.Machine
	for i := 0; i < n; i++ {
		name := "aur" + string(rune('0'+i))
		m, err := aurora.NewMachine(aurora.Config{Name: name, StorageBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddMachine(name, m); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	p := ms[0].Spawn("g0")
	if _, err := p.Mmap(appRegion, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ms[0].Attach("g0", p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Manage("g0", "aur0", nil); err != nil {
		t.Fatal(err)
	}
	return fleetClk, c, reg, ms
}

// TestFailoverLatencyCountsPromoteOnSeparateClocks: the promote (the
// standby's restore) advances only the standby's clock, never the
// coordinator's, so fleet.failover.ns must add the restore's own time to
// the detection window rather than read both off the coordinator clock.
func TestFailoverLatencyCountsPromoteOnSeparateClocks(t *testing.T) {
	fleetClk, c, reg, ms := newIslandFleet(t, 2, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	tick := func() []Event {
		fleetClk.Advance(time.Millisecond)
		return c.Tick()
	}
	for i := 0; i < 5; i++ {
		tick()
	}

	killAt := fleetClk.Now()
	if err := c.KillMachine("aur0"); err != nil {
		t.Fatal(err)
	}
	var detected, promote time.Duration
	for i := 0; i < 20 && detected == 0; i++ {
		before := ms[1].Clock.Now()
		for _, e := range tick() {
			if e.Kind == EvFailover {
				detected = e.At - killAt
				promote = ms[1].Clock.Now() - before
			}
		}
	}
	if detected == 0 {
		t.Fatal("no failover after kill")
	}
	if promote <= 0 {
		t.Fatal("the promote did not advance the standby's clock")
	}
	h := reg.HistogramCopy("fleet.failover.ns")
	if h == nil || h.Samples() != 1 {
		t.Fatalf("fleet.failover.ns samples = %v, want 1", h)
	}
	if got, want := time.Duration(h.Quantile(1)), detected+promote; got != want {
		t.Fatalf("fleet.failover.ns = %v, want detection %v + promote %v = %v", got, detected, promote, want)
	}
}

// TestMigrateLatencyReadsMachineClocks: a migration runs on the source's
// and the target's clocks, so fleet.migrate.ns must come from them — the
// coordinator's clock does not move during the move.
func TestMigrateLatencyReadsMachineClocks(t *testing.T) {
	fleetClk, c, reg, ms := newIslandFleet(t, 3, Config{})
	before := fleetClk.Now()
	srcStart, dstStart := ms[0].Clock.Now(), ms[2].Clock.Now()
	if _, err := c.MigrateGroup("g0", "aur2"); err != nil {
		t.Fatal(err)
	}
	if fleetClk.Now() != before {
		t.Fatalf("the migration moved the coordinator clock by %v", fleetClk.Now()-before)
	}
	h := reg.HistogramCopy("fleet.migrate.ns")
	if h == nil || h.Samples() != 1 {
		t.Fatalf("fleet.migrate.ns samples = %v, want 1", h)
	}
	// The reseed after the move also runs on the target's clock, so the
	// two clocks together advanced at least the measured move.
	got := time.Duration(h.Quantile(1))
	spent := ms[0].Clock.Now() - srcStart + ms[2].Clock.Now() - dstStart
	if got <= 0 || got > spent {
		t.Fatalf("fleet.migrate.ns = %v, want in (0, %v]", got, spent)
	}
}
