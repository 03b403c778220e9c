package scenario

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/net"
	"aurora/internal/placement"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// RunOptions tune one scenario execution.
type RunOptions struct {
	// Seed overrides the scenario's declared seed (0 keeps it; a scenario
	// with no seed defaults to 1).
	Seed int64
	// Stretch multiplies the scenario timeline — the duration, every
	// event's fire time, and partition windows — so a nightly soak run
	// keeps the same relative event script over a longer steady state
	// (cadences are rates and stay put, so a stretched run checkpoints
	// and syncs proportionally more). 0 and 1 both mean no stretching.
	Stretch int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// machineState is one fleet member at its current incarnation. The aurora
// Machine pointer is replaced on every reboot; declarations and bindings
// reference this wrapper so they always see the live incarnation.
type machineState struct {
	decl MachineDecl
	m    *aurora.Machine
	// dead marks a machine-dies event: unlike a power cut there is no
	// reboot — the machine is gone for the rest of the scenario and the
	// placement coordinator has to notice on its own.
	dead bool
}

// groupState is one workload's live binding.
type groupState struct {
	decl  WorkloadDecl
	host  *machineState
	g     *aurora.Group // nil for filebench (no consistency group)
	app   appBinding
	alive bool

	ops          int64
	ckpts        int64
	walCommits   int64
	lastCkptMS   int64
	rollbacks    int64 // speculative restores that fell back to serial
	stopTimes    []time.Duration
	restoreTimes []time.Duration
	// durableWindows is, per checkpoint, the span from checkpoint start to
	// the commit being durable on media — the loss window WAL-first commit
	// is designed to shrink.
	durableWindows []time.Duration
}

// replState is one declared replication's live handle.
type replState struct {
	decl  ReplDecl
	rep   *aurora.Replica
	conn  *net.Conn
	to    *machineState
	alive bool

	lastSyncMS int64
}

type runner struct {
	sc   *Scenario
	opts RunOptions
	seed int64
	clk  *clock.Virtual

	machines     map[string]*machineState
	machineOrder []string
	groups       map[string]*groupState
	groupOrder   []string
	repls        map[string]*replState
	replOrder    []string

	// coord is the fleet coordinator, non-nil when the scenario declares a
	// placement block; it owns every group's standby.
	coord *placement.Coordinator

	// tele is the metrics plane, non-nil when the scenario declares a
	// telemetry block.
	tele *teleState

	res *Result
}

// teleState is the runner's metrics plane: one registry per machine (hung
// off aurora.Machine by Config.Telemetry), one SLO watch per registry, a
// separate registry+tracer for the placement coordinator, and the fleet
// aggregation the snapshot and metric assertions read.
type teleState struct {
	decl  *TelemetryDecl
	rules []telemetry.SLO
	fleet *telemetry.Fleet
	// watches evaluates rules per machine; the coordinator's registry gets
	// its own watch so fleet.* metrics are judged where they live.
	watches    map[string]*telemetry.Watch
	coordReg   *telemetry.Registry
	coordTr    *trace.Tracer
	coordWatch *telemetry.Watch
	lastSample int64 // virtual ms of the last sampler tick
}

// sloRules compiles the declared objectives into engine rules, in
// declaration order.
func sloRules(decl *TelemetryDecl) []telemetry.SLO {
	rules := make([]telemetry.SLO, 0, len(decl.SLOs))
	for _, sd := range decl.SLOs {
		var kind telemetry.SLOKind
		switch sd.Kind {
		case SLOP99Under:
			kind = telemetry.SLOP99Under
		case SLOMaxUnder:
			kind = telemetry.SLOMaxUnder
		case SLOFinalAtLeast:
			kind = telemetry.SLOFinalAtLeast
		}
		rules = append(rules, telemetry.SLO{
			Name: sd.Name, Metric: sd.Metric, Kind: kind, Bound: sd.Bound,
		})
	}
	return rules
}

// Run executes a validated scenario and returns its Result. Setup failures
// (a machine that cannot boot, a workload that cannot bind) return an
// error; runtime failures during the timeline are recorded in the Result
// and judged by the assertions.
func Run(sc *Scenario, opts RunOptions) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &runner{
		sc:       sc,
		opts:     opts,
		machines: make(map[string]*machineState),
		groups:   make(map[string]*groupState),
		repls:    make(map[string]*replState),
	}
	r.seed = opts.Seed
	if r.seed == 0 {
		r.seed = sc.Seed
	}
	if r.seed == 0 {
		r.seed = 1
	}
	r.res = &Result{Scenario: sc.Name, Seed: r.seed, Expect: sc.Expect}
	if r.res.Expect == "" {
		r.res.Expect = ExpectPass
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.drive()
	r.finish()
	return r.res, nil
}

func (r *runner) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// subseed derives a component seed from the scenario seed and a stable
// label, so each machine, generator, and wire has an independent PRNG
// stream that does not shift when unrelated declarations change.
func subseed(base int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, label)
	s := int64(h.Sum64() & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

func (r *runner) setup() error {
	// Each machine runs on its own virtual clock, so the work of N machines
	// overlaps instead of adding up; r.clk is the fleet timeline the events,
	// the coordinator, and the tick targets read. The barrier that ends
	// every tick realigns them all (see barrier).
	r.clk = clock.NewVirtual()
	for _, md := range r.sc.Machines {
		storage := md.StorageMB << 20
		if storage == 0 {
			storage = 256 << 20
		}
		cfg := aurora.Config{
			Name:         md.Name,
			StorageBytes: storage,
			Trace:        md.Trace,
			Telemetry:    r.sc.Telemetry != nil,
			// Every scenario machine carries a (disarmed) fault device so
			// events can cut power or rot media at any point.
			Fault: &aurora.FaultPlan{
				Seed:        subseed(r.seed, "fault/"+md.Name),
				CutAtSubmit: -1,
			},
		}
		m, err := aurora.NewMachine(cfg)
		if err != nil {
			return fmt.Errorf("machine %q: %w", md.Name, err)
		}
		ms := &machineState{decl: md, m: m}
		r.machines[md.Name] = ms
		r.machineOrder = append(r.machineOrder, md.Name)
	}

	if td := r.sc.Telemetry; td != nil {
		r.tele = &teleState{
			decl:    td,
			rules:   sloRules(td),
			fleet:   telemetry.NewFleet(),
			watches: make(map[string]*telemetry.Watch),
		}
		for _, name := range r.machineOrder {
			ms := r.machines[name]
			w := telemetry.NewWatch(r.tele.rules)
			r.tele.watches[name] = w
			ms.m.AttachSLO(w)
			r.tele.fleet.Add(name, ms.m.Metrics)
		}
	}

	tick := r.tick()
	for i, wd := range r.sc.Workloads {
		ms := r.machines[wd.Machine]
		gs := &groupState{decl: wd, host: ms, alive: true}
		genSeed := subseed(r.seed, fmt.Sprintf("gen/%d/%s", i, wd.Group))
		var err error
		switch wd.App {
		case AppCounter:
			gs.app, gs.g, err = newCounterApp(ms, wd.Group)
		case AppMemcached:
			var a *memcachedApp
			a, gs.g, err = newMemcachedApp(ms, wd, genSeed)
			gs.app = a
		case AppRocksDB:
			var a *rocksdbApp
			a, gs.g, err = newRocksDBApp(ms, wd, genSeed)
			gs.app = a
		case AppFilebench:
			gs.app = newFilebenchApp(ms, wd, genSeed, tick)
		}
		if err != nil {
			return fmt.Errorf("workload %q on %q: %w", wd.App, wd.Machine, err)
		}
		if gs.g != nil && wd.FoldEvery > 0 {
			gs.g.Options.FoldEvery = int(wd.FoldEvery)
		}
		key := wd.Group
		if key == "" {
			key = fmt.Sprintf("filebench/%d", i)
		}
		r.groups[key] = gs
		r.groupOrder = append(r.groupOrder, key)
	}

	for _, rd := range r.sc.Replications {
		src := r.machines[rd.From]
		dst := r.machines[rd.To]
		gs := r.groups[rd.Group]
		conn := src.m.NewConn(&aurora.NetConfig{
			Fwd: aurora.NetPlan{
				Seed:        subseed(r.seed, "wire/fwd/"+rd.Group),
				DropProb:    rd.Drop,
				DupProb:     rd.Dup,
				ReorderProb: rd.Reorder,
				CorruptProb: rd.Corrupt,
			},
			Rev: aurora.NetPlan{
				Seed:     subseed(r.seed, "wire/rev/"+rd.Group),
				DropProb: rd.Drop,
			},
		})
		rep, err := gs.g.ReplicateToVia(dst.m.SLS, conn)
		if err != nil {
			// A lossy wire can cut off even the seed transfer; the handle
			// stays live and a later sync resumes it.
			if rep == nil {
				return fmt.Errorf("replicating %q: %w", rd.Group, err)
			}
			r.res.Errors = append(r.res.Errors, fmt.Sprintf("seed of %q interrupted: %v", rd.Group, err))
		}
		r.repls[rd.Group] = &replState{decl: rd, rep: rep, conn: conn, to: dst, alive: true}
		r.replOrder = append(r.replOrder, rd.Group)
	}

	if p := r.sc.Placement; p != nil {
		cfg := p.EffectiveConfig()
		if p.HeartbeatDrop > 0 {
			drop := p.HeartbeatDrop
			seed := r.seed
			cfg.HeartbeatPlan = func(node string) net.Plan {
				return net.Plan{Seed: subseed(seed, "hb/"+node), DropProb: drop}
			}
		}
		r.coord = placement.New(r.clk, cfg)
		if r.tele != nil {
			// The coordinator gets its own registry and tracer: fleet.*
			// counters and failover/migration latency histograms live here,
			// and its placement-decision spans join the merged timeline as
			// the "coordinator" process.
			r.tele.coordReg = telemetry.New(r.clk)
			r.tele.coordTr = trace.New(r.clk)
			r.tele.coordWatch = telemetry.NewWatch(r.tele.rules)
			r.coord.Instrument(r.tele.coordTr, r.tele.coordReg)
			r.coord.WatchSLO(r.tele.coordWatch)
			r.tele.fleet.Add("fleet", r.tele.coordReg)
		}
		for _, name := range r.machineOrder {
			if _, err := r.coord.AddMachine(name, r.machines[name].m); err != nil {
				return fmt.Errorf("placement: %w", err)
			}
		}
		// Manage every group workload: the coordinator picks and seeds the
		// standby, and drives the app between migration pre-copy rounds.
		for _, key := range r.groupOrder {
			gs := r.groups[key]
			if gs.g == nil {
				continue // filebench: no consistency group to protect
			}
			work := func() error {
				n := gs.decl.EffectiveOpsPerTick()
				if err := gs.app.step(n); err != nil {
					return err
				}
				gs.ops += n
				return nil
			}
			if _, err := r.coord.Manage(key, gs.decl.Machine, work); err != nil {
				return fmt.Errorf("placement: managing %q: %w", key, err)
			}
		}
	}
	return nil
}

func (r *runner) tick() time.Duration {
	t := r.sc.TickMS
	if t <= 0 {
		t = 1
	}
	return time.Duration(t) * time.Millisecond
}

func (r *runner) stretch() int64 {
	if r.opts.Stretch > 1 {
		return r.opts.Stretch
	}
	return 1
}

func (r *runner) duration() time.Duration {
	return time.Duration(r.sc.DurationMS*r.stretch()) * time.Millisecond
}

// eventAt is an event's stretched fire time in virtual milliseconds.
func (r *runner) eventAt(e EventDecl) int64 { return e.AtMS * r.stretch() }

// drive is the deterministic main loop, advanced tick by tick on the fleet
// timeline: events fire when their time arrives, workloads step in
// declaration order, cadences (checkpoints, syncs) trigger on their
// periods, and the tick ends at a barrier. Every machine spends the tick
// on its own clock; the barrier then moves the fleet timeline and every
// machine clock to the latest of them, as wall-clock time does on real
// parallel hardware: the slowest machine sets the pace. Everything
// iterates in declaration order — never over a map — so a seed replays
// bit-identically.
func (r *runner) drive() {
	clk := r.clk
	end := r.duration()
	tick := r.tick()

	// Events fire in (time, declaration) order.
	evOrder := make([]int, len(r.sc.Events))
	for i := range evOrder {
		evOrder[i] = i
	}
	sort.SliceStable(evOrder, func(a, b int) bool {
		return r.sc.Events[evOrder[a]].AtMS < r.sc.Events[evOrder[b]].AtMS
	})
	nextEv := 0

	// Setup (booting, seeding standbys) ran on the machine clocks; the run
	// starts once the slowest machine is ready.
	r.barrier(0)
	for clk.Now() < end {
		target := clk.Now() + tick
		nowMS := int64(clk.Now() / time.Millisecond)

		for nextEv < len(evOrder) && r.eventAt(r.sc.Events[evOrder[nextEv]]) <= nowMS {
			r.fire(r.sc.Events[evOrder[nextEv]])
			nextEv++
		}

		for _, key := range r.groupOrder {
			gs := r.groups[key]
			if !gs.alive {
				continue
			}
			n := gs.decl.EffectiveOpsPerTick()
			if err := gs.app.step(n); err != nil {
				r.recordErr("workload %s: %v", key, err)
				gs.alive = false
				continue
			}
			gs.ops += n
			if r.coord != nil && gs.g != nil {
				r.coord.RecordOps(key, n)
			}
			if gs.decl.CheckpointEveryMS > 0 && nowMS-gs.lastCkptMS >= gs.decl.CheckpointEveryMS {
				gs.lastCkptMS = nowMS
				r.checkpointGroup(key, gs)
			}
		}

		for _, name := range r.replOrder {
			rs := r.repls[name]
			if !rs.alive || rs.decl.SyncEveryMS <= 0 || nowMS-rs.lastSyncMS < rs.decl.SyncEveryMS {
				continue
			}
			rs.lastSyncMS = nowMS
			r.syncRepl(name, rs)
		}

		if r.coord != nil {
			r.applyFleetEvents(r.coord.Tick())
		}

		if t := r.tele; t != nil && nowMS-t.lastSample >= t.decl.EffectiveSampleEvery() {
			t.lastSample = nowMS
			r.sampleTelemetry()
		}

		r.barrier(target)
	}

	// Late events (scheduled at or past the end) still fire once, so a
	// scenario can end on a final checkpoint or audit trigger.
	for nextEv < len(evOrder) {
		ev := r.sc.Events[evOrder[nextEv]]
		if r.eventAt(ev) <= r.sc.DurationMS*r.stretch() {
			r.fire(ev)
		}
		nextEv++
	}
	r.barrier(0)
}

// barrier moves the fleet timeline and every machine clock, dead machines
// included, to the latest of them, and at least to target, so every clock
// reads the same time when the next tick starts.
func (r *runner) barrier(target time.Duration) {
	latest := max(target, r.clk.Now())
	for _, name := range r.machineOrder {
		latest = max(latest, r.machines[name].m.Clock.Now())
	}
	r.clk.Advance(latest - r.clk.Now())
	for _, name := range r.machineOrder {
		c := r.machines[name].m.Clock
		c.Advance(latest - c.Now())
	}
}

// sampleTelemetry is one sampler-cadence tick: every registry snapshots
// its counters/gauges/histogram-p99s into their time series, then the SLO
// watch runs. A fired breach lands in three places at once — the hosting
// machine's flight recorder (slo.breach), its registry's slo.breaches
// counter (the sls.slo audit family cross-checks counter against breach
// log), and the run result.
func (r *runner) sampleTelemetry() {
	for _, name := range r.machineOrder {
		ms := r.machines[name]
		reg := ms.m.Metrics
		reg.Sample()
		// A machine's watch judges its registry at the machine's own time,
		// the clock its samples were stamped with.
		now := ms.m.Clock.Now()
		for _, b := range r.tele.watches[name].Eval(reg, now) {
			reg.Counter("slo.breaches").Add(1)
			ms.m.Flight.Record(int64(now), flight.EvSLOBreach,
				b.Value, b.Bound, int64(now/time.Microsecond), b.SLO)
			r.recordBreach(name, b)
		}
	}
	if cr := r.tele.coordReg; cr != nil {
		cr.Sample()
		for _, b := range r.tele.coordWatch.Eval(cr, r.clk.Now()) {
			cr.Counter("slo.breaches").Add(1)
			r.recordBreach("fleet", b)
		}
	}
}

func (r *runner) recordBreach(machine string, b telemetry.Breach) {
	r.res.SLOBreaches = append(r.res.SLOBreaches, SLOBreach{Machine: machine, Breach: b})
	r.logf("slo breach on %s: %s", machine, b)
}

func (r *runner) recordErr(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Errors = append(r.res.Errors, msg)
	r.logf("error: %s", msg)
}

func (r *runner) recordEvent(e EventDecl, target string, err error) {
	ev := ExecutedEvent{
		AtMS:    e.AtMS,
		FiredNS: int64(r.clk.Now()),
		Kind:    e.Kind,
		Target:  target,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	r.res.Events = append(r.res.Events, ev)
	if err != nil {
		r.logf("t=%dms %s %s: %v", e.AtMS, e.Kind, target, err)
	} else {
		r.logf("t=%dms %s %s", e.AtMS, e.Kind, target)
	}
}

func (r *runner) checkpointGroup(key string, gs *groupState) {
	if gs.g == nil {
		// Filebench workload: persist the whole store instead.
		if _, err := gs.host.m.Store.Checkpoint(); err != nil {
			r.recordErr("store checkpoint on %s: %v", gs.host.decl.Name, err)
			return
		}
		gs.ckpts++
		return
	}
	start := gs.host.m.Clock.Now()
	st, err := gs.g.Checkpoint(gs.ckptKind())
	if err != nil {
		r.recordErr("checkpoint %s: %v", key, err)
		gs.alive = false
		return
	}
	if err := gs.g.Barrier(); err != nil {
		r.recordErr("barrier %s: %v", key, err)
		gs.alive = false
		return
	}
	gs.record(st, start)
}

// ckptKind is the checkpoint kind this workload declared: WAL-first when
// wal_commit is set, a full incremental epoch otherwise.
func (gs *groupState) ckptKind() aurora.CheckpointKind {
	if gs.decl.WALCommit {
		return aurora.CkptWAL
	}
	return aurora.CkptIncremental
}

// record books one committed checkpoint: its stop time and the durable
// window from checkpoint start to the commit persisting on media, both
// read on the host machine's clock.
func (gs *groupState) record(st aurora.CheckpointStats, start time.Duration) {
	gs.ckpts++
	if st.WALSeq != 0 {
		gs.walCommits++
	}
	gs.stopTimes = append(gs.stopTimes, st.StopTime)
	w := st.DurableAt - start
	if w < 0 {
		w = 0
	}
	gs.durableWindows = append(gs.durableWindows, w)
}

// applyWALOptions re-applies the workload's declared WAL fold cadence to a
// (possibly fresh) group incarnation after restore/failover/migrate.
func (gs *groupState) applyWALOptions() {
	if gs.g != nil && gs.decl.FoldEvery > 0 {
		gs.g.Options.FoldEvery = int(gs.decl.FoldEvery)
	}
}

func (r *runner) syncRepl(name string, rs *replState) {
	if err := rs.rep.Sync(); err != nil {
		// Expected under partitions: the ship stays pending and the next
		// sync resumes from the standby's high-water mark.
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("sync %s: %v", name, err))
		r.logf("sync %s: %v", name, err)
	}
}

// fire dispatches one timed event.
func (r *runner) fire(e EventDecl) {
	switch e.Kind {
	case EvPowerCut:
		r.firePowerCut(e)
	case EvRestore:
		r.fireRestore(e)
	case EvPartition:
		rs := r.repls[e.Group]
		rs.conn.Pipe().Cut(time.Duration(e.ForMS*r.stretch()) * time.Millisecond)
		r.recordEvent(e, e.Group, nil)
	case EvBitRot:
		r.fireBitRot(e)
	case EvMigrate:
		r.fireMigrate(e)
	case EvFailover:
		r.fireFailover(e)
	case EvCheckpoint:
		r.fireCheckpoint(e)
	case EvMachineDies:
		r.fireMachineDies(e)
	case EvRebalance:
		r.recordEvent(e, "fleet", nil)
		r.applyFleetEvents(r.coord.Rebalance())
	case EvSync:
		rs := r.repls[e.Group]
		if !rs.alive {
			r.recordEvent(e, e.Group, fmt.Errorf("replication is down"))
			return
		}
		err := rs.rep.Sync()
		r.recordEvent(e, e.Group, err)
	}
}

func (r *runner) firePowerCut(e EventDecl) {
	ms := r.machines[e.Machine]
	m2, err := ms.m.PowerCut(subseed(r.seed, fmt.Sprintf("cut/%s/%d", e.Machine, e.AtMS)), e.Torn, e.DropInFlight)
	r.recordEvent(e, e.Machine, err)
	if err != nil {
		return
	}
	ms.m = m2
	if r.tele != nil {
		// The registry rode across the reboot but the watch attachment is
		// volatile machine state — re-point the fresh incarnation's auditor
		// at the same watch so the sls.slo cross-check keeps running.
		m2.AttachSLO(r.tele.watches[e.Machine])
	}
	// Volatile state is gone: every group hosted here is down until an
	// explicit restore (or failover on its standby) brings it back, and
	// every replication touching this machine loses its live handles.
	for _, key := range r.groupOrder {
		gs := r.groups[key]
		if gs.host != ms {
			continue
		}
		if gs.decl.App == AppFilebench {
			// Filebench state is the file system, which the reboot just
			// recovered — the workload resumes against the fresh FS.
			continue
		}
		gs.alive = false
		gs.g = nil
	}
	for _, name := range r.replOrder {
		rs := r.repls[name]
		if rs.decl.From == e.Machine || rs.decl.To == e.Machine {
			rs.alive = false
		}
	}
}

// fireMachineDies kills a machine for good: its groups stop producing
// work immediately, but nobody tells the coordinator — the heartbeat
// detector has to notice the silence and fail the groups over.
func (r *runner) fireMachineDies(e EventDecl) {
	ms := r.machines[e.Machine]
	ms.dead = true
	err := r.coord.KillMachine(e.Machine)
	r.recordEvent(e, e.Machine, err)
	if err != nil {
		return
	}
	for _, key := range r.groupOrder {
		gs := r.groups[key]
		if gs.host != ms {
			continue
		}
		gs.alive = false
		if gs.decl.App != AppFilebench {
			gs.g = nil
		}
	}
}

// applyFleetEvents records coordinator decisions in the result and
// rebinds applications whose group moved (failover or rebalance).
func (r *runner) applyFleetEvents(evs []placement.Event) {
	for _, e := range evs {
		target := e.Group
		if target == "" {
			target = e.Node
		}
		if e.From != "" || e.To != "" {
			target += " " + e.From + "->" + e.To
		}
		ev := ExecutedEvent{
			AtMS:    int64(e.At / time.Millisecond),
			FiredNS: int64(e.At),
			Kind:    "fleet-" + e.Kind.String(),
			Target:  target,
		}
		if e.Err != nil {
			ev.Err = e.Err.Error()
		}
		r.res.Events = append(r.res.Events, ev)
		r.logf("fleet %s", e)
		if e.G == nil {
			continue
		}
		gs, ok := r.groups[e.Group]
		if !ok {
			continue
		}
		gs.g = e.G
		gs.host = r.machines[e.To]
		gs.alive = true
		gs.applyWALOptions()
		if err := gs.app.rebind(gs); err != nil {
			r.recordErr("rebind %s after fleet %s: %v", e.Group, e.Kind, err)
			gs.alive = false
		}
	}
}

func (r *runner) fireRestore(e EventDecl) {
	ms := r.machines[e.Machine]
	gs := r.groups[e.Group]
	var (
		g   *aurora.Group
		rst aurora.RestoreStats
		err error
	)
	switch e.RestoreMode {
	case "lazy":
		g, rst, err = ms.m.RestoreLazily(e.Group)
	case "speculative":
		g, rst, err = ms.m.RestoreSpeculatively(e.Group)
	default: // "" and "serial": the eager path
		g, rst, err = ms.m.Restore(e.Group)
	}
	r.recordEvent(e, e.Machine+"/"+e.Group, err)
	if err != nil {
		return
	}
	gs.g = g
	gs.host = ms
	gs.alive = true
	gs.applyWALOptions()
	if e.RestoreMode == "speculative" {
		// The budget that matters speculatively is time-to-first-op —
		// restores-under-us bounds exactly the span the mode shrinks.
		gs.restoreTimes = append(gs.restoreTimes, rst.TimeToFirstOp)
		gs.rollbacks += int64(rst.Rollbacks)
	} else {
		gs.restoreTimes = append(gs.restoreTimes, rst.Time)
	}
	if err := gs.app.rebind(gs); err != nil {
		r.recordErr("rebind %s: %v", e.Group, err)
		gs.alive = false
	}
}

func (r *runner) fireBitRot(e EventDecl) {
	ms := r.machines[e.Machine]
	addrs := ms.m.Store.LivePageAddrs()
	if len(addrs) == 0 {
		r.recordEvent(e, e.Machine, fmt.Errorf("no live pages to rot"))
		return
	}
	offsets := make([]int64, 0, len(e.Pages))
	for _, pg := range e.Pages {
		// Index into the live-page list, modulo its size, so a scenario can
		// say "rot pages 0, 7, 13" without knowing the store layout.
		offsets = append(offsets, addrs[pg%int64(len(addrs))])
	}
	err := ms.m.BitRot(offsets...)
	r.recordEvent(e, e.Machine, err)
}

func (r *runner) fireMigrate(e EventDecl) {
	gs := r.groups[e.Group]
	if !gs.alive || gs.g == nil {
		r.recordEvent(e, e.Group, fmt.Errorf("group is down"))
		return
	}
	if r.coord != nil {
		// Placement mode: the move goes through the coordinator so its
		// assignment map stays authoritative (it retires the old replica
		// and reseeds a standby from the new primary).
		evs, err := r.coord.MigrateGroup(e.Group, e.To)
		r.recordEvent(e, e.Group+"->"+e.To, err)
		r.applyFleetEvents(evs)
		return
	}
	src := gs.host
	dst := r.machines[e.To]
	rounds := int(e.EffectiveRounds())
	work := func() error {
		// The application keeps running between pre-copy rounds; its dirty
		// pages become the next round's delta.
		n := gs.decl.EffectiveOpsPerTick()
		if err := gs.app.step(n); err != nil {
			return err
		}
		gs.ops += n
		return nil
	}
	g2, mst, err := src.m.MigrateTo(dst.m, e.Group, rounds, work)
	r.recordEvent(e, e.Group+"->"+e.To, err)
	if err != nil {
		// A failed migration leaves the source intact: the stream never
		// finished, so the group was neither exited nor forgotten there.
		// It keeps running where it is.
		return
	}
	gs.g = g2
	gs.host = dst
	gs.applyWALOptions()
	gs.stopTimes = append(gs.stopTimes, mst.FinalStop)
	if err := gs.app.rebind(gs); err != nil {
		r.recordErr("rebind %s after migrate: %v", e.Group, err)
		gs.alive = false
	}
}

func (r *runner) fireFailover(e EventDecl) {
	rs := r.repls[e.Group]
	gs := r.groups[e.Group]
	if rs.rep == nil {
		r.recordEvent(e, e.Group, fmt.Errorf("replication never established"))
		return
	}
	g2, rst, err := rs.rep.Failover(aurora.RestoreEager)
	r.recordEvent(e, e.Group+"@"+rs.decl.To, err)
	if err != nil {
		return
	}
	gs.g = g2
	gs.host = rs.to
	gs.alive = true
	gs.applyWALOptions()
	gs.restoreTimes = append(gs.restoreTimes, rst.Time)
	rs.alive = false // the standby is now the primary; the old wire is done
	if err := gs.app.rebind(gs); err != nil {
		r.recordErr("rebind %s after failover: %v", e.Group, err)
		gs.alive = false
	}
}

func (r *runner) fireCheckpoint(e EventDecl) {
	if e.Group != "" {
		gs := r.groups[e.Group]
		if !gs.alive || gs.g == nil {
			r.recordEvent(e, e.Group, fmt.Errorf("group is down"))
			return
		}
		start := gs.host.m.Clock.Now()
		st, err := gs.g.Checkpoint(gs.ckptKind())
		if err == nil {
			err = gs.g.Barrier()
		}
		r.recordEvent(e, e.Group, err)
		if err == nil {
			gs.record(st, start)
		}
		return
	}
	ms := r.machines[e.Machine]
	_, err := ms.m.Store.Checkpoint()
	r.recordEvent(e, e.Machine, err)
}

// finish evaluates assertions and assembles the result.
func (r *runner) finish() {
	r.res.ElapsedNS = int64(r.clk.Now())

	if r.tele != nil {
		// One last sampler tick so the final counter totals land in the
		// series, then the end-of-run SLO pass: final-at-least objectives
		// only have a verdict now that the run is over.
		r.sampleTelemetry()
		now := r.clk.Now()
		finalEval := func(machine string, w *telemetry.Watch, reg *telemetry.Registry) {
			for _, b := range w.Final(reg, now) {
				if b.Kind == telemetry.SLOFinalAtLeast.String() {
					r.recordBreach(machine, b)
				}
			}
		}
		for _, name := range r.machineOrder {
			finalEval(name, r.tele.watches[name], r.machines[name].m.Metrics)
		}
		if r.tele.coordReg != nil {
			finalEval("fleet", r.tele.coordWatch, r.tele.coordReg)
		}
		snap := r.tele.fleet.FleetSnapshot()
		snap.Breaches = make([]telemetry.Breach, 0, len(r.res.SLOBreaches))
		for _, b := range r.res.SLOBreaches {
			snap.Breaches = append(snap.Breaches, b.Breach)
		}
		r.res.Metrics = &snap
		r.res.TimelineJSON = r.fleetTimeline()
	}

	for _, name := range r.machineOrder {
		ms := r.machines[name]
		r.res.Flights = append(r.res.Flights, MachineFlight{
			Machine:  name,
			Timeline: r.combinedFlight(ms),
		})
	}
	for _, key := range r.groupOrder {
		gs := r.groups[key]
		st := GroupStat{
			Group:        key,
			Machine:      gs.host.decl.Name,
			Alive:        gs.alive,
			Ops:          gs.ops,
			Checkpoints:  gs.ckpts,
			WALCommits:   gs.walCommits,
			Restores:     int64(len(gs.restoreTimes)),
			Rollbacks:    gs.rollbacks,
			P99StopUS:    p99us(gs.stopTimes),
			P99DurableUS: p99us(gs.durableWindows),
		}
		if rs, ok := r.repls[key]; ok && rs.rep != nil {
			st.StandbyEpoch = int64(rs.rep.Base())
			st.Syncs = int64(rs.rep.Syncs)
		}
		if r.coord != nil {
			if a, ok := r.coord.Assignment(key); ok {
				st.StandbyEpoch = a.StandbyEpoch()
				st.Syncs = a.Syncs
			}
		}
		r.res.Groups = append(r.res.Groups, st)
	}

	if r.coord != nil {
		r.res.Status = r.coord.Status()
	}

	allOK := true
	for _, a := range r.sc.Assertions {
		ar := r.evaluate(a)
		r.res.Assertions = append(r.res.Assertions, ar)
		if !ar.Pass {
			allOK = false
		}
	}
	r.res.AssertionsOK = allOK
	if r.res.Expect == ExpectFail {
		r.res.Passed = !allOK
	} else {
		r.res.Passed = allOK
	}
}

// fleetTimeline merges every traced machine's tracer — plus the placement
// coordinator's, when instrumented — into one Chrome/Perfetto trace: one
// process per machine, cross-machine causality (replication ships,
// kill -> failover -> promote chains) drawn as flow arrows. Empty when no
// machine declared trace: true.
func (r *runner) fleetTimeline() string {
	var ms []telemetry.MachineTimeline
	for _, name := range r.machineOrder {
		if m := r.machines[name].m; m.Tracer != nil {
			ms = append(ms, telemetry.MachineTimeline{Name: name, T: m.Tracer})
		}
	}
	if len(ms) == 0 {
		return ""
	}
	if r.tele.coordTr != nil {
		ms = append(ms, telemetry.MachineTimeline{Name: "coordinator", T: r.tele.coordTr})
	}
	var sb strings.Builder
	if err := telemetry.WriteFleetChrome(&sb, ms); err != nil {
		r.recordErr("fleet timeline export: %v", err)
		return ""
	}
	return sb.String()
}

// combinedFlight assembles a machine's forensic timeline: the ring the
// store persisted before the last crash, the fault device's crash log (cut
// and torn events can never be inside the checkpoint they interrupt), and
// the live post-boot ring, merged by virtual time.
func (r *runner) combinedFlight(ms *machineState) string {
	var evs []aurora.FlightEvent
	if rec, _, ok, err := ms.m.RecoveredFlight(); err == nil && ok {
		evs = append(evs, rec...)
	}
	if ms.m.Fault != nil {
		evs = append(evs, ms.m.Fault.CrashLog()...)
	}
	evs = append(evs, ms.m.Flight.Events()...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var sb []byte
	for _, ev := range evs {
		sb = append(sb, ev.String()...)
		sb = append(sb, '\n')
	}
	return string(sb)
}

func (r *runner) evaluate(a AssertionDecl) AssertionResult {
	ar := AssertionResult{Decl: a}
	min := a.Min
	if min <= 0 {
		min = 1
	}
	pass := func(ok bool, format string, args ...any) AssertionResult {
		ar.Pass = ok
		ar.Detail = fmt.Sprintf(format, args...)
		return ar
	}
	switch a.Kind {
	case AssertAuditClean:
		rep := r.machines[a.Machine].m.Audit()
		if !rep.OK() {
			return pass(false, "%d violations, first: %s", len(rep.Violations), rep.Violations[0])
		}
		return pass(true, "0 violations")
	case AssertFsckClean:
		rep := r.machines[a.Machine].m.Store.Fsck()
		if len(rep.Problems) > 0 {
			return pass(false, "%d problems, first: %s", len(rep.Problems), rep.Problems[0])
		}
		return pass(true, "%d objects, %d pages scrubbed", rep.Objects, rep.ScrubbedPages)
	case AssertFsckProblems:
		rep := r.machines[a.Machine].m.Store.Fsck()
		return pass(int64(len(rep.Problems)) >= min, "%d problems (want >= %d)", len(rep.Problems), min)
	case AssertFlightContains:
		timeline := ""
		for _, mf := range r.res.Flights {
			if mf.Machine == a.Machine {
				timeline = mf.Timeline
			}
		}
		n := countFlightKind(timeline, a.Event)
		return pass(n >= min, "%d %q events (want >= %d)", n, a.Event, min)
	case AssertStandbyMinEpoch:
		rs := r.repls[a.Group]
		got := int64(rs.rep.Base())
		return pass(got >= min, "standby epoch %d (want >= %d)", got, min)
	case AssertSyncsAtLeast:
		rs := r.repls[a.Group]
		return pass(int64(rs.rep.Syncs) >= min, "%d syncs (want >= %d)", rs.rep.Syncs, min)
	case AssertOpsAtLeast:
		gs := r.groups[a.Group]
		return pass(gs.ops >= min, "%d ops (want >= %d)", gs.ops, min)
	case AssertCkptsAtLeast:
		gs := r.groups[a.Group]
		return pass(gs.ckpts >= min, "%d checkpoints (want >= %d)", gs.ckpts, min)
	case AssertGroupOn:
		gs := r.groups[a.Group]
		ok := gs.alive && gs.host.decl.Name == a.Machine
		return pass(ok, "group on %q alive=%v (want on %q)", gs.host.decl.Name, gs.alive, a.Machine)
	case AssertP99StopUnderUS:
		gs := r.groups[a.Group]
		if len(gs.stopTimes) == 0 {
			return pass(false, "no checkpoints measured")
		}
		p99 := p99us(gs.stopTimes)
		return pass(p99 <= a.MaxUS, "p99 stop %dus over %d checkpoints (want <= %dus)", p99, len(gs.stopTimes), a.MaxUS)
	case AssertDurableWindowUnderUS:
		gs := r.groups[a.Group]
		if len(gs.durableWindows) == 0 {
			return pass(false, "no checkpoints measured")
		}
		p99 := p99us(gs.durableWindows)
		return pass(p99 <= a.MaxUS, "p99 durable window %dus over %d commits (%d via WAL, want <= %dus)",
			p99, len(gs.durableWindows), gs.walCommits, a.MaxUS)
	case AssertFleetHealth:
		if r.coord == nil {
			return pass(false, "no placement coordinator")
		}
		ok := r.coord.Protected() && r.coord.Orphans() == 0
		return pass(ok, "protected=%v orphans=%d failovers=%d rebalances=%d",
			r.coord.Protected(), r.coord.Orphans(), r.coord.Failovers(), r.coord.Rebalances())
	case AssertFailoversAtLeast:
		if r.coord == nil {
			return pass(false, "no placement coordinator")
		}
		return pass(r.coord.Failovers() >= min, "%d failovers (want >= %d)", r.coord.Failovers(), min)
	case AssertRestoreUnderUS:
		gs := r.groups[a.Group]
		if len(gs.restoreTimes) == 0 {
			return pass(false, "no restores measured")
		}
		worst := int64(0)
		for _, t := range gs.restoreTimes {
			if us := int64(t / time.Microsecond); us > worst {
				worst = us
			}
		}
		return pass(worst <= a.MaxUS, "worst restore %dus over %d restores (want <= %dus)", worst, len(gs.restoreTimes), a.MaxUS)
	case AssertRollbacksAtMost:
		gs := r.groups[a.Group]
		return pass(gs.rollbacks <= a.Max, "%d speculation rollback(s) (want <= %d)", gs.rollbacks, a.Max)
	case AssertMetricP99Under:
		h := r.metricHistogram(a)
		if h == nil || h.Samples() == 0 {
			return pass(false, "no samples for metric %q", a.Metric)
		}
		p99 := h.Quantile(0.99)
		return pass(p99 < a.Max, "%s p99 %dns over %d samples (want < %dns)%s",
			a.Metric, p99, h.Samples(), a.Max, r.metricScope(a))
	case AssertMetricMaxUnder:
		max, found := int64(0), false
		for _, reg := range r.metricRegistries(a) {
			for _, p := range reg.SeriesPoints(a.Metric) {
				found = true
				if p.V > max {
					max = p.V
				}
			}
		}
		if !found {
			return pass(false, "no series for metric %q", a.Metric)
		}
		return pass(max < a.Max, "%s max %d (want < %d)%s", a.Metric, max, a.Max, r.metricScope(a))
	case AssertMetricFinalAtLeast:
		total, found := int64(0), false
		for _, reg := range r.metricRegistries(a) {
			if pts := reg.SeriesPoints(a.Metric); len(pts) > 0 {
				found = true
				total += pts[len(pts)-1].V
			}
		}
		if !found {
			return pass(false, "no series for metric %q", a.Metric)
		}
		return pass(total >= min, "%s final %d (want >= %d)%s", a.Metric, total, min, r.metricScope(a))
	}
	return pass(false, "unknown assertion kind %q", a.Kind)
}

// metricRegistries resolves the registries a metric assertion reads: one
// machine's when `machine` is set, otherwise every fleet member plus the
// coordinator's, in registration order.
func (r *runner) metricRegistries(a AssertionDecl) []*telemetry.Registry {
	if r.tele == nil {
		return nil
	}
	if a.Machine != "" {
		return []*telemetry.Registry{r.machines[a.Machine].m.Metrics}
	}
	regs := make([]*telemetry.Registry, 0, len(r.machineOrder)+1)
	for _, name := range r.machineOrder {
		regs = append(regs, r.machines[name].m.Metrics)
	}
	if r.tele.coordReg != nil {
		regs = append(regs, r.tele.coordReg)
	}
	return regs
}

// metricHistogram merges the named histogram across the assertion's scope.
func (r *runner) metricHistogram(a AssertionDecl) *telemetry.Histogram {
	var out *telemetry.Histogram
	for _, reg := range r.metricRegistries(a) {
		h := reg.HistogramCopy(a.Metric)
		if h == nil {
			continue
		}
		if out == nil {
			out = telemetry.NewHistogram(a.Metric)
		}
		out.Merge(h)
	}
	return out
}

// metricScope labels the assertion detail with where the metric was read.
func (r *runner) metricScope(a AssertionDecl) string {
	if a.Machine != "" {
		return " on " + a.Machine
	}
	return " fleet-wide"
}

// p99us returns the 99th-percentile of the samples in microseconds.
func p99us(samples []time.Duration) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * 99 / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return int64(s[idx] / time.Microsecond)
}
