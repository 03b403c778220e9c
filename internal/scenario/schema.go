// Package scenario is Aurora's declarative chaos engine: a scenario is a
// data file — YAML or JSON — declaring a fleet of machines, a workload mix
// drawn from the existing generators (Facebook ETC memcached, Prefix_dist
// RocksDB, filebench, the counter demo), timed fault events on the fleet's
// virtual timeline (power cuts, replication-link partitions, bit-rot, live
// migration, failover), and assertions over the outcome (audit clean,
// standby caught up, flight timeline contains the cut, p99 stop time under
// a bound). The runner plugs into the machinery the repo already has —
// internal/faultdev, internal/net, internal/audit, internal/flight,
// internal/trace — rather than duplicating it, so "as many scenarios as
// you can imagine" becomes a corpus of files CI sweeps on every PR instead
// of bespoke Go harness code.
//
// Clock model: every machine runs on its own virtual clock, and the
// placement coordinator and the event script run on a separate fleet
// timeline. The runner advances in ticks; within a tick each machine's work
// advances only its own clock, and the tick ends at a barrier that moves
// the fleet timeline and every machine clock to the latest of them (at
// least the tick's target time). The slowest machine sets the pace, as
// wall-clock time does on real parallel hardware, so N machines do N
// machines' work per tick instead of summing it on one clock. Events fire
// at tick start on the fleet timeline, where all clocks agree.
//
// Determinism contract: a scenario plus a seed replays bit-identically.
// Every generator, fault plan, and wire plan is seeded from the scenario
// seed by declaration position; the runner iterates declarations in order
// and never ranges over a map. Two runs with the same seed produce
// identical assertion results, event logs, and flight timelines —
// Result.Fingerprint() is the proof the CI sweep and the determinism test
// both pin.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aurora/internal/placement"
)

// Expectation values for Scenario.Expect.
const (
	ExpectPass = "pass"
	ExpectFail = "fail" // a negative scenario: the run must violate assertions
)

// Scenario is one declared chaos experiment.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the default PRNG seed; `sls scenario run -seed` overrides.
	Seed int64 `json:"seed,omitempty"`
	// DurationMS is the virtual runtime. TickMS is the scheduling quantum
	// (default 1): workloads step and cadences fire once per tick.
	DurationMS int64 `json:"duration_ms"`
	TickMS     int64 `json:"tick_ms,omitempty"`
	// Expect is "pass" (default) or "fail" for negative scenarios that
	// prove assertions can trip.
	Expect string `json:"expect,omitempty"`

	Machines     []MachineDecl   `json:"machines"`
	Workloads    []WorkloadDecl  `json:"workloads,omitempty"`
	Replications []ReplDecl      `json:"replications,omitempty"`
	Placement    *PlacementDecl  `json:"placement,omitempty"`
	Telemetry    *TelemetryDecl  `json:"telemetry,omitempty"`
	Events       []EventDecl     `json:"events,omitempty"`
	Assertions   []AssertionDecl `json:"assertions"`
}

// TelemetryDecl turns on the metrics plane (internal/telemetry): every
// machine gets a typed registry the SLS hooks feed, the runner samples
// them into time-series on the declared cadence, and the declared SLO
// rules are evaluated each sample — a fired breach lands in the flight
// recorder (slo.breach), the slo.breaches counter, and the result. The
// run's artifacts gain a deterministic fleet metrics snapshot
// (metrics.json) and, when machines are traced, one merged fleet
// timeline (timeline.json) with cross-machine flow arrows.
type TelemetryDecl struct {
	SampleEveryMS int64     `json:"sample_every_ms,omitempty"` // sampler cadence (default 5)
	SLOs          []SLODecl `json:"slos,omitempty"`
}

// EffectiveSampleEvery resolves the sampler cadence or its default.
func (t *TelemetryDecl) EffectiveSampleEvery() int64 {
	if t.SampleEveryMS > 0 {
		return t.SampleEveryMS
	}
	return 5
}

// SLO rule kinds, mirroring telemetry.SLOKind.
const (
	SLOP99Under     = "p99-under"      // histogram p99 must stay under bound
	SLOMaxUnder     = "max-under"      // series max must stay under bound
	SLOFinalAtLeast = "final-at-least" // series last value must reach bound
)

var sloKinds = []string{SLOP99Under, SLOMaxUnder, SLOFinalAtLeast}

// SLODecl is one declarative objective over a registry metric, evaluated
// per machine on the sampler cadence (final-at-least only at end of run).
// Bound units match the metric's units — nanoseconds for the .ns latency
// histograms the SLS hooks export.
type SLODecl struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	Bound  int64  `json:"bound"`
}

// PlacementDecl turns on the fleet coordinator (internal/placement): every
// group workload is managed — the coordinator picks and seeds its standby,
// syncs it on a cadence, discovers machine death via heartbeats, fails
// groups over, and (when rebalance_every_ms is set) sheds hot groups via
// live migration. A placement scenario declares no `replications` block
// (the coordinator owns standbys) and kills machines with `machine-dies`
// rather than `power-cut` (dead machines stay dead; the coordinator must
// notice on its own). Migrate events route through the coordinator and use
// migrate_rounds, keeping its view of placement authoritative.
type PlacementDecl struct {
	SyncEveryMS      int64   `json:"sync_every_ms,omitempty"`      // default 10
	HeartbeatEveryMS int64   `json:"heartbeat_every_ms,omitempty"` // default 5
	DeadAfterMisses  int64   `json:"dead_after_misses,omitempty"`  // default 3
	AuditEveryMS     int64   `json:"audit_every_ms,omitempty"`     // watchdog audits; 0 disables
	RebalanceEveryMS int64   `json:"rebalance_every_ms,omitempty"` // hot-group scan; 0 disables
	HotFactor        float64 `json:"hot_factor,omitempty"`         // default 2.0
	MigrateRounds    int64   `json:"migrate_rounds,omitempty"`     // default 2
	// HeartbeatDrop makes every heartbeat wire lossy: the detector must
	// distinguish a lossy link from a dead machine.
	HeartbeatDrop float64 `json:"heartbeat_drop,omitempty"`
}

// EffectiveConfig resolves the declared knobs into the coordinator config
// the runner builds — unset cadences get the runner defaults, everything
// else gets placement's own. The runner layers HeartbeatPlan (which needs
// the run seed) on top; validate prints from this so the reported
// effective values cannot drift from what a run uses.
func (p *PlacementDecl) EffectiveConfig() placement.Config {
	ms := func(v, def int64) time.Duration {
		if v <= 0 {
			v = def
		}
		return time.Duration(v) * time.Millisecond
	}
	return placement.Config{
		SyncEvery:       ms(p.SyncEveryMS, 10),
		HeartbeatEvery:  ms(p.HeartbeatEveryMS, 5),
		DeadAfterMisses: int(p.DeadAfterMisses),
		AuditEvery:      time.Duration(p.AuditEveryMS) * time.Millisecond,
		RebalanceEvery:  time.Duration(p.RebalanceEveryMS) * time.Millisecond,
		HotFactor:       p.HotFactor,
		MigrateRounds:   int(p.MigrateRounds),
	}.Filled()
}

// MachineDecl sizes one fleet member. Every scenario machine carries a
// fault device (internal/faultdev) so events can kill or rot it.
type MachineDecl struct {
	Name      string `json:"name"`
	StorageMB int64  `json:"storage_mb,omitempty"` // default 256
	Trace     bool   `json:"trace,omitempty"`
}

// Workload app kinds.
const (
	AppCounter   = "counter"   // the sls demo app: one u64 in process memory
	AppMemcached = "memcached" // internal/apps/memcached under a workload generator
	AppRocksDB   = "rocksdb"   // internal/apps/rocksdb (ConfigAurora) under a generator
	AppFilebench = "filebench" // internal/filebench personalities over the machine's FS
)

// Workload generator kinds (for memcached / rocksdb).
const (
	GenETC        = "etc"         // Facebook ETC (Mutilate), the paper's memcached driver
	GenPrefixDist = "prefix_dist" // Facebook Prefix_dist, the paper's RocksDB driver
	GenUniform    = "uniform"
)

// Filebench personalities accepted in WorkloadDecl.Personality.
var filebenchPersonalities = []string{"varmail", "fileserver", "webserver", "randomwrite", "seqwrite"}

// WorkloadDecl binds an application to a machine and drives it every tick.
type WorkloadDecl struct {
	Machine string `json:"machine"`
	// Group is the consistency group name; empty only for filebench,
	// whose state lives in the file system rather than process memory.
	Group string `json:"group,omitempty"`
	App   string `json:"app"`
	// Generator/Items/ValueBytes shape the key-value op stream.
	Generator  string `json:"generator,omitempty"`
	Items      int64  `json:"items,omitempty"`       // key space / slot count (default 1024)
	ValueBytes int64  `json:"value_bytes,omitempty"` // uniform generator value size
	OpsPerTick int64  `json:"ops_per_tick,omitempty"`
	// Personality selects the filebench workload (default varmail).
	Personality string `json:"personality,omitempty"`
	// CheckpointEveryMS is the periodic checkpoint cadence; 0 means only
	// explicit checkpoint events persist this workload.
	CheckpointEveryMS int64 `json:"checkpoint_every_ms,omitempty"`
	// WALCommit makes periodic and explicit checkpoints of this group
	// WAL-first (CkptWAL): deltas append to the store's log region and the
	// epoch only advances on a fold. FoldEvery promotes every Nth WAL
	// commit to a full checkpoint so the log region is reclaimed; 0 means
	// the group folds only when the WAL region fills.
	WALCommit bool  `json:"wal_commit,omitempty"`
	FoldEvery int64 `json:"fold_every,omitempty"`
}

// ReplDecl keeps a warm standby of a group on another machine, syncing on
// a cadence over a simulated lossy wire.
type ReplDecl struct {
	Group       string  `json:"group"`
	From        string  `json:"from"`
	To          string  `json:"to"`
	SyncEveryMS int64   `json:"sync_every_ms,omitempty"` // 0: only explicit sync events
	Drop        float64 `json:"drop,omitempty"`
	Dup         float64 `json:"dup,omitempty"`
	Reorder     float64 `json:"reorder,omitempty"`
	Corrupt     float64 `json:"corrupt,omitempty"`
}

// Event kinds.
const (
	EvPowerCut   = "power-cut"  // machine: kill + reboot through faultdev
	EvRestore    = "restore"    // machine+group: restore and rebind the app
	EvPartition  = "partition"  // group: cut the replication wire for for_ms
	EvBitRot     = "bit-rot"    // machine: rot the Nth live data pages
	EvMigrate    = "migrate"    // group→to: live pre-copy migration
	EvFailover   = "failover"   // group: restore on the standby
	EvCheckpoint = "checkpoint" // group (or whole machine store)
	EvSync       = "sync"       // group: one replication sync now
	// Placement-mode kinds.
	EvMachineDies = "machine-dies" // machine: permanent death the coordinator must discover
	EvRebalance   = "rebalance"    // fleet: force a hot-group rebalance scan now
)

var eventKinds = []string{EvPowerCut, EvRestore, EvPartition, EvBitRot, EvMigrate, EvFailover, EvCheckpoint, EvSync, EvMachineDies, EvRebalance}

// EventDecl is one timed event on the fleet timeline.
// Runner fallback defaults, hoisted to the schema layer so `scenario
// validate` reports the effective values and the runner has one source of
// truth instead of inline magic numbers.
const (
	// DefaultOpsPerTick drives workloads that leave ops_per_tick unset.
	DefaultOpsPerTick int64 = 20
	// DefaultMigrateRounds is the pre-copy round count when a migrate
	// event (or placement rebalance) leaves rounds unset.
	DefaultMigrateRounds int64 = 2
)

// EffectiveOpsPerTick resolves the declared per-tick op rate or the schema
// default.
func (w *WorkloadDecl) EffectiveOpsPerTick() int64 {
	if w.OpsPerTick > 0 {
		return w.OpsPerTick
	}
	return DefaultOpsPerTick
}

type EventDecl struct {
	AtMS int64  `json:"at_ms"`
	Kind string `json:"kind"`

	Machine string `json:"machine,omitempty"`
	Group   string `json:"group,omitempty"`

	// power-cut knobs (see faultdev.Plan).
	Torn         bool `json:"torn,omitempty"`
	DropInFlight bool `json:"drop_in_flight,omitempty"`

	// partition duration.
	ForMS int64 `json:"for_ms,omitempty"`

	// bit-rot targets: indexes into the machine's live committed pages
	// (resolved via Store.LivePageAddrs, modulo the live count).
	Pages []int64 `json:"pages,omitempty"`

	// migrate destination and pre-copy rounds.
	To     string `json:"to,omitempty"`
	Rounds int64  `json:"rounds,omitempty"`

	// restore mode: "serial" (eager, the default), "lazy", or
	// "speculative" — the validated-speculation path, where the group
	// executes immediately and a background validator confirms every
	// page, rolling back to a serial restore on mismatch.
	RestoreMode string `json:"restore_mode,omitempty"`
}

// EffectiveRounds resolves a migrate event's declared pre-copy rounds or
// the schema default.
func (e *EventDecl) EffectiveRounds() int64 {
	if e.Rounds > 0 {
		return e.Rounds
	}
	return DefaultMigrateRounds
}

// Assertion kinds.
const (
	AssertAuditClean      = "audit-clean"          // machine: invariant watchdog finds nothing
	AssertFsckClean       = "fsck-clean"           // machine: store verifies
	AssertFsckProblems    = "fsck-problems"        // machine: fsck finds >= min problems (bit-rot proof)
	AssertFlightContains  = "flight-contains"      // machine: recovered timeline has >= min events of kind
	AssertStandbyMinEpoch = "standby-min-epoch"    // group: standby holds epoch >= min
	AssertSyncsAtLeast    = "syncs-at-least"       // group: replication landed >= min ships
	AssertOpsAtLeast      = "ops-at-least"         // group: workload completed >= min ops
	AssertCkptsAtLeast    = "checkpoints-at-least" // group: >= min checkpoints committed
	AssertGroupOn         = "group-on"             // machine+group: group is live there
	AssertP99StopUnderUS  = "p99-stop-under-us"    // group: p99 checkpoint stop time <= max µs
	AssertRestoreUnderUS  = "restores-under-us"    // group: every restore time <= max µs
	// group: p99 durable window (checkpoint start to frame durable) <= max
	// µs — the proof WAL-first commit keeps the loss window tiny.
	AssertDurableWindowUnderUS = "durable-window-under-us"
	// fleet (placement mode): no group orphaned and every surviving group
	// has a live standby — the invariant a machine kill must not break.
	AssertFleetHealth = "fleet-health"
	// fleet (placement mode): the coordinator performed >= min failovers.
	AssertFailoversAtLeast = "failovers-at-least"
	// group: speculation rollbacks across the run <= max (default 0 — a
	// clean image must validate without ever falling back to serial).
	AssertRollbacksAtMost = "rollbacks-at-most"
	// Metric assertions (need a telemetry block). Each reads a named
	// registry metric — from one machine when `machine` is set, else
	// fleet-wide (histograms merge exactly; series reduce across members).
	AssertMetricMaxUnder     = "metric-max-under"      // series max < max
	AssertMetricP99Under     = "metric-p99-under"      // histogram p99 < max
	AssertMetricFinalAtLeast = "metric-final-at-least" // series last >= min
)

var assertionKinds = []string{
	AssertAuditClean, AssertFsckClean, AssertFsckProblems, AssertFlightContains,
	AssertStandbyMinEpoch, AssertSyncsAtLeast, AssertOpsAtLeast, AssertCkptsAtLeast,
	AssertGroupOn, AssertP99StopUnderUS, AssertRestoreUnderUS,
	AssertDurableWindowUnderUS, AssertFleetHealth, AssertFailoversAtLeast,
	AssertRollbacksAtMost, AssertMetricMaxUnder, AssertMetricP99Under,
	AssertMetricFinalAtLeast,
}

// AssertionDecl is one end-of-run check.
type AssertionDecl struct {
	Kind    string `json:"kind"`
	Machine string `json:"machine,omitempty"`
	Group   string `json:"group,omitempty"`
	Event   string `json:"event,omitempty"` // flight-contains: flight kind name, e.g. "power.cut"
	Min     int64  `json:"min,omitempty"`   // thresholds (counts, epochs); default 1
	MaxUS   int64  `json:"max_us,omitempty"`
	// Max is the at-most bound (rollbacks-at-most, metric-*-under); unlike
	// Min it does not default — 0 means none allowed.
	Max int64 `json:"max,omitempty"`
	// Metric names the registry metric a metric-* assertion reads, e.g.
	// "sls.stop.ns" or "fleet.failover.ns".
	Metric string `json:"metric,omitempty"`
}

// Parse decodes a scenario from YAML (or JSON — valid JSON is a YAML
// subset only for the flow forms this parser rejects, so JSON sources go
// through ParseJSON in file.go) and validates it.
func Parse(src []byte) (*Scenario, error) {
	raw, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	return Decode(raw)
}

// Decode builds a Scenario from generic parsed values, rejecting unknown
// fields and wrong types with positioned paths, then validates it.
func Decode(raw map[string]any) (*Scenario, error) {
	d := &decoder{}
	sc := d.scenario(raw)
	if d.err != nil {
		return nil, d.err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Validate checks cross-references and ranges. Parse/Decode call it; the
// CLI's `scenario validate` is this over a whole corpus.
func (s *Scenario) Validate() error {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	if s.Name == "" {
		bad("name: required")
	}
	if s.DurationMS <= 0 {
		bad("duration_ms: must be positive, got %d", s.DurationMS)
	}
	if s.TickMS < 0 {
		bad("tick_ms: must not be negative, got %d", s.TickMS)
	}
	if s.Expect != "" && s.Expect != ExpectPass && s.Expect != ExpectFail {
		bad("expect: must be %q or %q, got %q", ExpectPass, ExpectFail, s.Expect)
	}
	if len(s.Machines) == 0 {
		bad("machines: at least one machine is required")
	}
	machines := map[string]bool{}
	for i, m := range s.Machines {
		if m.Name == "" {
			bad("machines[%d].name: required", i)
		}
		if machines[m.Name] {
			bad("machines[%d]: duplicate machine %q", i, m.Name)
		}
		machines[m.Name] = true
		if m.StorageMB < 0 {
			bad("machines[%d].storage_mb: must not be negative", i)
		}
	}

	groups := map[string]string{} // group -> machine
	for i, w := range s.Workloads {
		at := fmt.Sprintf("workloads[%d]", i)
		if !machines[w.Machine] {
			bad("%s.machine: no machine %q", at, w.Machine)
		}
		switch w.App {
		case AppCounter, AppMemcached, AppRocksDB:
			if w.Group == "" {
				bad("%s.group: required for app %q", at, w.App)
			}
		case AppFilebench:
			if w.Group != "" {
				bad("%s.group: filebench state lives in the file system; omit group", at)
			}
			if w.Personality != "" && !contains(filebenchPersonalities, w.Personality) {
				bad("%s.personality: unknown %q (want one of %s)", at, w.Personality, strings.Join(filebenchPersonalities, ", "))
			}
		case "":
			bad("%s.app: required", at)
		default:
			bad("%s.app: unknown app %q", at, w.App)
		}
		if w.Group != "" {
			if _, dup := groups[w.Group]; dup {
				bad("%s.group: duplicate group %q", at, w.Group)
			}
			groups[w.Group] = w.Machine
		}
		switch w.Generator {
		case "", GenETC, GenPrefixDist, GenUniform:
		default:
			bad("%s.generator: unknown generator %q", at, w.Generator)
		}
		if w.Items < 0 || w.OpsPerTick < 0 || w.ValueBytes < 0 || w.CheckpointEveryMS < 0 {
			bad("%s: sizes and cadences must not be negative", at)
		}
		if w.FoldEvery < 0 {
			bad("%s.fold_every: must not be negative, got %d", at, w.FoldEvery)
		}
		if (w.WALCommit || w.FoldEvery > 0) && w.Group == "" {
			bad("%s: wal_commit/fold_every need a consistency group", at)
		}
		if w.FoldEvery > 0 && !w.WALCommit {
			bad("%s.fold_every: only meaningful with wal_commit", at)
		}
	}

	if p := s.Placement; p != nil {
		if len(s.Machines) < 2 {
			bad("placement: needs at least two machines (a standby must live somewhere else)")
		}
		if len(s.Replications) > 0 {
			bad("placement: declares standbys itself; remove the replications block")
		}
		if p.SyncEveryMS < 0 || p.HeartbeatEveryMS < 0 || p.DeadAfterMisses < 0 ||
			p.AuditEveryMS < 0 || p.RebalanceEveryMS < 0 || p.MigrateRounds < 0 {
			bad("placement: cadences and counts must not be negative")
		}
		if p.HotFactor < 0 {
			bad("placement.hot_factor: must not be negative, got %g", p.HotFactor)
		}
		if p.HeartbeatDrop < 0 || p.HeartbeatDrop >= 1 {
			bad("placement.heartbeat_drop: probability must be in [0,1), got %g", p.HeartbeatDrop)
		}
	}

	if t := s.Telemetry; t != nil {
		if t.SampleEveryMS < 0 {
			bad("telemetry.sample_every_ms: must not be negative, got %d", t.SampleEveryMS)
		}
		sloNames := map[string]bool{}
		for i, r := range t.SLOs {
			at := fmt.Sprintf("telemetry.slos[%d]", i)
			if r.Name == "" {
				bad("%s.name: required", at)
			}
			if sloNames[r.Name] {
				bad("%s: duplicate slo %q", at, r.Name)
			}
			sloNames[r.Name] = true
			if r.Metric == "" {
				bad("%s.metric: required", at)
			}
			if !contains(sloKinds, r.Kind) {
				bad("%s.kind: unknown slo kind %q (want one of %s)", at, r.Kind, strings.Join(sloKinds, ", "))
			}
			if r.Bound <= 0 {
				bad("%s.bound: needs a positive bound", at)
			}
		}
	}

	repls := map[string]bool{}
	for i, r := range s.Replications {
		at := fmt.Sprintf("replications[%d]", i)
		if _, ok := groups[r.Group]; !ok {
			bad("%s.group: no workload declares group %q", at, r.Group)
		}
		if !machines[r.From] {
			bad("%s.from: no machine %q", at, r.From)
		}
		if !machines[r.To] {
			bad("%s.to: no machine %q", at, r.To)
		}
		if r.From != "" && r.From == r.To {
			bad("%s: from and to are both %q", at, r.From)
		}
		if gm, ok := groups[r.Group]; ok && gm != r.From {
			bad("%s: group %q runs on %q, not on from=%q", at, r.Group, gm, r.From)
		}
		if repls[r.Group] {
			bad("%s: duplicate replication of group %q", at, r.Group)
		}
		repls[r.Group] = true
		for _, p := range []struct {
			name string
			v    float64
		}{{"drop", r.Drop}, {"dup", r.Dup}, {"reorder", r.Reorder}, {"corrupt", r.Corrupt}} {
			if p.v < 0 || p.v >= 1 {
				bad("%s.%s: probability must be in [0,1), got %g", at, p.name, p.v)
			}
		}
		if r.SyncEveryMS < 0 {
			bad("%s.sync_every_ms: must not be negative", at)
		}
	}

	for i, e := range s.Events {
		at := fmt.Sprintf("events[%d]", i)
		if e.AtMS < 0 {
			bad("%s.at_ms: must not be negative, got %d", at, e.AtMS)
		}
		if e.AtMS > s.DurationMS {
			bad("%s.at_ms: %d is after the scenario ends (%d)", at, e.AtMS, s.DurationMS)
		}
		if e.RestoreMode != "" && e.Kind != EvRestore {
			bad("%s.restore_mode: only %q events take a restore mode", at, EvRestore)
		}
		switch e.Kind {
		case EvPowerCut:
			if !machines[e.Machine] {
				bad("%s.machine: no machine %q", at, e.Machine)
			}
			if s.Placement != nil {
				bad("%s: power-cut bypasses the coordinator; placement scenarios kill machines with %q", at, EvMachineDies)
			}
		case EvRestore:
			if !machines[e.Machine] {
				bad("%s.machine: no machine %q", at, e.Machine)
			}
			if _, ok := groups[e.Group]; !ok {
				bad("%s.group: no workload declares group %q", at, e.Group)
			}
			if s.Placement != nil {
				bad("%s: placement scenarios recover through coordinator failover, not explicit restore", at)
			}
			switch e.RestoreMode {
			case "", "serial", "lazy", "speculative":
			default:
				bad("%s.restore_mode: unknown mode %q (want serial, lazy, or speculative)", at, e.RestoreMode)
			}
		case EvPartition:
			if !repls[e.Group] {
				bad("%s.group: no replication declared for group %q", at, e.Group)
			}
			if e.ForMS <= 0 {
				bad("%s.for_ms: partition needs a positive duration", at)
			}
		case EvBitRot:
			if !machines[e.Machine] {
				bad("%s.machine: no machine %q", at, e.Machine)
			}
			if len(e.Pages) == 0 {
				bad("%s.pages: bit-rot needs at least one live-page index", at)
			}
			for _, pg := range e.Pages {
				if pg < 0 {
					bad("%s.pages: negative page index %d", at, pg)
				}
			}
		case EvMigrate:
			if _, ok := groups[e.Group]; !ok {
				bad("%s.group: no workload declares group %q", at, e.Group)
			}
			if !machines[e.To] {
				bad("%s.to: no machine %q", at, e.To)
			}
			if e.Rounds < 0 {
				bad("%s.rounds: must not be negative", at)
			}
		case EvFailover:
			if !repls[e.Group] {
				bad("%s.group: no replication declared for group %q", at, e.Group)
			}
		case EvCheckpoint:
			if e.Group == "" && !machines[e.Machine] {
				bad("%s: checkpoint needs a group or a machine", at)
			}
			if e.Group != "" {
				if _, ok := groups[e.Group]; !ok {
					bad("%s.group: no workload declares group %q", at, e.Group)
				}
			}
		case EvSync:
			if !repls[e.Group] {
				bad("%s.group: no replication declared for group %q", at, e.Group)
			}
		case EvMachineDies:
			if s.Placement == nil {
				bad("%s: machine-dies needs a placement block (the coordinator discovers the death)", at)
			}
			if !machines[e.Machine] {
				bad("%s.machine: no machine %q", at, e.Machine)
			}
		case EvRebalance:
			if s.Placement == nil {
				bad("%s: rebalance needs a placement block", at)
			}
		case "":
			bad("%s.kind: required", at)
		default:
			bad("%s.kind: unknown event kind %q (want one of %s)", at, e.Kind, strings.Join(eventKinds, ", "))
		}
	}

	if len(s.Assertions) == 0 {
		bad("assertions: at least one assertion is required")
	}
	for i, a := range s.Assertions {
		at := fmt.Sprintf("assertions[%d]", i)
		needMachine := func() {
			if !machines[a.Machine] {
				bad("%s.machine: no machine %q", at, a.Machine)
			}
		}
		needGroup := func() {
			if _, ok := groups[a.Group]; !ok {
				bad("%s.group: no workload declares group %q", at, a.Group)
			}
		}
		switch a.Kind {
		case AssertAuditClean, AssertFsckClean:
			needMachine()
		case AssertFsckProblems:
			needMachine()
		case AssertFlightContains:
			needMachine()
			if a.Event == "" {
				bad("%s.event: flight-contains needs a flight event kind (e.g. \"power.cut\")", at)
			}
		case AssertStandbyMinEpoch, AssertSyncsAtLeast:
			if !repls[a.Group] {
				bad("%s.group: no replication declared for group %q", at, a.Group)
			}
		case AssertOpsAtLeast, AssertCkptsAtLeast:
			needGroup()
		case AssertGroupOn:
			needMachine()
			needGroup()
		case AssertP99StopUnderUS, AssertRestoreUnderUS, AssertDurableWindowUnderUS:
			needGroup()
			if a.MaxUS <= 0 {
				bad("%s.max_us: needs a positive bound", at)
			}
		case AssertRollbacksAtMost:
			needGroup()
			if a.Max < 0 {
				bad("%s.max: must not be negative", at)
			}
		case AssertFleetHealth, AssertFailoversAtLeast:
			if s.Placement == nil {
				bad("%s: %s needs a placement block", at, a.Kind)
			}
		case AssertMetricMaxUnder, AssertMetricP99Under, AssertMetricFinalAtLeast:
			if s.Telemetry == nil {
				bad("%s: %s needs a telemetry block", at, a.Kind)
			}
			if a.Metric == "" {
				bad("%s.metric: required", at)
			}
			if a.Machine != "" && !machines[a.Machine] {
				bad("%s.machine: no machine %q", at, a.Machine)
			}
			if a.Kind != AssertMetricFinalAtLeast && a.Max <= 0 {
				bad("%s.max: needs a positive bound", at)
			}
		case "":
			bad("%s.kind: required", at)
		default:
			bad("%s.kind: unknown assertion kind %q (want one of %s)", at, a.Kind, strings.Join(assertionKinds, ", "))
		}
		if a.Min < 0 {
			bad("%s.min: must not be negative", at)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("scenario %q invalid:\n  %s", s.Name, strings.Join(errs, "\n  "))
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ---- strict generic-value decoding ----

type decoder struct{ err error }

func (d *decoder) fail(path, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
	}
}

// field extractors: each consumes its key so unknown-key detection is a
// final "anything left?" check per object.

func (d *decoder) str(m map[string]any, path, key string) string {
	v, ok := m[key]
	if !ok {
		return ""
	}
	delete(m, key)
	s, ok := v.(string)
	if !ok {
		d.fail(path+"."+key, "want string, got %s", typeName(v))
		return ""
	}
	return s
}

func (d *decoder) i64(m map[string]any, path, key string) int64 {
	v, ok := m[key]
	if !ok {
		return 0
	}
	delete(m, key)
	switch n := v.(type) {
	case int64:
		return n
	case float64:
		if n == float64(int64(n)) {
			return int64(n)
		}
	}
	d.fail(path+"."+key, "want integer, got %s", typeName(v))
	return 0
}

func (d *decoder) f64(m map[string]any, path, key string) float64 {
	v, ok := m[key]
	if !ok {
		return 0
	}
	delete(m, key)
	switch n := v.(type) {
	case int64:
		return float64(n)
	case float64:
		return n
	}
	d.fail(path+"."+key, "want number, got %s", typeName(v))
	return 0
}

func (d *decoder) boolean(m map[string]any, path, key string) bool {
	v, ok := m[key]
	if !ok {
		return false
	}
	delete(m, key)
	b, ok := v.(bool)
	if !ok {
		d.fail(path+"."+key, "want bool, got %s", typeName(v))
		return false
	}
	return b
}

func (d *decoder) i64list(m map[string]any, path, key string) []int64 {
	v, ok := m[key]
	if !ok {
		return nil
	}
	delete(m, key)
	list, ok := v.([]any)
	if !ok {
		d.fail(path+"."+key, "want list of integers, got %s", typeName(v))
		return nil
	}
	out := make([]int64, 0, len(list))
	for i, e := range list {
		switch n := e.(type) {
		case int64:
			out = append(out, n)
		case float64:
			if n == float64(int64(n)) {
				out = append(out, int64(n))
				continue
			}
			d.fail(fmt.Sprintf("%s.%s[%d]", path, key, i), "want integer, got %g", n)
		default:
			d.fail(fmt.Sprintf("%s.%s[%d]", path, key, i), "want integer, got %s", typeName(e))
		}
	}
	return out
}

// objects pulls a list of maps.
func (d *decoder) objects(m map[string]any, path, key string) []map[string]any {
	v, ok := m[key]
	if !ok {
		return nil
	}
	delete(m, key)
	list, ok := v.([]any)
	if !ok {
		d.fail(path+"."+key, "want a list, got %s", typeName(v))
		return nil
	}
	out := make([]map[string]any, 0, len(list))
	for i, e := range list {
		obj, ok := e.(map[string]any)
		if !ok {
			d.fail(fmt.Sprintf("%s.%s[%d]", path, key, i), "want an object, got %s", typeName(e))
			return out
		}
		out = append(out, obj)
	}
	return out
}

func (d *decoder) noExtra(m map[string]any, path string) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.fail(path, "unknown field %q", keys[0])
}

func (d *decoder) scenario(raw map[string]any) *Scenario {
	m := cloneMap(raw)
	sc := &Scenario{
		Name:        d.str(m, "scenario", "name"),
		Description: d.str(m, "scenario", "description"),
		Seed:        d.i64(m, "scenario", "seed"),
		DurationMS:  d.i64(m, "scenario", "duration_ms"),
		TickMS:      d.i64(m, "scenario", "tick_ms"),
		Expect:      d.str(m, "scenario", "expect"),
	}
	for i, o := range d.objects(m, "scenario", "machines") {
		path := fmt.Sprintf("machines[%d]", i)
		md := MachineDecl{
			Name:      d.str(o, path, "name"),
			StorageMB: d.i64(o, path, "storage_mb"),
			Trace:     d.boolean(o, path, "trace"),
		}
		d.noExtra(o, path)
		sc.Machines = append(sc.Machines, md)
	}
	for i, o := range d.objects(m, "scenario", "workloads") {
		path := fmt.Sprintf("workloads[%d]", i)
		wd := WorkloadDecl{
			Machine:           d.str(o, path, "machine"),
			Group:             d.str(o, path, "group"),
			App:               d.str(o, path, "app"),
			Generator:         d.str(o, path, "generator"),
			Items:             d.i64(o, path, "items"),
			ValueBytes:        d.i64(o, path, "value_bytes"),
			OpsPerTick:        d.i64(o, path, "ops_per_tick"),
			Personality:       d.str(o, path, "personality"),
			CheckpointEveryMS: d.i64(o, path, "checkpoint_every_ms"),
			WALCommit:         d.boolean(o, path, "wal_commit"),
			FoldEvery:         d.i64(o, path, "fold_every"),
		}
		d.noExtra(o, path)
		sc.Workloads = append(sc.Workloads, wd)
	}
	for i, o := range d.objects(m, "scenario", "replications") {
		path := fmt.Sprintf("replications[%d]", i)
		rd := ReplDecl{
			Group:       d.str(o, path, "group"),
			From:        d.str(o, path, "from"),
			To:          d.str(o, path, "to"),
			SyncEveryMS: d.i64(o, path, "sync_every_ms"),
			Drop:        d.f64(o, path, "drop"),
			Dup:         d.f64(o, path, "dup"),
			Reorder:     d.f64(o, path, "reorder"),
			Corrupt:     d.f64(o, path, "corrupt"),
		}
		d.noExtra(o, path)
		sc.Replications = append(sc.Replications, rd)
	}
	if v, ok := m["telemetry"]; ok {
		delete(m, "telemetry")
		obj, isObj := v.(map[string]any)
		if !isObj {
			d.fail("scenario.telemetry", "want an object, got %s", typeName(v))
		} else {
			td := &TelemetryDecl{
				SampleEveryMS: d.i64(obj, "telemetry", "sample_every_ms"),
			}
			for i, o := range d.objects(obj, "telemetry", "slos") {
				path := fmt.Sprintf("telemetry.slos[%d]", i)
				sd := SLODecl{
					Name:   d.str(o, path, "name"),
					Metric: d.str(o, path, "metric"),
					Kind:   d.str(o, path, "kind"),
					Bound:  d.i64(o, path, "bound"),
				}
				d.noExtra(o, path)
				td.SLOs = append(td.SLOs, sd)
			}
			d.noExtra(obj, "telemetry")
			sc.Telemetry = td
		}
	}
	if v, ok := m["placement"]; ok {
		delete(m, "placement")
		obj, isObj := v.(map[string]any)
		if !isObj {
			d.fail("scenario.placement", "want an object, got %s", typeName(v))
		} else {
			pd := &PlacementDecl{
				SyncEveryMS:      d.i64(obj, "placement", "sync_every_ms"),
				HeartbeatEveryMS: d.i64(obj, "placement", "heartbeat_every_ms"),
				DeadAfterMisses:  d.i64(obj, "placement", "dead_after_misses"),
				AuditEveryMS:     d.i64(obj, "placement", "audit_every_ms"),
				RebalanceEveryMS: d.i64(obj, "placement", "rebalance_every_ms"),
				HotFactor:        d.f64(obj, "placement", "hot_factor"),
				MigrateRounds:    d.i64(obj, "placement", "migrate_rounds"),
				HeartbeatDrop:    d.f64(obj, "placement", "heartbeat_drop"),
			}
			d.noExtra(obj, "placement")
			sc.Placement = pd
		}
	}
	for i, o := range d.objects(m, "scenario", "events") {
		path := fmt.Sprintf("events[%d]", i)
		ed := EventDecl{
			AtMS:         d.i64(o, path, "at_ms"),
			Kind:         d.str(o, path, "kind"),
			Machine:      d.str(o, path, "machine"),
			Group:        d.str(o, path, "group"),
			Torn:         d.boolean(o, path, "torn"),
			DropInFlight: d.boolean(o, path, "drop_in_flight"),
			ForMS:        d.i64(o, path, "for_ms"),
			Pages:        d.i64list(o, path, "pages"),
			To:           d.str(o, path, "to"),
			Rounds:       d.i64(o, path, "rounds"),
			RestoreMode:  d.str(o, path, "restore_mode"),
		}
		d.noExtra(o, path)
		sc.Events = append(sc.Events, ed)
	}
	for i, o := range d.objects(m, "scenario", "assertions") {
		path := fmt.Sprintf("assertions[%d]", i)
		ad := AssertionDecl{
			Kind:    d.str(o, path, "kind"),
			Machine: d.str(o, path, "machine"),
			Group:   d.str(o, path, "group"),
			Event:   d.str(o, path, "event"),
			Min:     d.i64(o, path, "min"),
			MaxUS:   d.i64(o, path, "max_us"),
			Max:     d.i64(o, path, "max"),
			Metric:  d.str(o, path, "metric"),
		}
		d.noExtra(o, path)
		sc.Assertions = append(sc.Assertions, ad)
	}
	d.noExtra(m, "scenario")
	return sc
}

// cloneMap shallow-copies so decoding can consume keys without mutating
// the caller's parse tree.
func cloneMap(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if sub, ok := v.(map[string]any); ok {
			v = cloneMap(sub)
		}
		if list, ok := v.([]any); ok {
			cp := make([]any, len(list))
			for i, e := range list {
				if sub, ok := e.(map[string]any); ok {
					cp[i] = cloneMap(sub)
				} else {
					cp[i] = e
				}
			}
			v = cp
		}
		out[k] = v
	}
	return out
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case string:
		return "string"
	case int64:
		return "integer"
	case float64:
		return "number"
	case bool:
		return "bool"
	case []any:
		return "list"
	case map[string]any:
		return "object"
	}
	return fmt.Sprintf("%T", v)
}
