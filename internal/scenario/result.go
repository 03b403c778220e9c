package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"aurora/internal/telemetry"
)

// Result is the complete, deterministic outcome of one scenario run: what
// fired, what each group accomplished, every machine's forensic flight
// timeline, and the assertion verdicts. Two runs of the same scenario with
// the same seed produce identical Results — Fingerprint() is the hash the
// determinism test and the CI sweep pin.
type Result struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Expect   string `json:"expect"`
	// Passed folds Expect in: a negative (expect: fail) scenario passes
	// when its assertions do NOT all hold.
	Passed bool `json:"passed"`
	// AssertionsOK is the raw verdict before Expect inversion.
	AssertionsOK bool  `json:"assertions_ok"`
	ElapsedNS    int64 `json:"elapsed_ns"`

	Assertions []AssertionResult `json:"assertions"`
	Events     []ExecutedEvent   `json:"events"`
	Groups     []GroupStat       `json:"groups"`
	Flights    []MachineFlight   `json:"flights"`
	// Metrics is the end-of-run fleet telemetry snapshot (scenarios with a
	// telemetry block): per-machine registries in declaration order plus
	// fleet-merged histograms — the artifact the telemetry-golden CI job
	// diffs byte-for-byte across two executions.
	Metrics *telemetry.FleetSnapshot `json:"metrics,omitempty"`
	// SLOBreaches is every objective violation in fire order: the Eval-time
	// breaches (also in each machine's flight ring and slo.breaches
	// counter) plus end-of-run final-at-least verdicts.
	SLOBreaches []SLOBreach `json:"slo_breaches,omitempty"`
	// TimelineJSON is the merged fleet Chrome/Perfetto trace (scenarios
	// with traced machines under a telemetry block). It is an artifact, not
	// part of the JSON result — WriteArtifacts saves it as timeline.json —
	// but it is folded into the fingerprint.
	TimelineJSON string `json:"-"`
	// Status is the placement coordinator's end-of-run status rendering
	// (scenarios with a placement block): nodes, assignments, and the
	// fleet's SLO breach log.
	Status string `json:"status,omitempty"`
	// Errors are runtime failures recorded mid-run (a sync that exhausted
	// retries under a partition, a workload that died with its machine).
	// They are evidence, not verdicts: the assertions judge the run.
	Errors []string `json:"errors,omitempty"`
}

// SLOBreach is one objective violation, attributed to the machine whose
// registry tripped it ("fleet" for the coordinator's).
type SLOBreach struct {
	Machine string `json:"machine"`
	telemetry.Breach
}

// AssertionResult is one end-of-run check's verdict.
type AssertionResult struct {
	Decl   AssertionDecl `json:"decl"`
	Pass   bool          `json:"pass"`
	Detail string        `json:"detail"`
}

// ExecutedEvent is one timeline event as it actually fired.
type ExecutedEvent struct {
	AtMS    int64  `json:"at_ms"`    // scheduled virtual time
	FiredNS int64  `json:"fired_ns"` // actual virtual time it fired
	Kind    string `json:"kind"`
	Target  string `json:"target"`
	Err     string `json:"err,omitempty"`
}

// GroupStat summarizes one workload's run.
type GroupStat struct {
	Group       string `json:"group"`
	Machine     string `json:"machine"` // final host
	Alive       bool   `json:"alive"`
	Ops         int64  `json:"ops"`
	Checkpoints int64  `json:"checkpoints"`
	// WALCommits counts checkpoints that committed as WAL frame appends
	// rather than full epochs (wal_commit workloads).
	WALCommits int64 `json:"wal_commits,omitempty"`
	Restores   int64 `json:"restores"`
	// Rollbacks counts speculative restores that failed validation and
	// fell back to serial.
	Rollbacks int64 `json:"rollbacks,omitempty"`
	P99StopUS int64 `json:"p99_stop_us"`
	// P99DurableUS is the p99 of per-checkpoint durable windows — the
	// virtual span from checkpoint start to the commit landing on media.
	P99DurableUS int64 `json:"p99_durable_us,omitempty"`
	StandbyEpoch int64 `json:"standby_epoch,omitempty"`
	Syncs        int64 `json:"syncs,omitempty"`
}

// MachineFlight is one machine's combined forensic timeline (persisted
// pre-crash ring + fault-device crash log + live post-boot ring, merged by
// virtual time), pre-rendered as text.
type MachineFlight struct {
	Machine  string `json:"machine"`
	Timeline string `json:"timeline"`
}

// Fingerprint hashes everything observable about the run — assertion
// verdicts, the executed event log, group statistics, flight timelines,
// and recorded errors — into a short hex string. Equal fingerprints mean
// bit-identical runs.
func (r *Result) Fingerprint() string {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("scenario=%s seed=%d expect=%s elapsed=%d\n", r.Scenario, r.Seed, r.Expect, r.ElapsedNS)
	for _, a := range r.Assertions {
		w("assert %s m=%s g=%s ev=%s metric=%s min=%d maxus=%d max=%d pass=%v detail=%s\n",
			a.Decl.Kind, a.Decl.Machine, a.Decl.Group, a.Decl.Event, a.Decl.Metric, a.Decl.Min, a.Decl.MaxUS, a.Decl.Max, a.Pass, a.Detail)
	}
	for _, e := range r.Events {
		w("event %d %d %s %s err=%s\n", e.AtMS, e.FiredNS, e.Kind, e.Target, e.Err)
	}
	for _, g := range r.Groups {
		w("group %s on=%s alive=%v ops=%d ckpts=%d wal=%d restores=%d rollbacks=%d p99=%d durable=%d epoch=%d syncs=%d\n",
			g.Group, g.Machine, g.Alive, g.Ops, g.Checkpoints, g.WALCommits, g.Restores, g.Rollbacks, g.P99StopUS, g.P99DurableUS, g.StandbyEpoch, g.Syncs)
	}
	for _, f := range r.Flights {
		w("flight %s\n%s", f.Machine, f.Timeline)
	}
	for _, e := range r.Errors {
		w("error %s\n", e)
	}
	if r.Status != "" {
		w("status\n%s", r.Status)
	}
	for _, b := range r.SLOBreaches {
		w("breach %s %s\n", b.Machine, b.Breach)
	}
	if r.Metrics != nil {
		// The whole snapshot, bytes and all: equal fingerprints must mean
		// the metrics artifact diffs clean too.
		if blob, err := json.Marshal(r.Metrics); err == nil {
			h.Write(blob)
		}
	}
	fmt.Fprint(h, r.TimelineJSON)
	return fmt.Sprintf("%016x", h.Sum64())
}

// countFlightKind counts timeline lines naming the given flight event kind
// (the Kind.String() name, e.g. "power.cut").
func countFlightKind(timeline, kind string) int64 {
	var n int64
	for _, line := range strings.Split(timeline, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[1] == kind {
			n++
		}
	}
	return n
}

// Summary renders a human-readable report.
func (r *Result) Summary() string {
	var sb strings.Builder
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "scenario %s: %s (seed %d, %v virtual", r.Scenario, verdict, r.Seed, nsDur(r.ElapsedNS))
	if r.Expect == ExpectFail {
		fmt.Fprintf(&sb, ", negative: assertions expected to trip")
	}
	fmt.Fprintf(&sb, ")\n")
	for _, e := range r.Events {
		status := "ok"
		if e.Err != "" {
			status = e.Err
		}
		fmt.Fprintf(&sb, "  event t=%-6dms %-11s %-24s %s\n", e.AtMS, e.Kind, e.Target, status)
	}
	for _, g := range r.Groups {
		fmt.Fprintf(&sb, "  group %-12s on %-8s alive=%-5v ops=%-8d ckpts=%-4d restores=%d",
			g.Group, g.Machine, g.Alive, g.Ops, g.Checkpoints, g.Restores)
		if g.P99StopUS > 0 {
			fmt.Fprintf(&sb, " p99stop=%dus", g.P99StopUS)
		}
		if g.WALCommits > 0 {
			fmt.Fprintf(&sb, " wal=%d p99durable=%dus", g.WALCommits, g.P99DurableUS)
		}
		if g.Syncs > 0 {
			fmt.Fprintf(&sb, " syncs=%d standby@%d", g.Syncs, g.StandbyEpoch)
		}
		sb.WriteByte('\n')
	}
	for _, a := range r.Assertions {
		mark := "ok  "
		if !a.Pass {
			mark = "FAIL"
		}
		target := a.Decl.Machine
		if a.Decl.Group != "" {
			target = a.Decl.Group
		}
		fmt.Fprintf(&sb, "  assert %s %-20s %-12s %s\n", mark, a.Decl.Kind, target, a.Detail)
	}
	for _, b := range r.SLOBreaches {
		fmt.Fprintf(&sb, "  breach %s: %s\n", b.Machine, b.Breach)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&sb, "  note: %s\n", e)
	}
	fmt.Fprintf(&sb, "  fingerprint %s\n", r.Fingerprint())
	return sb.String()
}

func nsDur(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
