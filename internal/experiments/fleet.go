package experiments

// Fleet scaling: aggregate checkpoint+op throughput across N machines
// under the placement coordinator. Aurora's continuous checkpointing is
// per-machine work — no cross-machine coordination sits on the op path —
// so a fleet of N machines should deliver close to N times the single
// machine's throughput. Every row is a scenario run through the scenario
// engine, which gives each machine its own virtual clock and ends every
// tick at a barrier that moves all clocks to the slowest machine's time,
// exactly how wall-clock time behaves for real parallel hardware. A shared
// clock would serialize the fleet and show flat scaling — the point of the
// model is that it does not.
//
// The final row is the chaos run: mid-experiment one machine dies; the
// coordinator's heartbeat detector notices, every group on the dead
// machine fails over to its warm standby, and the fleet finishes the
// workload with the survivors auditing clean.

import (
	"fmt"
	"time"

	"aurora/internal/placement"
	"aurora/internal/scenario"
)

// FleetRow is one fleet configuration's aggregate result.
type FleetRow struct {
	Machines    int
	Groups      int
	Ops         int64
	Checkpoints int64
	Syncs       int64
	Failovers   int64
	Rebalances  int64
	Elapsed     time.Duration
	OpsPerSec   float64
	Speedup     float64 // vs the 1-machine row
	Chaos       bool
	AuditOK     bool
}

// FleetResult is the scaling sweep plus the chaos row.
type FleetResult struct {
	Rows []FleetRow
}

// Fleet runs the sweep: clean rows at 1, 2, 4, and 8 machines, then a
// 4-machine run in which m1 dies 60% of the way through.
func Fleet(scale Scale) (*FleetResult, error) {
	opsPerTick, durationMS := int64(400), int64(260)
	if scale == Quick {
		opsPerTick, durationMS = 150, 60
	}
	res := &FleetResult{}
	for _, run := range []struct {
		machines int
		chaos    bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {4, true}} {
		row, err := fleetRow(fleetScenario(run.machines, opsPerTick, durationMS, run.chaos), run.chaos)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if base := res.Rows[0].OpsPerSec; base > 0 {
		for i := range res.Rows {
			res.Rows[i].Speedup = res.Rows[i].OpsPerSec / base
		}
	}
	return res, nil
}

// fleetScenario declares one fleet configuration: n machines m0..m(n-1),
// one counter group each, checkpointing every tick. A 1-machine fleet has
// nowhere to put a standby, so the baseline runs without a placement
// block; chaos adds the rebalance scan and kills m1 at 60% of the run.
func fleetScenario(n int, opsPerTick, durationMS int64, chaos bool) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:       fmt.Sprintf("fleet-%d", n),
		Seed:       1,
		DurationMS: durationMS,
	}
	for i := 0; i < n; i++ {
		m := fmt.Sprintf("m%d", i)
		sc.Machines = append(sc.Machines, scenario.MachineDecl{Name: m})
		sc.Workloads = append(sc.Workloads, scenario.WorkloadDecl{
			Machine:           m,
			Group:             fmt.Sprintf("g%d", i),
			App:               scenario.AppCounter,
			OpsPerTick:        opsPerTick,
			CheckpointEveryMS: 1,
		})
	}
	if n > 1 {
		sc.Placement = &scenario.PlacementDecl{SyncEveryMS: 40, HeartbeatEveryMS: 2}
	}
	if chaos {
		sc.Name += "-chaos"
		sc.Placement.RebalanceEveryMS = 25
		sc.Placement.HotFactor = 1.5
		sc.Events = []scenario.EventDecl{{AtMS: durationMS * 6 / 10, Kind: scenario.EvMachineDies, Machine: "m1"}}
		sc.Assertions = []scenario.AssertionDecl{
			{Kind: scenario.AssertFleetHealth},
			{Kind: scenario.AssertFailoversAtLeast, Min: 1},
		}
	}
	// Every surviving machine must audit clean — a failover that corrupts
	// kernel/store invariants is not a failover.
	for _, md := range sc.Machines {
		if chaos && md.Name == "m1" {
			continue
		}
		sc.Assertions = append(sc.Assertions, scenario.AssertionDecl{Kind: scenario.AssertAuditClean, Machine: md.Name})
	}
	return sc
}

// fleetRow runs one fleet scenario and folds its result into a table row.
// A dirty audit is reported in the row; any other failed assertion, a
// runtime error, or a group left down fails the experiment.
func fleetRow(sc *scenario.Scenario, chaos bool) (FleetRow, error) {
	res, err := scenario.Run(sc, scenario.RunOptions{})
	if err != nil {
		return FleetRow{}, fmt.Errorf("%s: %w", sc.Name, err)
	}
	if len(res.Errors) > 0 {
		return FleetRow{}, fmt.Errorf("%s: %s", sc.Name, res.Errors[0])
	}
	row := FleetRow{
		Machines: len(sc.Machines),
		Groups:   len(sc.Workloads),
		Elapsed:  time.Duration(res.ElapsedNS),
		Chaos:    chaos,
		AuditOK:  true,
	}
	for _, a := range res.Assertions {
		switch {
		case a.Pass:
		case a.Decl.Kind == scenario.AssertAuditClean:
			row.AuditOK = false
		default:
			return FleetRow{}, fmt.Errorf("%s: %s: %s", sc.Name, a.Decl.Kind, a.Detail)
		}
	}
	for _, g := range res.Groups {
		if !g.Alive {
			return FleetRow{}, fmt.Errorf("%s: group %s is down on %s", sc.Name, g.Group, g.Machine)
		}
		row.Ops += g.Ops
		row.Checkpoints += g.Checkpoints
		row.Syncs += g.Syncs
	}
	for _, e := range res.Events {
		switch {
		case e.Err != "":
		case e.Kind == "fleet-"+placement.EvFailover.String():
			row.Failovers++
		case e.Kind == "fleet-"+placement.EvRebalance.String():
			row.Rebalances++
		}
	}
	if row.Elapsed > 0 {
		row.OpsPerSec = float64(row.Ops) / row.Elapsed.Seconds()
	}
	return row, nil
}

// Render prints the scaling table.
func (r *FleetResult) Render() string {
	header := []string{"Machines", "Groups", "Ops", "Ckpts", "Syncs", "Failover", "Rebal", "Elapsed", "Ops/s", "Speedup", "Run"}
	var rows [][]string
	for _, row := range r.Rows {
		kind := "clean"
		if row.Chaos {
			kind = "chaos(kill m1)"
			if !row.AuditOK {
				kind += " AUDIT-DIRTY"
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Machines),
			fmt.Sprintf("%d", row.Groups),
			fmt.Sprintf("%d", row.Ops),
			fmt.Sprintf("%d", row.Checkpoints),
			fmt.Sprintf("%d", row.Syncs),
			fmt.Sprintf("%d", row.Failovers),
			fmt.Sprintf("%d", row.Rebalances),
			fmtDur(row.Elapsed),
			fmt.Sprintf("%.0f", row.OpsPerSec),
			fmt.Sprintf("%.2fx", row.Speedup),
			kind,
		})
	}
	return "Fleet scaling: aggregate checkpoint+op throughput under the placement coordinator\n" + table(header, rows)
}
