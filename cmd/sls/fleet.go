package main

// The `sls fleet` verb: the placement coordinator's inspection surface.
// Machine images are single-machine artifacts, so the fleet command runs a
// deterministic in-memory demo fleet — N machines, one counter group each
// on the first G of them, under the coordinator — and prints the
// coordinator's decision log and status. With -kill, one machine dies
// mid-run and the output shows the heartbeat detector noticing, the
// failovers, and the reseeded standbys: the quickest way to see the
// placement layer work without writing a scenario file.
//
// The demo fleet is a scenario (internal/scenario) compiled from the
// flags, so it runs on the same engine as `sls scenario run`: every
// machine on its own clock, a telemetry registry per machine, the
// coordinator's decisions recorded into a fleet registry watched by
// default SLOs. `sls top` renders the same run as a per-machine metrics
// table.

import (
	"flag"
	"fmt"
	"time"

	"aurora/internal/scenario"
)

func cmdFleet(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sls fleet status [-machines N] [-groups G] [-ticks T] [-kill MACHINE]")
	}
	switch args[0] {
	case "status":
		return cmdFleetStatus(args[1:])
	default:
		return fmt.Errorf("unknown fleet subcommand %q (want status)", args[0])
	}
}

// runDemoFleet parses the demo-fleet flags `fleet status` and `top` share,
// compiles them into a scenario, and runs it.
func runDemoFleet(verb string, args []string) (*scenario.Result, error) {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	nMachines := fs.Int("machines", 4, "fleet size")
	nGroups := fs.Int("groups", 3, "managed groups (first machines get one each)")
	ticks := fs.Int("ticks", 40, "drive rounds (1ms of virtual time each)")
	kill := fs.String("kill", "", "machine to kill at the halfway tick")
	fs.Parse(args)

	sc, err := demoFleetScenario(*nMachines, *nGroups, *ticks, *kill)
	if err != nil {
		return nil, err
	}
	return scenario.Run(sc, scenario.RunOptions{})
}

// demoFleetScenario declares the demo fleet: machines m0..mN-1, counter
// groups g0..gG-1 on the first G machines, the coordinator syncing every
// 5ms and probing every 2ms, every registry sampled each tick and watched
// by the default fleet SLOs — failovers complete under 50ms of virtual
// time, and no group is ever left orphaned.
func demoFleetScenario(nMachines, nGroups, ticks int, kill string) (*scenario.Scenario, error) {
	if nMachines < 2 || nGroups < 1 || nGroups > nMachines {
		return nil, fmt.Errorf("need 1 <= groups (%d) <= machines (%d) and at least two machines", nGroups, nMachines)
	}
	sc := &scenario.Scenario{
		Name:       "fleet-demo",
		Seed:       1,
		DurationMS: int64(ticks),
		Placement:  &scenario.PlacementDecl{SyncEveryMS: 5, HeartbeatEveryMS: 2},
		Telemetry: &scenario.TelemetryDecl{
			SampleEveryMS: 1,
			SLOs: []scenario.SLODecl{
				{Name: "failover-p99", Metric: "fleet.failover.ns", Kind: scenario.SLOP99Under, Bound: int64(50 * time.Millisecond)},
				{Name: "no-orphans", Metric: "fleet.orphans", Kind: scenario.SLOMaxUnder, Bound: 1},
			},
		},
		Assertions: []scenario.AssertionDecl{{Kind: scenario.AssertFleetHealth}},
	}
	for i := 0; i < nMachines; i++ {
		sc.Machines = append(sc.Machines, scenario.MachineDecl{Name: fmt.Sprintf("m%d", i), StorageMB: 64})
	}
	for i := 0; i < nGroups; i++ {
		sc.Workloads = append(sc.Workloads, scenario.WorkloadDecl{
			Machine: fmt.Sprintf("m%d", i), Group: fmt.Sprintf("g%d", i),
			App: scenario.AppCounter, OpsPerTick: 20,
		})
	}
	if kill != "" {
		sc.Events = []scenario.EventDecl{{AtMS: int64(ticks / 2), Kind: scenario.EvMachineDies, Machine: kill}}
	}
	return sc, sc.Validate()
}

func cmdFleetStatus(args []string) error {
	res, err := runDemoFleet("fleet status", args)
	if err != nil {
		return err
	}
	for _, e := range res.Events {
		fmt.Printf("[%8.3fms] %-15s %s", float64(e.FiredNS)/1e6, e.Kind, e.Target)
		if e.Err != "" {
			fmt.Printf(" err=%s", e.Err)
		}
		fmt.Println()
	}
	// The status ends with the coordinator's own breach log; breaches a
	// machine's registry tripped follow it.
	fmt.Print(res.Status)
	for _, b := range res.SLOBreaches {
		if b.Machine != "fleet" {
			fmt.Printf("  slo breach on %s: %s\n", b.Machine, b.Breach)
		}
	}
	return nil
}
