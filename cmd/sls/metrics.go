package main

// The `sls metrics` and `sls top` verbs: the telemetry plane's CLI
// surface.
//
// `sls metrics` runs a self-contained demo — attach, periodic
// checkpoints, a power cut, restore, continue — on a fresh
// telemetry-enabled machine, sampling the registry on a fixed cadence,
// then exports it as Prometheus text or the deterministic JSON snapshot.
// No image file is touched; the run is its own world, like `sls trace`.
//
// `sls top` runs the same demo fleet scenario as `sls fleet status` but
// renders the run's end-of-run metrics snapshot as a per-machine table —
// checkpoints, stop-time p99, WAL commits, restores, replica syncs — with
// the coordinator's fleet counters and any SLO breaches below it.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aurora"
	"aurora/internal/scenario"
	"aurora/internal/telemetry"
)

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	steps := fs.Int("steps", 200, "demo app steps per phase")
	sampleEvery := fs.Int("sample-every", 20, "steps between registry samples")
	format := fs.String("format", "prom", "output format: prom or json")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *format != "prom" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want prom or json)", *format)
	}

	m, err := aurora.NewMachine(aurora.Config{
		StorageBytes: 1 << 30, Name: "demo-machine", Telemetry: true,
	})
	if err != nil {
		return err
	}
	p := m.Spawn(*name)
	if _, err := p.Mmap(counterRegion, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		return err
	}
	g, err := m.Attach(*name, p)
	if err != nil {
		return err
	}
	sampled := func(m *aurora.Machine, p *aurora.Proc, g *aurora.Group) error {
		for done := 0; done < *steps; done += *sampleEvery {
			n := *sampleEvery
			if rem := *steps - done; rem < n {
				n = rem
			}
			if _, err := stepCounter(p, m, n, g); err != nil {
				return err
			}
			m.Metrics.Sample()
		}
		return nil
	}
	if err := sampled(m, p, g); err != nil {
		return err
	}
	if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
		return err
	}
	if err := g.Barrier(); err != nil {
		return err
	}
	m2, err := m.Crash() // the registry rides across the reboot
	if err != nil {
		return err
	}
	g2, _, err := m2.RestoreLazily(*name)
	if err != nil {
		return err
	}
	if err := sampled(m2, g2.Procs()[0], g2); err != nil {
		return err
	}
	m2.Metrics.Sample()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *format == "json" {
		return telemetry.WriteJSON(w, m2.Metrics.Snapshot(m2.Name()))
	}
	return m2.Metrics.WritePrometheus(w, m2.Name())
}

func cmdTop(args []string) error {
	res, err := runDemoFleet("top", args)
	if err != nil {
		return err
	}
	dead := map[string]bool{}
	for _, e := range res.Events {
		if e.Kind == scenario.EvMachineDies && e.Err == "" {
			dead[e.Target] = true
		}
	}
	// The snapshot lists every machine's registry in declaration order,
	// then the coordinator's as "fleet".
	snap := res.Metrics
	coord := snap.Machines[len(snap.Machines)-1]

	fmt.Printf("%-8s %-5s %8s %6s %10s %6s %9s %6s\n",
		"MACHINE", "UP", "LOAD", "CKPTS", "STOP-P99", "WAL", "RESTORES", "SYNCS")
	for _, m := range snap.Machines[:len(snap.Machines)-1] {
		up := "yes"
		if dead[m.Machine] {
			up = "DEAD"
		}
		fmt.Printf("%-8s %-5s %8d %6d %10s %6d %9d %6d\n",
			m.Machine, up,
			value(coord.Gauges, "fleet.load."+m.Machine),
			value(m.Counters, "sls.ckpt.total"),
			nsStr(p99(m.Histograms, "sls.stop.ns")),
			value(m.Counters, "sls.wal.commits"),
			value(m.Counters, "sls.restores"),
			value(m.Counters, "sls.replica.syncs"))
	}
	fmt.Printf("\nfleet: alive=%d deaths=%d failovers=%d reseeds=%d orphans=%d sync-errors=%d\n",
		value(coord.Gauges, "fleet.alive"),
		value(coord.Counters, "fleet.deaths"),
		value(coord.Counters, "fleet.failovers"),
		value(coord.Counters, "fleet.reseeds"),
		value(coord.Counters, "fleet.orphans"),
		value(coord.Counters, "fleet.sync_errors"))
	if fo := p99(coord.Histograms, "fleet.failover.ns"); fo > 0 {
		fmt.Printf("fleet: failover p99 %s, ckpt stop p99 %s fleet-wide\n",
			nsStr(fo), nsStr(p99(snap.Merged, "sls.stop.ns")))
	}
	if len(res.SLOBreaches) > 0 {
		fmt.Println()
		for _, b := range res.SLOBreaches {
			fmt.Printf("BREACH %s: %s\n", b.Machine, b.Breach)
		}
	} else {
		fmt.Println("slo: all objectives met")
	}
	return nil
}

// value looks up a counter or gauge reading in a snapshot list (0 when
// absent, as a registry reads an untouched metric).
func value(vs []telemetry.NamedValue, name string) int64 {
	for _, v := range vs {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

// p99 looks up a histogram's 99th percentile in a snapshot list.
func p99(hs []telemetry.HistView, name string) int64 {
	for _, h := range hs {
		if h.Name == name {
			return h.P99
		}
	}
	return 0
}

// nsStr renders a nanosecond quantity compactly for the table.
func nsStr(ns int64) string {
	switch d := time.Duration(ns); {
	case ns <= 0:
		return "-"
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
