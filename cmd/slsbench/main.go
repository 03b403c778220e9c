// Command slsbench regenerates the paper's evaluation (§9): one subcommand
// per table and figure, printing the same rows or series the paper reports.
//
//	slsbench all                 # everything, full scale
//	slsbench -quick all          # everything, CI-sized
//	slsbench table5 fig4         # a subset
//
// Experiments: table1, fig3a, fig3b, fig3c, fig3d, table4, table5, table6,
// fig4, fig5, fig6, table7, repl (replication lag under lossy wires),
// walwindow, fleet, restore (serial vs speculative time to first request).
//
// With -trace FILE, a checkpoint+crash+lazy-restore scenario runs under the
// virtual-clock tracer and its timeline is written to FILE as Chrome
// trace-event JSON (loadable in ui.perfetto.dev), with a text rollup on
// stdout. -trace works standalone, with no experiment arguments.
//
// With -inspect, the same scenario additionally prints the machine's
// introspection page after the restore — store/group tables, the recovered
// pre-crash flight timeline, and the invariant-audit report — and fails if
// the audit finds violations.
//
// With -scenario PATH (a scenario file or a corpus directory), the
// declarative chaos engine runs each scenario as a benchmark: the summary
// plus wall time per scenario, failing if any scenario fails. -stretch
// multiplies the scenario timelines, turning the corpus into a soak run.
//
// With -results DIR, every experiment additionally writes a
// BENCH_<experiment>.json artifact under DIR — the typed result rows the
// table rendered, plus scale and wall time — the machine-readable record
// CI uploads so runs can be compared without scraping stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aurora"
	"aurora/internal/experiments"
	"aurora/internal/scenario"
	"aurora/internal/vm"
)

type runner struct {
	name string
	fn   func(experiments.Scale) (renderer, error)
}

type renderer interface{ Render() string }

// wrap adapts the typed experiment functions.
func wrap[T renderer](fn func(experiments.Scale) (T, error)) func(experiments.Scale) (renderer, error) {
	return func(s experiments.Scale) (renderer, error) { return fn(s) }
}

func main() {
	quick := flag.Bool("quick", false, "CI-sized working sets")
	traceOut := flag.String("trace", "", "write a Chrome trace of a checkpoint+restore run to FILE")
	inspect := flag.Bool("inspect", false, "print the post-restore introspection page and audit report")
	scenarioPath := flag.String("scenario", "", "run a chaos scenario file or corpus directory as a benchmark")
	stretch := flag.Int64("stretch", 0, "multiply scenario timelines (soak runs; with -scenario)")
	results := flag.String("results", "", "write BENCH_<experiment>.json artifacts under DIR")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	if *scenarioPath != "" {
		if err := runScenarios(*scenarioPath, *stretch); err != nil {
			fmt.Fprintf(os.Stderr, "slsbench: scenario: %v\n", err)
			os.Exit(1)
		}
		if flag.NArg() == 0 && *traceOut == "" && !*inspect {
			return
		}
	}

	if *traceOut != "" || *inspect {
		if err := runTrace(*traceOut, scale, *inspect); err != nil {
			fmt.Fprintf(os.Stderr, "slsbench: trace: %v\n", err)
			os.Exit(1)
		}
		if flag.NArg() == 0 {
			return
		}
	}

	all := []runner{
		{"table1", wrap(experiments.Table1)},
		{"fig3a", wrap(experiments.Fig3a)},
		{"fig3b", wrap(experiments.Fig3b)},
		{"fig3c", wrap(experiments.Fig3c)},
		{"fig3d", wrap(experiments.Fig3d)},
		{"table4", func(experiments.Scale) (renderer, error) { return experiments.Table4() }},
		{"table5", wrap(experiments.Table5)},
		{"table6", wrap(experiments.Table6)},
		{"fig4", wrap(experiments.Fig4)},
		{"fig5", wrap(experiments.Fig5)},
		{"fig6", wrap(experiments.Fig6)},
		{"table7", wrap(experiments.Table7)},
		{"repl", wrap(experiments.Replication)},
		{"walwindow", wrap(experiments.WALWindow)},
		{"fleet", wrap(experiments.Fleet)},
		{"restore", wrap(experiments.RestoreBench)},
	}
	byName := map[string]runner{}
	for _, r := range all {
		byName[r.name] = r
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: slsbench [-quick] [-trace FILE] all | EXPERIMENT...")
		os.Exit(2)
	}
	var todo []runner
	for _, a := range args {
		if a == "all" {
			todo = all
			break
		}
		r, ok := byName[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "slsbench: unknown experiment %q\n", a)
			os.Exit(2)
		}
		todo = append(todo, r)
	}

	for _, r := range todo {
		start := time.Now()
		res, err := r.fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slsbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v wall time]\n\n", r.name, wall.Round(time.Millisecond))
		if *results != "" {
			if err := writeBenchArtifact(*results, r.name, *quick, res, wall); err != nil {
				fmt.Fprintf(os.Stderr, "slsbench: %s: artifact: %v\n", r.name, err)
				os.Exit(1)
			}
		}
	}
}

// benchArtifact is the machine-readable record one experiment leaves
// behind: the typed result struct the renderer printed, plus enough
// context (scale, wall time) to compare artifacts across CI runs.
type benchArtifact struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	WallMS     int64  `json:"wall_ms"`
	Result     any    `json:"result"`
}

// writeBenchArtifact dumps BENCH_<experiment>.json under dir. The result
// rows are virtual-clock measurements — deterministic across runs —
// while wall_ms is the host-time cost of regenerating them.
func writeBenchArtifact(dir, name string, quick bool, res any, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scaleName := "full"
	if quick {
		scaleName = "quick"
	}
	blob, err := json.MarshalIndent(benchArtifact{
		Experiment: name,
		Scale:      scaleName,
		WallMS:     wall.Milliseconds(),
		Result:     res,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runScenarios treats a chaos corpus as a benchmark suite: every scenario
// under path (a file or a directory) runs with its declared seed, printing
// the assertion summary plus the wall time the simulation took. Scenario
// time is virtual, so wall time here measures the engine itself — it is
// the number that regresses when checkpointing or the flusher gets slower.
func runScenarios(path string, stretch int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = scenario.Discover(path); err != nil {
			return err
		}
	}
	failed := 0
	for _, f := range files {
		sc, err := scenario.Load(f)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := scenario.Run(sc, scenario.RunOptions{Stretch: stretch})
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		fmt.Print(res.Summary())
		fmt.Printf("[%s completed in %v wall time]\n\n", sc.Name, time.Since(start).Round(time.Millisecond))
		if !res.Passed {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(files))
	}
	return nil
}

// runTrace drives a traced machine through four dirty-and-checkpoint
// rounds, a power loss, and a lazy restore that pages the working set back
// in — enough activity that the exported timeline has spans on every track
// (sls, flush, objstore, device) — then writes the Chrome trace to path and
// prints the rollup: span time per track, then the registry's counters and
// histograms.
func runTrace(path string, scale experiments.Scale, inspect bool) error {
	pages := int64(256)
	if scale == experiments.Quick {
		pages = 64
	}
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30, Trace: true, Telemetry: true})
	if err != nil {
		return err
	}
	p := m.Spawn("traced")
	if _, err := p.Mmap(pages*aurora.PageSize, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		return err
	}
	g, err := m.Attach("traced", p)
	if err != nil {
		return err
	}
	buf := make([]byte, aurora.PageSize)
	for round := 0; round < 4; round++ {
		buf[0] = byte(round + 1)
		for pg := int64(0); pg < pages; pg++ {
			if err := p.WriteMem(vm.UserBase+uint64(pg*aurora.PageSize), buf); err != nil {
				return err
			}
		}
		m.Clock.Advance(10 * time.Millisecond)
		if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
			return err
		}
	}
	if err := g.Barrier(); err != nil {
		return err
	}
	m2, err := m.Crash() // the tracer and registry ride across the reboot
	if err != nil {
		return err
	}
	g2, _, err := m2.RestoreLazily("traced")
	if err != nil {
		return err
	}
	p2 := g2.Procs()[0]
	for pg := int64(0); pg < pages; pg++ {
		if err := p2.ReadMem(vm.UserBase+uint64(pg*aurora.PageSize), buf); err != nil {
			return err
		}
	}

	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m2.Tracer.WriteChrome(f); err != nil {
			return err
		}
		fmt.Print(m2.Tracer.Rollup())
		fmt.Print(m2.Metrics.Rollup())
		fmt.Printf("[trace written to %s]\n\n", path)
	}
	if inspect {
		r := m2.Inspect(16)
		fmt.Print(r.Text())
		if !r.Audit.OK() {
			return fmt.Errorf("invariant audit failed: %s", r.Audit)
		}
	}
	return nil
}
