package aurora_test

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aurora"
	"aurora/internal/scenario"
	"aurora/internal/telemetry"
)

// glossaryNames reads the metric names from DESIGN.md's "Metrics glossary"
// table: the first backquoted cell of every row.
func glossaryNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = line == "### Metrics glossary"
			continue
		}
		if in && strings.HasPrefix(line, "| `") {
			cell := strings.TrimPrefix(line, "| `")
			names[cell[:strings.Index(cell, "`")]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md has no metrics glossary rows")
	}
	return names
}

// TestMetricsGlossary runs the cross-view workload and the telemetry
// scenarios and fails if any name they record in a registry is missing
// from the glossary. A row ending in <machine> covers every per-machine
// name with that prefix.
func TestMetricsGlossary(t *testing.T) {
	rows := glossaryNames(t)
	known := func(name string) bool {
		if rows[name] {
			return true
		}
		for row := range rows {
			if prefix, ok := strings.CutSuffix(row, "<machine>"); ok && strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}

	_, m, _ := aurora.CrossViewRun(t)
	snaps := []telemetry.Snapshot{m.Metrics.Snapshot("cross-view")}
	for _, name := range []string{"fleet-observability", "fleet-observability-negative", "fleet-kill-rebalance", "wal-gc-soak"} {
		sc, err := scenario.Load(filepath.Join("scenarios", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(sc, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Metrics == nil {
			t.Fatalf("%s exported no metrics", name)
		}
		snaps = append(snaps, res.Metrics.Machines...)
	}

	seen := 0
	for _, s := range snaps {
		var names []string
		for _, v := range append(s.Counters, s.Gauges...) {
			names = append(names, v.Name)
		}
		for _, h := range s.Histograms {
			names = append(names, h.Name)
		}
		for _, name := range names {
			seen++
			if !known(name) {
				t.Errorf("%s records %q, which has no row in the DESIGN.md metrics glossary", s.Machine, name)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no registry metrics recorded")
	}
}
