package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashSrc is a small but eventful scenario: a checkpointing memcached
// workload, a torn power cut, a restore, and forensic assertions. It
// exercises the crash path end to end without taking corpus-run time.
const crashSrc = `
name: unit-crash
duration_ms: 40
seed: 9
machines:
  - name: alpha
workloads:
  - machine: alpha
    group: demo
    app: memcached
    generator: etc
    items: 512
    ops_per_tick: 30
    checkpoint_every_ms: 10
events:
  - at_ms: 20
    kind: power-cut
    machine: alpha
    torn: true
  - at_ms: 22
    kind: restore
    machine: alpha
    group: demo
assertions:
  - kind: flight-contains
    machine: alpha
    event: power.cut
  - kind: audit-clean
    machine: alpha
  - kind: fsck-clean
    machine: alpha
  - kind: group-on
    machine: alpha
    group: demo
`

func TestRunDeterministicFingerprint(t *testing.T) {
	sc, err := Parse([]byte(crashSrc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Passed {
		t.Fatalf("scenario failed:\n%s", a.Summary())
	}
	sc2, _ := Parse([]byte(crashSrc))
	b, err := Run(sc2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	// A different seed must actually change the observable run (otherwise
	// the fingerprint is pinning less than it claims).
	sc3, _ := Parse([]byte(crashSrc))
	c, err := Run(sc3, RunOptions{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatalf("seed override did not change the fingerprint")
	}
}

func TestRunNegativeExpectation(t *testing.T) {
	src := strings.Replace(crashSrc, "name: unit-crash", "name: unit-neg\nexpect: fail", 1)
	src += `
  - kind: ops-at-least
    group: demo
    min: 999999999
`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AssertionsOK {
		t.Fatal("impossible assertion reported OK")
	}
	if !res.Passed {
		t.Fatal("expect: fail scenario with tripped assertions must pass")
	}
}

// TestCorpus sweeps the shipped scenarios/ corpus — the same files CI
// fans out over — and requires every one to pass with its declared seed.
func TestCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no corpus: %v", err)
	}
	files, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("corpus has %d scenarios, want >= 8", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Fatalf("scenario failed:\n%s", res.Summary())
			}
		})
	}
}

func TestWriteArtifacts(t *testing.T) {
	sc, err := Parse([]byte(crashSrc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"summary.txt", "result.json", "flight-alpha.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing artifact %s: %v", want, err)
		}
	}
	fl, err := os.ReadFile(filepath.Join(dir, "flight-alpha.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fl), "power.cut") {
		t.Fatalf("flight artifact missing the cut:\n%s", fl)
	}
}

// TestMachinesRunOnTheirOwnClocks is the engine's clock contract: every
// machine spends a tick on its own clock and the barrier waits only for
// the slowest, so N machines whose per-tick work overruns the tick do N
// times the work of one in the same virtual duration. On one shared clock
// their work would add up and the fleet would do no more than one machine.
func TestMachinesRunOnTheirOwnClocks(t *testing.T) {
	fleet := func(n int) *Scenario {
		sc := &Scenario{Name: fmt.Sprintf("clocks-%d", n), DurationMS: 60}
		for i := 0; i < n; i++ {
			m := fmt.Sprintf("m%d", i)
			sc.Machines = append(sc.Machines, MachineDecl{Name: m})
			// 400 increments at 10µs each: 4ms of work per 1ms tick.
			sc.Workloads = append(sc.Workloads, WorkloadDecl{
				Machine: m, Group: "g" + m, App: AppCounter, OpsPerTick: 400, CheckpointEveryMS: 5,
			})
			sc.Assertions = append(sc.Assertions, AssertionDecl{Kind: AssertAuditClean, Machine: m})
		}
		return sc
	}
	ops := func(n int) (int64, int64) {
		res, err := Run(fleet(n), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("%d machines:\n%s", n, res.Summary())
		}
		var total int64
		for _, g := range res.Groups {
			total += g.Ops
		}
		return total, res.ElapsedNS
	}
	one, oneElapsed := ops(1)
	four, fourElapsed := ops(4)
	if ratio := float64(four) / float64(one); ratio < 3.5 {
		t.Fatalf("4 machines did %d ops in %v, 1 machine %d ops in %v: %.2fx, want >= 3.5x",
			four, time.Duration(fourElapsed), one, time.Duration(oneElapsed), ratio)
	}
}
