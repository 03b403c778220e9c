package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end CLI test: builds the sls binary and drives the full verb set
// against machine images on disk — the closest thing to the paper's
// artifact walkthrough.

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sls")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, stdin []byte, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sls %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	img := filepath.Join(dir, "m.img")

	runCLI(t, bin, nil, "-img", img, "init")

	out := runCLI(t, bin, nil, "-img", img, "attach", "-name", "demo", "-steps", "100")
	if !strings.Contains(out, "counter=100") {
		t.Fatalf("attach output: %s", out)
	}

	// A fresh process (a "reboot") continues the counter.
	out = runCLI(t, bin, nil, "-img", img, "restore", "-name", "demo", "-steps", "100")
	if !strings.Contains(out, "counter 100 -> 200") {
		t.Fatalf("restore output: %s", out)
	}

	out = runCLI(t, bin, nil, "-img", img, "ps")
	if !strings.Contains(out, "demo") {
		t.Fatalf("ps output: %s", out)
	}

	out = runCLI(t, bin, nil, "-img", img, "history")
	if !strings.Contains(out, "epoch") {
		t.Fatalf("history output: %s", out)
	}

	// Time travel to a mid-history epoch shows an older counter. (The
	// earliest epochs predate the demo app's first checkpoint.)
	hist := strings.Fields(runCLI(t, bin, nil, "-img", img, "history"))
	epoch := hist[(len(hist)/2)|1] // a middle "epoch N" value
	out = runCLI(t, bin, nil, "-img", img, "timetravel", "-name", "demo", "-epoch", epoch)
	if !strings.Contains(out, "counter=") {
		t.Fatalf("timetravel output: %s", out)
	}

	// Coredump.
	core := filepath.Join(dir, "demo.core")
	runCLI(t, bin, nil, "-img", img, "dump", "-name", "demo", "-o", core)
	data, err := os.ReadFile(core)
	if err != nil || len(data) < 64 || string(data[:4]) != "\x7fELF" {
		t.Fatalf("coredump invalid: err=%v len=%d", err, len(data))
	}

	// Migration: send from m.img, receive into b.img.
	img2 := filepath.Join(dir, "b.img")
	runCLI(t, bin, nil, "-img", img2, "init")
	stream := runRaw(t, bin, nil, "-img", img, "send", "-name", "demo")
	runCLI(t, bin, stream, "-img", img2, "recv")
	out = runCLI(t, bin, nil, "-img", img2, "restore", "-name", "demo", "-steps", "10")
	if !strings.Contains(out, "counter 200 -> 210") {
		t.Fatalf("migrated restore output: %s", out)
	}

	// Suspend, resume, fsck.
	runCLI(t, bin, nil, "-img", img, "suspend", "-name", "demo")
	out = runCLI(t, bin, nil, "-img", img, "restore", "-name", "demo", "-steps", "1")
	if !strings.Contains(out, "-> 201") {
		t.Fatalf("post-suspend restore: %s", out)
	}
	out = runCLI(t, bin, nil, "-img", img, "fsck")
	if !strings.Contains(out, "consistent") {
		t.Fatalf("fsck output: %s", out)
	}
}

// TestCLIReplicate drives the replicate verb over a lossy simulated wire:
// the standby image must end up restorable at the last synced counter.
func TestCLIReplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	img := filepath.Join(dir, "primary.img")
	stb := filepath.Join(dir, "standby.img")

	runCLI(t, bin, nil, "-img", img, "init")
	runCLI(t, bin, nil, "-img", stb, "init")
	runCLI(t, bin, nil, "-img", img, "attach", "-name", "demo", "-steps", "100")

	out := runCLI(t, bin, nil, "-img", img, "replicate",
		"-name", "demo", "-dst", stb, "-syncs", "2", "-steps", "25",
		"-drop", "0.05", "-dup", "0.05", "-corrupt", "0.05", "-seed", "7")
	if !strings.Contains(out, "sync 2: counter=150") {
		t.Fatalf("replicate output: %s", out)
	}
	if !strings.Contains(out, "2 syncs") && !strings.Contains(out, "3 syncs") {
		t.Fatalf("replicate output missing totals: %s", out)
	}

	// Failover: the standby image restores the app at the last synced state.
	out = runCLI(t, bin, nil, "-img", stb, "restore", "-name", "demo", "-steps", "10")
	if !strings.Contains(out, "counter 150 -> 160") {
		t.Fatalf("standby restore output: %s", out)
	}
	out = runCLI(t, bin, nil, "-img", stb, "fsck")
	if !strings.Contains(out, "consistent") {
		t.Fatalf("standby fsck output: %s", out)
	}
}

// runRaw returns stdout alone (binary streams).
func runRaw(t *testing.T, bin string, stdin []byte, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sls %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

func TestCLIBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	if err := exec.Command(bin, "bogus-verb").Run(); err == nil {
		t.Fatal("unknown verb succeeded")
	}
	if err := exec.Command(bin, "-img", "/nonexistent/x.img", "ps").Run(); err == nil {
		t.Fatal("missing image succeeded")
	}
}

// TestCLIFleetGolden pins the demo fleet's output byte for byte: the run
// is a seeded scenario on virtual clocks, so any drift is a change in the
// engine, the coordinator, or the rendering. After an intended change,
// regenerate with
//
//	go run ./cmd/sls fleet status -kill m1 > cmd/sls/testdata/fleet-status-kill-m1.golden
//	go run ./cmd/sls top -kill m1 > cmd/sls/testdata/top-kill-m1.golden
func TestCLIFleetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"fleet-status-kill-m1.golden", []string{"fleet", "status", "-kill", "m1"}},
		{"top-kill-m1.golden", []string{"top", "-kill", "m1"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := runCLI(t, bin, nil, c.args...); got != string(want) {
			t.Errorf("sls %s differs from testdata/%s:\n--- got\n%s--- want\n%s", strings.Join(c.args, " "), c.golden, got, want)
		}
	}
}
