package audit

import (
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

type world struct {
	clk   *clock.Virtual
	store *objstore.Store
	k     *kern.Kernel
	o     *sls.Orchestrator
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 1<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	return &world{clk: clk, store: store, k: k, o: sls.New(k, store)}
}

// busyWorld attaches one process with mapped memory, a pipe, and a socket
// pair — enough graph to exercise every rule family.
func busyWorld(t *testing.T) (*world, *kern.Proc) {
	t.Helper()
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("audit me"))
	if _, _, err := p.Pipe(); err != nil {
		t.Fatal(err)
	}
	child := p.Fork()
	child.WriteMem(va, []byte("diverged"))
	return w, p
}

func TestCleanSystemPasses(t *testing.T) {
	w, _ := busyWorld(t)
	a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	rep := a.Run()
	if !rep.OK() {
		t.Fatalf("clean system audit failed:\n%s", rep)
	}
	if rep.Rules < 5 {
		t.Fatalf("expected >=5 rule families, got %d", rep.Rules)
	}
	if rep.Objects == 0 {
		t.Fatal("audit visited no objects")
	}
}

func TestCleanAfterCheckpointAndCrash(t *testing.T) {
	w, _ := busyWorld(t)
	g, _ := w.o.GroupByName("app")
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("post-checkpoint audit failed:\n%s", rep)
	}
}

func TestEpochRegressionDetected(t *testing.T) {
	w, _ := busyWorld(t)
	g, _ := w.o.GroupByName("app")
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	a := &Auditor{Store: w.store, O: w.o, Clk: w.clk}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("baseline: %s", rep)
	}
	// Seed the watchdog memory ahead of reality: the next pass must flag
	// the apparent regression for both the store and the group.
	a.lastStoreEpoch = a.lastStoreEpoch + 100
	a.lastGroupEpoch["app"] = a.lastGroupEpoch["app"] + 100
	rep := a.Run()
	if rep.OK() {
		t.Fatal("epoch regression not detected")
	}
	var store, group bool
	for _, v := range rep.Violations {
		if v.Rule == "store.epoch" {
			store = true
		}
		if v.Rule == "sls.epoch" && strings.Contains(v.Detail, "backwards") {
			group = true
		}
	}
	if !store || !group {
		t.Fatalf("missing regression violations (store=%v group=%v):\n%s", store, group, rep)
	}
}

func TestViolationsFeedFlightRing(t *testing.T) {
	w, _ := busyWorld(t)
	fl := flight.NewRecorder(0)
	a := &Auditor{Store: w.store, O: w.o, Fl: fl, Clk: w.clk}
	a.lastStoreEpoch = 100 // force a violation
	rep := a.Run()
	if rep.OK() {
		t.Fatal("expected a violation")
	}
	evs := fl.Events()
	if len(evs) == 0 {
		t.Fatal("no flight events recorded")
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == flight.EvAuditViolation && strings.Contains(ev.Detail, "store.epoch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvAuditViolation with store.epoch detail in %v", evs)
	}
}

// TestSpecLeftoverMarkDetected drives a group through the full speculative
// lifecycle and checks both sides of the sls.spec rule: while the group is
// still speculating, marks are expected and the audit stays clean; once
// validation has settled, a lingering mark means the validator lied about
// finishing and must be flagged.
func TestSpecLeftoverMarkDetected(t *testing.T) {
	w, _ := busyWorld(t)
	g, _ := w.o.GroupByName("app")
	if _, err := g.Checkpoint(sls.CkptFull); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Retire the live group before restoring its image, the way a real
	// restart would — otherwise two groups answer to "app" and the epoch
	// rule (rightly) cries foul.
	for _, p := range g.Procs() {
		p.Exit(0)
	}
	w.o.Forget(g)
	g2, _, err := w.o.RestoreGroup("app", w.store, sls.RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}

	// Plant a mark by hand: during speculation this is the normal state.
	var obj *vm.Object
	g2.EachRestoredObject(func(_ objstore.OID, o *vm.Object) {
		if obj == nil {
			obj = o
		}
	})
	if obj == nil {
		t.Fatal("restored group exposes no objects")
	}
	obj.MarkSpeculated(0)
	// Fresh auditors per phase: the epoch watchdog's memory is orthogonal
	// to the spec rule, and a restored group legitimately restarts its
	// epoch counter.
	audit := func() Report {
		a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
		return a.Run()
	}
	if rep := audit(); !rep.OK() {
		t.Fatalf("marks during speculation flagged:\n%s", rep)
	}

	g3, fin, err := w.o.FinishSpeculation(g2)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Rollbacks != 0 {
		t.Fatalf("clean image rolled back: %+v", fin)
	}
	if rep := audit(); !rep.OK() {
		t.Fatalf("validated group flagged:\n%s", rep)
	}
	// Now re-plant the mark on the settled group: the validator claims it
	// finished, so the mark is a contradiction the audit must catch.
	obj = nil
	g3.EachRestoredObject(func(_ objstore.OID, o *vm.Object) {
		if obj == nil {
			obj = o
		}
	})
	if obj == nil {
		t.Fatal("validated group exposes no objects")
	}
	obj.MarkSpeculated(0)
	rep := audit()
	if rep.OK() {
		t.Fatal("leftover speculation mark not detected")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "sls.spec" && strings.Contains(v.Detail, "speculation mark") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sls.spec violation in:\n%s", rep)
	}
	obj.ClearSpeculated(0)
	if rep := audit(); !rep.OK() {
		t.Fatalf("audit dirty after clearing the mark:\n%s", rep)
	}
}

func TestStoreOnlyAuditor(t *testing.T) {
	// The crash harness runs with only a store: every other layer must be
	// skippable without nil panics.
	w := newWorld(t)
	a := &Auditor{Store: w.store}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("store-only audit failed:\n%s", rep)
	}
}

func TestDeadObjectInEntryDetected(t *testing.T) {
	w, p := busyWorld(t)
	// Find a mapped object and force-kill it behind the map's back.
	var obj *vm.Object
	for _, e := range p.Mem.Entries() {
		if e.Obj != nil {
			obj = e.Obj
			break
		}
	}
	if obj == nil {
		t.Fatal("no mapped object")
	}
	for obj.RefCount() > 0 {
		obj.Deref()
	}
	a := &Auditor{Store: w.store, O: w.o, Clk: w.clk}
	rep := a.Run()
	if rep.OK() {
		t.Fatal("dead mapped object not detected")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "vm.ref" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected vm.ref violation, got:\n%s", rep)
	}
}

func TestWatchdogCadence(t *testing.T) {
	w, _ := busyWorld(t)
	a := &Auditor{Store: w.store, O: w.o, Clk: w.clk}
	wd := &Watchdog{A: a, Interval: 10 * time.Millisecond}

	if _, ran := wd.MaybeRun(w.clk.Now()); !ran {
		t.Fatal("first pass must run")
	}
	if _, ran := wd.MaybeRun(w.clk.Now()); ran {
		t.Fatal("second pass ran before the interval elapsed")
	}
	w.clk.Advance(11 * time.Millisecond)
	rep, ran := wd.MaybeRun(w.clk.Now())
	if !ran {
		t.Fatal("pass did not run after the interval")
	}
	if !rep.OK() {
		t.Fatalf("watchdog pass failed:\n%s", rep)
	}
	if wd.Runs() != 2 {
		t.Fatalf("runs = %d, want 2", wd.Runs())
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Rules: 3, Objects: 7}
	if !strings.Contains(rep.String(), "ok") {
		t.Fatalf("clean report string: %q", rep.String())
	}
	rep.Violations = append(rep.Violations, Violation{Rule: "vm.ref", Detail: "boom"})
	s := rep.String()
	if !strings.Contains(s, "vm.ref: boom") {
		t.Fatalf("violation not rendered: %q", s)
	}
}

// TestOSCleanCatchesSkippedBump shows the sls.osclean rule has teeth: a
// mutation that skips its generation bump leaves incremental checkpoints
// keeping the stale record, and the audit names the object — without
// charging virtual time. The proper mutator bumps, the next checkpoint
// rewrites the record, and the rule clears.
func TestOSCleanCatchesSkippedBump(t *testing.T) {
	w, p := busyWorld(t)
	g, _ := w.o.GroupByName("app")
	fd, err := p.Socket(kern.KindSocketTCP)
	if err != nil {
		t.Fatal(err)
	}
	// A pipe with a full buffer spills its record out of line: the audit
	// must read that one through the store's untimed port.
	_, wfd, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetFlags(wfd, kern.OWrite|kern.ONonblock); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Write(wfd, make([]byte, kern.PipeCapacity)); err != nil || n != kern.PipeCapacity {
		t.Fatalf("fill pipe: %d, %v", n, err)
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	at := w.clk.Now()
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("audit after checkpoint:\n%s", rep)
	}
	if w.clk.Now() != at {
		t.Fatalf("audit charged %v of virtual time", w.clk.Now()-at)
	}

	sk, err := p.Sock(fd)
	if err != nil {
		t.Fatal(err)
	}
	sk.Options = 0xbeef // recorded state changed behind the kernel's back
	st, err := g.Checkpoint(sls.CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if st.CleanObjects == 0 {
		t.Fatal("checkpoint rewrote every record; nothing left to audit")
	}
	at = w.clk.Now()
	rep := a.Run()
	if w.clk.Now() != at {
		t.Fatalf("audit charged %v of virtual time", w.clk.Now()-at)
	}
	var hits []Violation
	for _, v := range rep.Violations {
		if v.Rule == "sls.osclean" {
			hits = append(hits, v)
		}
	}
	if len(hits) != 1 || len(rep.Violations) != 1 || !strings.Contains(hits[0].Detail, "*kern.Socket") {
		t.Fatalf("want exactly one sls.osclean violation naming the socket, got:\n%s", rep)
	}

	if err := p.SetSockOpt(fd, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("audit after the bumping mutator:\n%s", rep)
	}
}

// TestPTECoherenceAfterSharedWrite: after a checkpoint, a process reading
// a MAP_SHARED page installs a translation of the frozen frame; its
// sibling's copy-on-write of the page must retire that translation. The
// vm.pte coherence rule sees a stale one as a live translation mapping a
// frame the entry's object no longer resolves.
func TestPTECoherenceAfterSharedWrite(t *testing.T) {
	w := newWorld(t)
	a := w.k.NewProc("a")
	g := w.o.CreateGroup("app")
	if err := g.Attach(a); err != nil {
		t.Fatal(err)
	}
	va, err := a.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, true)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Fork()
	a.WriteMem(va, []byte("old"))
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	b.ReadMem(va, got)
	a.WriteMem(va, []byte("new"))
	aud := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	if rep := aud.Run(); !rep.OK() {
		t.Fatalf("audit after the shared write:\n%s", rep)
	}
	b.ReadMem(va, got)
	if string(got) != "new" {
		t.Fatalf("b reads %q, want \"new\"", got)
	}
}

// TestCleanAcrossSteadyStateCollapses: checkpoints every interval with
// forked, shared, and private memory; after each the chains stay at two
// links and every rule family holds.
func TestCleanAcrossSteadyStateCollapses(t *testing.T) {
	w := newWorld(t)
	a := w.k.NewProc("a")
	g := w.o.CreateGroup("app")
	if err := g.Attach(a); err != nil {
		t.Fatal(err)
	}
	priv, _ := a.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	shared, _ := a.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, true)
	b := a.Fork()
	aud := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	buf := make([]byte, 8)
	for i := 0; i < 12; i++ {
		for pg := 0; pg < 16; pg++ {
			off := uint64((pg+i)%32) * vm.PageSize
			a.WriteMem(priv+off, []byte{byte(i)})
			b.ReadMem(shared+off, buf)
			a.WriteMem(shared+off, []byte{byte(i)})
			b.ReadMem(shared+off, buf)
			if buf[0] != byte(i) {
				t.Fatalf("interval %d page %d: b reads %d through the shared mapping, want %d", i, pg, buf[0], i)
			}
		}
		if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if rep := aud.Run(); !rep.OK() {
			t.Fatalf("checkpoint %d:\n%s", i+1, rep)
		}
		for _, p := range []*kern.Proc{a, b} {
			ent, _ := p.Mem.EntryAt(shared)
			if n := ent.Obj.ChainLength(); n > 2 {
				t.Fatalf("checkpoint %d: pid %d shared chain length %d, want <= 2", i+1, p.LocalPID, n)
			}
		}
	}
}
