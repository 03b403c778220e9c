package sls

// The validated-speculation audit battery: lifecycle and state-machine
// tests for speculative restore, adversarial bit-rot tests that force the
// validator to detect corruption and roll back to a serial restore, and a
// fuzzer for the rollback-breadcrumb decoder. The adversarial tests run
// over faultdev (crashprop_test.go's faultWorld) so decay is injected at
// exact device offsets found by scanning for a marker page.

import (
	"bytes"
	"errors"
	"testing"

	"aurora/internal/faultdev"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

func TestSpeculativeRestoreLifecycle(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(32*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 10; pg++ {
		p.WriteMem(va+uint64(pg)*vm.PageSize, []byte{byte(pg + 1)})
	}
	if _, err := g.Checkpoint(CkptFull); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	fl := flight.NewRecorder(256)
	w2.store.SetFlight(fl)
	g2, rst, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Mode != RestoreSpeculative {
		t.Fatalf("stats mode=%v", rst.Mode)
	}
	if rst.TimeToFirstOp <= 0 || rst.TimeToFirstOp != rst.Time {
		t.Fatalf("time-to-first-op %v (restore time %v)", rst.TimeToFirstOp, rst.Time)
	}
	if got := g2.SpecState(); got != SpecSpeculating {
		t.Fatalf("state after restore = %s, want speculating", got)
	}

	// While speculating, the unvalidated memory must not be committable.
	if _, err := g2.Checkpoint(CkptIncremental); !errors.Is(err, ErrSpeculating) {
		t.Fatalf("checkpoint while speculating: err = %v, want ErrSpeculating", err)
	}
	rp := g2.Procs()[0]
	if _, err := g2.MemCkpt(rp, va); !errors.Is(err, ErrSpeculating) {
		t.Fatalf("memckpt while speculating: err = %v, want ErrSpeculating", err)
	}

	// The group runs immediately: demand faults serve validated data.
	buf := make([]byte, 1)
	for pg := int64(0); pg < 5; pg++ {
		if err := rp.ReadMem(va+uint64(pg)*vm.PageSize, buf); err != nil {
			t.Fatalf("fault page %d: %v", pg, err)
		}
		if buf[0] != byte(pg+1) {
			t.Fatalf("page %d = %#x, want %#x", pg, buf[0], byte(pg+1))
		}
	}
	spec, validated := g2.SpecCounts()
	if spec < 5 || validated < 5 {
		t.Fatalf("counts after 5 faults: speculated=%d validated=%d", spec, validated)
	}

	g3, fin, err := w2.o.FinishSpeculation(g2)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if g3 != g2 {
		t.Fatal("clean validation replaced the group")
	}
	if got := g3.SpecState(); got != SpecValidated {
		t.Fatalf("state after finish = %s, want validated", got)
	}
	if fin.Rollbacks != 0 || fin.PagesSpeculated != 5 || fin.PagesValidated < 10 {
		t.Fatalf("finish stats: %+v", fin)
	}

	// A validated group converged to the serial image: every committed
	// page correct, no speculation marks left behind.
	for pg := int64(0); pg < 10; pg++ {
		if err := rp.ReadMem(va+uint64(pg)*vm.PageSize, buf); err != nil {
			t.Fatalf("post-validation read page %d: %v", pg, err)
		}
		if buf[0] != byte(pg+1) {
			t.Fatalf("post-validation page %d = %#x, want %#x", pg, buf[0], byte(pg+1))
		}
	}
	g3.EachRestoredObject(func(oid objstore.OID, obj *vm.Object) {
		if n := obj.SpeculatedCount(); n != 0 {
			t.Fatalf("object %d still carries %d speculation mark(s)", oid, n)
		}
	})
	var sawValidated bool
	for _, ev := range fl.Events() {
		if ev.Kind == flight.EvSpecValidated {
			sawValidated = true
		}
	}
	if !sawValidated {
		t.Fatal("no restore.validated flight event")
	}

	// Validation lifts the commit guard.
	if _, err := g3.Checkpoint(CkptIncremental); err != nil {
		t.Fatalf("checkpoint after validation: %v", err)
	}
}

// noSumSource hides the store's PageSum (and bulk-read) methods: a restore
// source with no per-page ground truth, like a remote sync feed. Fault-time
// checks cannot settle marks against it — only the sweep may.
type noSumSource struct{ Source }

func TestEvictSkipsSpeculatedPages(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte{0xAA})
	if _, err := g.Checkpoint(CkptFull); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2, _, err := w2.o.RestoreGroup("app", noSumSource{w2.store}, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	// With no committed sums available, the fault cannot settle its own
	// mark; until the sweep revisits it, the page daemon must leave the
	// page resident or the validator's work list silently drains.
	rp := g2.Procs()[0]
	buf := make([]byte, 1)
	if err := rp.ReadMem(va, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA {
		t.Fatalf("page 0 = %#x", buf[0])
	}
	var marked *vm.Object
	g2.EachRestoredObject(func(oid objstore.OID, obj *vm.Object) {
		if obj.IsSpeculated(0) {
			marked = obj
		}
	})
	if marked == nil {
		t.Fatal("sum-less fault left no speculation mark")
	}
	st := g2.Evict(100)
	if st.Evicted != 0 {
		t.Fatalf("evicted %d page(s) from a speculating group", st.Evicted)
	}
	if st.SkippedIO < 1 {
		t.Fatalf("eviction pass did not skip the speculated page: %+v", st)
	}
	if _, resident := marked.ResidentPage(0); !resident {
		t.Fatal("speculated page was evicted mid-validation")
	}

	if _, _, err := w2.o.FinishSpeculation(g2); err != nil {
		t.Fatal(err)
	}
	if marked.SpeculatedCount() != 0 {
		t.Fatalf("sweep left %d mark(s)", marked.SpeculatedCount())
	}
}

func TestRestoreGroupsSpeculativeFanOut(t *testing.T) {
	w := newWorld(t)
	names := []string{"g0", "g1", "g2"}
	vas := make([]uint64, len(names))
	for i, name := range names {
		p := w.k.NewProc(name)
		g := w.o.CreateGroup(name)
		if err := g.Attach(p); err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		vas[i] = va
		for pg := int64(0); pg < 4; pg++ {
			p.WriteMem(va+uint64(pg)*vm.PageSize, []byte{byte(16*i + int(pg) + 1)})
		}
		if _, err := g.Checkpoint(CkptFull); err != nil {
			t.Fatal(err)
		}
	}

	w2 := w.crash(t)
	gs, sts, err := w2.o.RestoreGroups(names, w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for i, g := range gs {
		if got := g.SpecState(); got != SpecValidated {
			t.Fatalf("group %s state = %s, want validated", names[i], got)
		}
		if sts[i].Rollbacks != 0 || sts[i].PagesValidated < 4 {
			t.Fatalf("group %s stats: %+v", names[i], sts[i])
		}
		if sts[i].TimeToFirstOp <= 0 || sts[i].TimeToFirstOp >= sts[i].Time {
			t.Fatalf("group %s time-to-first-op %v not below total %v",
				names[i], sts[i].TimeToFirstOp, sts[i].Time)
		}
		rp := g.Procs()[0]
		for pg := int64(0); pg < 4; pg++ {
			if err := rp.ReadMem(vas[i]+uint64(pg)*vm.PageSize, buf); err != nil {
				t.Fatal(err)
			}
			if want := byte(16*i + int(pg) + 1); buf[0] != want {
				t.Fatalf("group %s page %d = %#x, want %#x", names[i], pg, buf[0], want)
			}
		}
	}
}

// setupSpecImage commits an image whose page 0 starts with a unique marker,
// so the adversarial tests can locate its exact device offset and rot it.
func setupSpecImage(t *testing.T) (*faultWorld, uint64, []byte) {
	t.Helper()
	w, err := newFaultWorld(faultdev.Plan{CutAtSubmit: -1})
	if err != nil {
		t.Fatal(err)
	}
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Options.FlushWorkers = 1
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte("spec-rot-target-page-0xA5A5C3C3")
	p.WriteMem(va, marker)
	p.WriteMem(va+1*vm.PageSize, []byte{0x11})
	p.WriteMem(va+2*vm.PageSize, []byte{0x22})
	if _, err := g.Checkpoint(CkptFull); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	return w, va, marker
}

// rebootFault builds a fresh kernel over the recovered store, as after a
// reboot. Recovery is read-only, so it can repeat on the same device.
func rebootFault(t *testing.T, w *faultWorld) *faultWorld {
	t.Helper()
	w.fd.Reopen()
	store, err := objstore.Recover(w.fd, w.clk, w.costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Recover(store, w.clk, w.costs)
	if err != nil {
		t.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), w.clk, w.costs)
	k := kern.New(w.clk, w.costs, vmsys, fs)
	return &faultWorld{clk: w.clk, costs: w.costs, fd: w.fd, store: store, fs: fs, k: k, o: New(k, store)}
}

// findOnDevice scans the raw device for a byte pattern (committed pages
// are stored as raw blocks, so the marker is findable verbatim).
func findOnDevice(fd *faultdev.Dev, marker []byte) (int64, bool) {
	const chunk = 1 << 20
	size := fd.Size()
	buf := make([]byte, chunk+len(marker)-1)
	for off := int64(0); off < size; off += chunk {
		n := size - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		fd.PeekAt(buf[:n], off)
		if i := bytes.Index(buf[:n], marker); i >= 0 {
			return off + int64(i), true
		}
	}
	return 0, false
}

// TestSpeculativeRollbackOnBitRot injects transient media decay into a
// speculated page mid-restore: the validator sweep must detect it, record
// the forensic trail, tear down the husk, and serially re-restore a clean
// replacement once the decay clears.
func TestSpeculativeRollbackOnBitRot(t *testing.T) {
	w, va, marker := setupSpecImage(t)
	off, found := findOnDevice(w.fd, marker)
	if !found {
		t.Fatal("marker page not found on device")
	}

	w2 := rebootFault(t, w)
	fl := flight.NewRecorder(256)
	w2.store.SetFlight(fl)
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 7}})

	g, _, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, verr := g.ValidateSpeculation()
	if !errors.Is(verr, ErrSpeculation) {
		t.Fatalf("validation over rotted image: err = %v, want ErrSpeculation", verr)
	}
	if !rep.Mismatch {
		t.Fatal("sweep did not record the mismatch")
	}

	// The decay was transient: reads are clean again before the rollback's
	// serial restore runs.
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1})
	g2, fin, err := w2.o.FinishSpeculation(g)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if fin.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", fin.Rollbacks)
	}
	if got := g.SpecState(); got != SpecRolledBack {
		t.Fatalf("husk state = %s, want rolled-back", got)
	}
	if got := g2.SpecState(); got != SpecNone {
		t.Fatalf("replacement state = %s, want none", got)
	}

	// The replacement carries the clean serial image.
	rp := g2.Procs()[0]
	buf := make([]byte, len(marker))
	if err := rp.ReadMem(va, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, marker) {
		t.Fatalf("page 0 after rollback = %q", buf)
	}
	for pg, want := range map[int64]byte{1: 0x11, 2: 0x22} {
		if err := rp.ReadMem(va+uint64(pg)*vm.PageSize, buf[:1]); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Fatalf("page %d after rollback = %#x, want %#x", pg, buf[0], want)
		}
	}

	// Forensics: a restore.rollback flight event and a persistent
	// breadcrumb naming the group and the page that broke trust.
	var sawRollback bool
	for _, ev := range fl.Events() {
		if ev.Kind == flight.EvSpecRollback {
			sawRollback = true
			if ev.Detail != "app" {
				t.Fatalf("rollback event names %q", ev.Detail)
			}
		}
	}
	if !sawRollback {
		t.Fatal("no restore.rollback flight event")
	}
	recs := w2.o.SpecRollbackRecords()
	if len(recs) != 1 || recs[0].Group != "app" || recs[0].BadPage != 0 {
		t.Fatalf("breadcrumbs = %+v", recs)
	}
	if probs := w2.store.AuditLive(); len(probs) > 0 {
		t.Fatalf("AuditLive after rollback: %v", probs)
	}
}

// TestSpeculativeFaultTimeCheck rots a page and faults it while still
// speculating: the demand fault itself must refuse to serve the corrupt
// data — the application never observes it, even transiently.
func TestSpeculativeFaultTimeCheck(t *testing.T) {
	w, va, marker := setupSpecImage(t)
	off, found := findOnDevice(w.fd, marker)
	if !found {
		t.Fatal("marker page not found on device")
	}

	w2 := rebootFault(t, w)
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 11}})
	g, _, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	rp := g.Procs()[0]
	buf := make([]byte, len(marker))
	if err := rp.ReadMem(va, buf); err == nil {
		t.Fatal("fault-time check let a rotted page reach the application")
	}
	if _, _, bad := g.SpecMismatch(); !bad {
		t.Fatal("fault-time mismatch not recorded")
	}
	// Clean pages keep faulting fine around the damage.
	if err := rp.ReadMem(va+vm.PageSize, buf[:1]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("clean page 1 = %#x", buf[0])
	}

	// Once the decay clears, the recorded mismatch still forces the
	// rollback, and the replacement serves the true page 0.
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1})
	g2, fin, err := w2.o.FinishSpeculation(g)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if fin.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", fin.Rollbacks)
	}
	p2 := g2.Procs()[0]
	if err := p2.ReadMem(va, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, marker) {
		t.Fatalf("page 0 after rollback = %q", buf)
	}
}

// TestSpeculativePersistentRotFailsSerial keeps the decay armed through the
// rollback: the serial re-restore now verifies eager loads too, so a
// persistently rotted image must fail loudly instead of restoring garbage.
func TestSpeculativePersistentRotFailsSerial(t *testing.T) {
	w, _, marker := setupSpecImage(t)
	off, found := findOnDevice(w.fd, marker)
	if !found {
		t.Fatal("marker page not found on device")
	}

	w2 := rebootFault(t, w)
	fl := flight.NewRecorder(256)
	w2.store.SetFlight(fl)
	w2.fd.Arm(faultdev.Plan{CutAtSubmit: -1, RotOffsets: []int64{off + 3}})
	g, _, err := w2.o.RestoreGroup("app", w2.store, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	g2, fin, err := w2.o.FinishSpeculation(g)
	if err == nil {
		t.Fatal("persistently rotted image restored cleanly")
	}
	if fin.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", fin.Rollbacks)
	}
	if g2 != nil {
		t.Fatal("got a replacement group from a rotted image")
	}
	var sawRollback bool
	for _, ev := range fl.Events() {
		if ev.Kind == flight.EvSpecRollback {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Fatal("no restore.rollback flight event")
	}
}

func TestSpecRecordRoundTrip(t *testing.T) {
	in := SpecRecord{
		Group:     "etc-frontend",
		Epoch:     42,
		Pages:     1337,
		Validated: 1300,
		BadOID:    7,
		BadPage:   99,
	}
	out, err := DecodeSpecRecord(encodeSpecRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	// A flipped byte must fail the seal, not decode into nonsense.
	raw := encodeSpecRecord(in)
	raw[2] ^= 0x01
	if _, err := DecodeSpecRecord(raw); err == nil {
		t.Fatal("corrupted record decoded")
	}
	if _, err := DecodeSpecRecord(nil); err == nil {
		t.Fatal("empty record decoded")
	}
}

// FuzzSpecRecord holds DecodeSpecRecord to its contract: arbitrary bytes
// never panic, and every successful decode re-encodes canonically.
func FuzzSpecRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSpecRecord(SpecRecord{Group: "app", Epoch: 3, Pages: 8, Validated: 8}))
	f.Add(encodeSpecRecord(SpecRecord{Group: "", BadOID: ^objstore.OID(0), BadPage: -1}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := DecodeSpecRecord(raw)
		if err != nil {
			return
		}
		out, err := DecodeSpecRecord(encodeSpecRecord(r))
		if err != nil {
			t.Fatalf("re-decode of a valid record failed: %v", err)
		}
		if out != r {
			t.Fatalf("decode/encode not idempotent: %+v != %+v", out, r)
		}
	})
}
