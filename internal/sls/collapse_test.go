package sls

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/kern"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// Shared memory after a checkpoint: both views resolve through the same
// new live shadow, so a read translation one process installs from the
// frozen frame must not survive the other process's copy-on-write of that
// page. Before frames carried a generation, the reader kept seeing the
// frozen bytes.

func checkNoStaleRead(t *testing.T, g *Group, a, b *kern.Proc, vaA, vaB uint64) {
	t.Helper()
	a.WriteMem(vaA, []byte("old"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	b.ReadMem(vaB, got) // installs a read translation of the frozen frame
	if string(got) != "old" {
		t.Fatalf("b before the write: %q", got)
	}
	a.WriteMem(vaA, []byte("new")) // copy-on-write into the live shadow
	b.ReadMem(vaB, got)
	if string(got) != "new" {
		t.Fatalf("b reads %q after a's write, want \"new\" (stale translation)", got)
	}
}

func TestSharedAnonForkNoStaleRead(t *testing.T) {
	w := newWorld(t)
	a := w.k.NewProc("a")
	g := w.o.CreateGroup("app")
	g.Attach(a)
	va, _ := a.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, true)
	b := a.Fork()
	checkNoStaleRead(t, g, a, b, va, va)
}

func TestShmSegmentNoStaleRead(t *testing.T) {
	w := newWorld(t)
	a := w.k.NewProc("a")
	b := w.k.NewProc("b")
	g := w.o.CreateGroup("app")
	g.Attach(a)
	g.Attach(b)
	afd, _ := a.ShmOpen("/seg", 1<<20)
	bfd, _ := b.ShmOpen("/seg", 1<<20)
	vaA, _ := a.MmapShm(afd, vm.ProtRead|vm.ProtWrite)
	vaB, _ := b.MmapShm(bfd, vm.ProtRead|vm.ProtWrite)
	checkNoStaleRead(t, g, a, b, vaA, vaB)
}

// dirtyPages writes one byte into each of the first n pages at va.
func dirtyPages(t *testing.T, p *kern.Proc, va uint64, n int, val byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.WriteMem(va+uint64(i)*vm.PageSize, []byte{val}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuiesceIsFloorPlusIPIs: the reversed collapse no longer runs inside
// the stop window, so the quiesce stage costs the same whether the
// previous interval dirtied 16 pages or 4096.
func TestQuiesceIsFloorPlusIPIs(t *testing.T) {
	for _, n := range []int{16, 4096} {
		w, tr, _ := tracedWorld(t)
		p := w.k.NewProc("app")
		g := w.o.CreateGroup("app")
		g.Attach(p)
		va, _ := p.Mmap(32<<20, vm.ProtRead|vm.ProtWrite, false)
		for i := 0; i < 4; i++ {
			dirtyPages(t, p, va, n, byte(i+1))
			if _, err := g.Checkpoint(CkptIncremental); err != nil {
				t.Fatal(err)
			}
		}
		want := w.costs.CheckpointFloor + time.Duration(w.k.CPUCount)*w.costs.IPIRound
		quiesces := spansNamed(tr.Events(), "quiesce")
		if len(quiesces) != 4 {
			t.Fatalf("%d pages: %d quiesce spans, want 4", n, len(quiesces))
		}
		for i, q := range quiesces {
			if q.Dur != want {
				t.Errorf("%d pages: checkpoint %d quiesce = %v, want floor + IPIs = %v", n, i+1, q.Dur, want)
			}
		}
		if got := len(spansNamed(tr.Events(), "collapse")); got != 3 {
			t.Errorf("%d pages: %d collapse spans, want 3 (every checkpoint after the first)", n, got)
		}
	}
}

// TestCollapseWindowContention: a fault inside the background collapse
// window pays FaultContention; the same fault after the window does not.
func TestCollapseWindowContention(t *testing.T) {
	w, tr, reg := tracedWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(16<<20, vm.ProtRead|vm.ProtWrite, false)
	const n = 1024
	dirtyPages(t, p, va, n, 1)
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, p, va, n, 2)
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	spans := spansNamed(tr.Events(), "collapse")
	if len(spans) != 1 {
		t.Fatalf("collapse spans = %d, want 1", len(spans))
	}
	win := spans[0]
	if win.Track != trace.TrackSLS {
		t.Errorf("collapse span on track %v, want sls", win.Track)
	}
	if pages, _ := argOf(win, "pages"); pages != int64(n) {
		t.Fatalf("collapse pages arg = %v, want %d", pages, n)
	}
	if win.Start != st.DurableAt || win.Dur != n*w.costs.CollapsePerPage {
		t.Fatalf("collapse window [%v +%v), want [DurableAt %v +%v)", win.Start, win.Dur, st.DurableAt, n*w.costs.CollapsePerPage)
	}
	if c := reg.Counter("sls.collapse.pages").Value(); c != n {
		t.Errorf("sls.collapse.pages = %d, want %d", c, n)
	}
	if h := reg.HistogramCopy("sls.collapse.ns").Snapshot(); h.Count != 1 || time.Duration(h.Sum) != win.Dur {
		t.Errorf("sls.collapse.ns = %d samples summing %v, want 1 summing %v", h.Count, time.Duration(h.Sum), win.Dur)
	}

	// One copy-on-write fault per page: fault cost is the clock's advance.
	fault := func(pg int) time.Duration {
		before := w.clk.Now()
		dirtyPages(t, p, va+uint64(pg)*vm.PageSize, 1, 3)
		return w.clk.Now() - before
	}
	w.clk.Advance(win.Start - w.clk.Now())
	if w.store.PendingDurable() > w.clk.Now() {
		t.Fatal("store writes still in flight at the window start")
	}
	inside := fault(0)
	w.clk.Advance(win.Start + win.Dur - w.clk.Now())
	after := fault(1)
	if inside-after != w.costs.FaultContention {
		t.Errorf("fault inside the window %v, after it %v: difference %v, want FaultContention %v",
			inside, after, inside-after, w.costs.FaultContention)
	}
}

// TestCollapseWindowsSerialize: a window never starts before the previous
// one ends, and only the instants inside a window count as contended.
func TestCollapseWindowsSerialize(t *testing.T) {
	w := newWorld(t)
	o := w.o
	if s, e := o.collapseWindow(100, 50); s != 100 || e != 150 {
		t.Fatalf("first window [%v,%v), want [100,150)", s, e)
	}
	if s, e := o.collapseWindow(120, 10); s != 150 || e != 160 {
		t.Fatalf("second window [%v,%v), want [150,160)", s, e)
	}
	for _, c := range []struct {
		at   time.Duration
		want bool
	}{{99, false}, {100, true}, {149, true}, {155, true}, {160, false}} {
		if got := o.collapsing(c.at); got != c.want {
			t.Errorf("collapsing(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestSteadyStateChainLength: with the collapse right after each flush,
// a live object sits directly on its persistent base between checkpoints,
// and memory contents are intact.
func TestSteadyStateChainLength(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	for i := 0; i < 10; i++ {
		dirtyPages(t, p, va, 8+i, byte(i+1))
		kind := CkptIncremental
		if i%3 == 2 {
			kind = CkptWAL
		}
		if _, err := g.Checkpoint(kind); err != nil {
			t.Fatal(err)
		}
		ent, _ := p.Mem.EntryAt(va)
		if got := ent.Obj.ChainLength(); got > 2 {
			t.Fatalf("checkpoint %d: chain length %d, want <= 2", i+1, got)
		}
	}
	// The last interval wrote 10 into pages 0..16; page 17 was never written.
	got := make([]byte, 18)
	for i := range got {
		p.ReadMem(va+uint64(i)*vm.PageSize, got[i:i+1])
	}
	want := append(bytes.Repeat([]byte{10}, 17), 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("page first bytes %v, want %v", got, want)
	}
}

// TestSharedMemoryCoherenceUnderCheckpointing races a writer and a reader
// of shm pages (two processes) against a checkpoint loop whose collapses
// run concurrently with them. Every read must return at least the value
// the writer had published for that page before the read began: a stale
// translation of a frozen frame would return an older one. Meant to run
// under -race.
func TestSharedMemoryCoherenceUnderCheckpointing(t *testing.T) {
	w := newWorld(t)
	a := w.k.NewProc("a")
	b := w.k.NewProc("b")
	g := w.o.CreateGroup("app")
	g.Attach(a)
	g.Attach(b)
	afd, _ := a.ShmOpen("/seg", 1<<20)
	bfd, _ := b.ShmOpen("/seg", 1<<20)
	vaA, _ := a.MmapShm(afd, vm.ProtRead|vm.ProtWrite)
	vaB, _ := b.MmapShm(bfd, vm.ProtRead|vm.ProtWrite)

	const pages = 16
	var published [pages]atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf [8]byte
		for i := uint64(1); !stop.Load(); i++ {
			pg := i % pages
			binary.LittleEndian.PutUint64(buf[:], i)
			if err := a.WriteMem(vaA+pg*vm.PageSize, buf[:]); err != nil {
				errs <- err
				return
			}
			published[pg].Store(i)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := uint64(0); !stop.Load(); i++ {
			pg := (i * 7) % pages
			want := published[pg].Load()
			if err := b.ReadMem(vaB+pg*vm.PageSize, buf); err != nil {
				errs <- err
				return
			}
			if v := binary.LittleEndian.Uint64(buf); v < want {
				errs <- fmt.Errorf("b read %d from page %d after the writer published %d: stale translation", v, pg, want)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
