package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/apps/rocksdb"
	"aurora/internal/objstore"
	"aurora/internal/trace"
	"aurora/internal/workload"
)

// A rep is one complete execution of a workload: set-up (timed as
// setup_s), an untimed warm-up, the timed window, and the post-window
// checks. A run repeats reps and reports medians.

// tenant is one consistency group and the application living in it.
type tenant struct {
	name  string
	g     *aurora.Group
	gen   workload.Generator
	mdl   *model
	isMC  bool // memcached (mc) or RocksDB (db)
	mc    *memcached.Server
	db    *rocksdb.DB
	arena uint64
	slots int64 // memcached slot count, or RocksDB arena bytes

	lastEnd time.Duration // virtual end of the group's newest checkpoint
}

// mcValueMax is the largest value a memcached slot keeps for key: a slot
// is SlotSize bytes of [lru u64][keyLen u32][valLen u32][key][value], and
// the server truncates what does not fit.
func mcValueMax(key string) int { return memcached.SlotSize - mcSlotHeader - len(key) }

const mcSlotHeader = 16

func (t *tenant) get(key string) ([]byte, bool, error) {
	if t.isMC {
		return t.mc.Get(key)
	}
	return t.db.Get(key)
}

func (t *tenant) set(key string, v []byte) error {
	if t.isMC {
		if max := mcValueMax(key); len(v) > max {
			v = v[:max]
		}
		t.mdl.set(key, v)
		return t.mc.Set(key, v)
	}
	t.mdl.set(key, v)
	return t.db.Put(key, v)
}

type rep struct {
	seed   int64
	sp     *spans // nil in untraced reps
	m      *aurora.Machine
	ts     []*tenant
	stats  repStats
	window bool // inside the timed window

	opN, ckptN, restoreN uint32
	allocs               []metrics.Sample

	// The window is cut into chunks of virtual time; each chunk's host
	// rate is one sample of host_ops_per_s.
	chunkAt   time.Duration
	chunkHost time.Time
	chunkOps  int64
}

// repStats is everything one rep measured. Virtual quantities repeat for a
// seed up to flush and validator scheduling (GLOSSARY.md); host quantities
// do not repeat.
type repStats struct {
	attempted, failed int64
	problems          []string

	setup time.Duration // host

	// Timed window.
	ops                 int64
	winVirt, winHost    time.Duration
	opLat               []int64   // virtual ns
	stop, durable       []int64   // virtual ns
	hostCkpt            []int64   // host ns
	chunkRates          []float64 // ops per host second, one per full chunk
	userBytes, devBytes int64

	// Per checkpoint in the window (sums; divide by len(stop)).
	osTime, memTime, quiesce, objects, dirty, flushBytes int64
	encode, write                                        int64 // host ns
	workers, queueMax                                    int64
	devWrites, devWriteB, devFlushes                     int64
	walFrames, folds                                     int64
	dataBytes, metaBytes                                 int64
	applyV                                               int64 // virtual ns in app calls

	// Per restore.
	ttfo, settle, hostRestore     []int64
	metaV, validateV              int64
	pagesValidated, rollbacks     int64
	pageins, devReads, devReadB   int64
	recoverHost, restoreHost      int64
	barrierHost, barriers         int64
	spaceAmp                      float64
	peakHeap                      uint64
	nextAlloc, applyAlloc, allocN int64

	// Traced reps only.
	vstop map[string]int64 // virtual stop-stage ns summed over window checkpoints
}

func newRep(seed int64, traced bool) *rep {
	r := &rep{seed: seed}
	if traced {
		r.sp = newSpans()
		r.allocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	}
	return r
}

func (r *rep) fail(format string, args ...any) {
	r.stats.failed++
	if len(r.stats.problems) < 8 {
		r.stats.problems = append(r.stats.problems, fmt.Sprintf(format, args...))
	}
}

func (r *rep) now() time.Duration { return r.m.Clock.Now() }

func (r *rep) machine() error {
	cfg := aurora.Defaults()
	cfg.Trace = r.sp != nil
	m, err := aurora.NewMachine(cfg)
	r.m = m
	return err
}

// sampleHeap collects garbage and records the live heap if it is the rep's
// peak so far. Reps call it at the points the heap peaks (end of set-up,
// end of the window, after a restore) instead of sampling between
// collections, where the live figure lags by up to a GC cycle.
func (r *rep) sampleHeap() {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if v := live[0].Value.Uint64(); v > r.stats.peakHeap {
		r.stats.peakHeap = v
	}
}

func (r *rep) allocated() int64 {
	metrics.Read(r.allocs)
	return int64(r.allocs[0].Value.Uint64())
}

// op runs one workload op against t and checks every read against the
// model. due is the virtual time the op was issued or scheduled. A failed
// op is counted, not returned: the run goes on and reports it.
func (r *rep) op(t *tenant, due time.Duration) {
	if r.window && r.now() >= r.chunkAt {
		h := time.Now()
		r.stats.chunkRates = append(r.stats.chunkRates, float64(r.stats.ops-r.chunkOps)/h.Sub(r.chunkHost).Seconds())
		r.chunkAt += chunk
		r.chunkHost, r.chunkOps = h, r.stats.ops
	}
	r.opN++
	root := r.sp.begin(spOp, r.opN, -1)
	sample := r.sp != nil && r.window && r.opN%16 == 0
	var a0, a1, a2 int64
	if sample {
		a0 = r.allocated()
	}
	s := r.sp.begin(spNext, r.opN, root)
	op := t.gen.Next()
	r.sp.end(s)
	if sample {
		a1 = r.allocated()
	}
	v0 := r.now()
	s = r.sp.begin(spApply, r.opN, root)
	var (
		val   []byte
		found bool
		err   error
	)
	switch op.Kind {
	case workload.OpGet:
		val, found, err = t.get(op.Key)
	case workload.OpSet:
		err = t.set(op.Key, op.Value)
	}
	r.sp.end(s)
	if sample {
		a2 = r.allocated()
		r.stats.nextAlloc += a1 - a0
		r.stats.applyAlloc += a2 - a1
		r.stats.allocN++
	}
	r.stats.attempted++
	if err != nil {
		r.fail("%s %s: %v", t.name, op.Key, err)
	} else if op.Kind == workload.OpGet && !t.mdl.check(op.Key, val, found) {
		r.fail("%s: GET %s returned a value the model does not hold", t.name, op.Key)
	}
	if r.window {
		r.stats.ops++
		r.stats.applyV += int64(r.now() - v0)
		r.stats.opLat = append(r.stats.opLat, int64(r.now()-due))
		if op.Kind == workload.OpSet {
			r.stats.userBytes += int64(t.mdl.vals[op.Key].n)
		}
	}
	r.sp.end(root)
}

// due reports whether t's checkpoint period has elapsed.
func (t *tenant) due(now time.Duration) bool { return now-t.lastEnd >= t.g.Period }

// periodic drives t's checkpoint timer: MaybePeriodic, or an explicit
// checkpoint of the given kind when kind is not CkptIncremental.
func (r *rep) periodic(t *tenant, kind aurora.CheckpointKind) error {
	if !t.due(r.now()) {
		return nil
	}
	return r.checkpoint(t, kind, true)
}

func (r *rep) checkpoint(t *tenant, kind aurora.CheckpointKind, periodic bool) error {
	r.ckptN++
	root := r.sp.begin(spCkpt, r.ckptN, -1)
	defer r.sp.end(root)
	dev0 := r.m.Disk.Stats()
	st0 := r.m.Store.Stats()
	v0 := r.now()
	h0 := time.Now()
	s := r.sp.begin(spCheckpoint, r.ckptN, root)
	var (
		st  aurora.CheckpointStats
		ran = true
		err error
	)
	if periodic && kind == aurora.CkptIncremental {
		st, ran, err = t.g.MaybePeriodic()
	} else {
		st, err = t.g.Checkpoint(kind)
	}
	r.sp.end(s)
	host := time.Since(h0)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", t.name, err)
	}
	if !ran {
		return fmt.Errorf("checkpoint %s: MaybePeriodic did not run at %v (last %v)", t.name, r.now(), t.lastEnd)
	}
	t.lastEnd = r.now()
	t.mdl.commit(cut{epoch: uint64(st.Epoch), walSeq: st.WALSeq, durableAt: int64(st.DurableAt)}, int64(r.now()))
	if !r.window {
		return nil
	}
	dev := r.m.Disk.Stats()
	sst := r.m.Store.Stats()
	x := &r.stats
	x.stop = append(x.stop, int64(st.StopTime))
	x.durable = append(x.durable, int64(st.DurableAt-v0))
	x.hostCkpt = append(x.hostCkpt, int64(host))
	x.osTime += int64(st.OSTime)
	x.memTime += int64(st.MemTime)
	x.quiesce += int64(st.StopTime - st.OSTime - st.MemTime)
	x.objects += int64(st.Objects)
	x.dirty += st.DirtyPages
	x.flushBytes += st.FlushBytes
	x.encode += int64(st.EncodeTime)
	x.write += int64(st.WriteTime)
	x.workers = max(x.workers, int64(st.FlushWorkers))
	x.queueMax = max(x.queueMax, int64(st.MaxQueueDepth))
	x.devWrites += dev.Writes - dev0.Writes
	x.devWriteB += dev.BytesWritten - dev0.BytesWritten
	x.devFlushes += dev.Flushes - dev0.Flushes
	x.dataBytes += sst.DataBytes - st0.DataBytes
	x.metaBytes += sst.MetaBytes - st0.MetaBytes
	if st.WALSeq != 0 {
		x.walFrames++
	} else if kind == aurora.CkptWAL {
		x.folds++
	}
	return nil
}

// barrier waits for every tenant's newest checkpoint to be durable.
func (r *rep) barrier() error {
	for _, t := range r.ts {
		h0 := time.Now()
		s := r.sp.begin(spBarrier, r.ckptN, -1)
		err := t.g.Barrier()
		r.sp.end(s)
		r.stats.barrierHost += int64(time.Since(h0))
		r.stats.barriers++
		if err != nil {
			return fmt.Errorf("barrier %s: %w", t.name, err)
		}
	}
	return nil
}

func (r *rep) audit(when string) {
	if rp := r.m.Audit(); !rp.OK() {
		for _, v := range rp.Violations {
			r.fail("audit %s: %v", when, v)
		}
	}
}

func (r *rep) beginWindow() (time.Duration, time.Time) {
	r.window = true
	r.chunkAt, r.chunkHost, r.chunkOps = r.now()+chunk, time.Now(), 0
	r.stats.devBytes = -r.m.Disk.Stats().BytesWritten
	return r.now(), time.Now()
}

func (r *rep) endWindow(v0 time.Duration, h0 time.Time) {
	r.stats.winHost = time.Since(h0)
	r.stats.winVirt = r.now() - v0
	r.stats.devBytes += r.m.Disk.Stats().BytesWritten
	r.window = false
	r.sampleHeap()
	if tr := r.m.Tracer; tr != nil {
		r.stats.vstop = stopStages(tr, v0, r.now())
	}
}

// stopStages sums the virtual tracer's checkpoint stop children (which
// tile StopTime exactly) over checkpoints that began in [from, to).
func stopStages(tr *aurora.Tracer, from, to time.Duration) map[string]int64 {
	out := map[string]int64{}
	stops := map[uint64]bool{}
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindSpan || ev.Track != trace.TrackSLS || ev.Start < from || ev.Start >= to {
			continue
		}
		if ev.Name == "stop" {
			stops[ev.ID] = true
		}
	}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSpan && stops[ev.Parent] {
			out[ev.Name] += int64(ev.Dur)
		}
	}
	return out
}

// crashRestore cuts power at the current virtual instant, reboots, and
// restores every tenant speculatively. It checks that the recovered state
// covers every checkpoint acknowledged durable, that each group's contents
// equal the model at the recovered checkpoint, that validation rolled
// nothing back, and that the machine audits clean.
func (r *rep) crashRestore() error {
	r.restoreN++
	root := r.sp.begin(spRestore, r.restoreN, -1)
	defer r.sp.end(root)
	crashAt := r.now()
	dev0 := r.m.Disk.Stats()
	h0 := time.Now()
	s := r.sp.begin(spRecover, r.restoreN, root)
	m2, err := r.m.Crash()
	r.sp.end(s)
	hRecover := time.Since(h0)
	if err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	r.m = m2
	// The old incarnation's memory is garbage from here on; let the GC
	// have it before the restore builds the new image.
	for _, t := range r.ts {
		t.g, t.mc, t.db = nil, nil, nil
	}
	epoch, walSeq := uint64(m2.Store.Epoch()), m2.Store.WALSeq()
	names := make([]string, len(r.ts))
	for i, t := range r.ts {
		names[i] = t.name
		if c, ok := t.mdl.acked(int64(crashAt)); ok && !contains(c, epoch, walSeq) {
			r.fail("%s: recovered (epoch %d, wal %d) predates acknowledged-durable (epoch %d, wal %d)",
				t.name, epoch, walSeq, c.epoch, c.walSeq)
		}
	}

	h1 := time.Now()
	s = r.sp.begin(spRestoreGroups, r.restoreN, root)
	gs, sts, err := m2.SLS.RestoreGroups(names, m2.Store, aurora.RestoreSpeculative, true)
	r.sp.end(s)
	hRestore := time.Since(h1)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	settle := r.now() - crashAt

	// Time to first op: metadata rebuilds run back to back, then each
	// tenant serves its first request (one slot read, as the restore
	// experiment does).
	var ttfo time.Duration
	for i, st := range sts {
		ttfo += st.TimeToFirstOp
		r.stats.metaV += int64(st.TimeToFirstOp)
		r.stats.pagesValidated += st.PagesValidated
		r.stats.pageins += st.PagesSpeculated
		r.stats.rollbacks += int64(st.Rollbacks)
		if st.Rollbacks != 0 {
			r.fail("%s: %d rollback(s) restoring a clean image", names[i], st.Rollbacks)
		}
	}
	r.stats.validateV += int64(settle - ttfo)
	v := r.now()
	buf := make([]byte, memcached.SlotSize)
	for i, t := range r.ts {
		if err := gs[i].Procs()[0].ReadMem(t.arena, buf); err != nil {
			return fmt.Errorf("first read %s: %w", t.name, err)
		}
	}
	ttfo += r.now() - v

	h2 := time.Now()
	for i, t := range r.ts {
		s = r.sp.begin(spRebuild, r.restoreN, root)
		t.g = gs[i]
		p := t.g.Procs()[0]
		if t.isMC {
			t.mc, err = memcached.RebuildIndex(p, t.arena, t.slots)
		} else {
			t.db, err = rocksdb.RebuildMemtable(p, t.arena, t.slots)
		}
		r.sp.end(s)
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", t.name, err)
		}
		t.g.Period = period
		t.g.RetainEpochs = retainEpochs
		t.lastEnd = 0
	}
	hRebuild := time.Since(h2)

	dev := m2.Disk.Stats()
	for _, t := range r.ts {
		f, _ := t.g.LazyPageIns()
		r.stats.pageins += f
	}
	r.stats.devReads += dev.Reads - dev0.Reads
	r.stats.devReadB += dev.BytesRead - dev0.BytesRead
	r.stats.ttfo = append(r.stats.ttfo, int64(ttfo))
	r.stats.settle = append(r.stats.settle, int64(settle))
	r.stats.hostRestore = append(r.stats.hostRestore, int64(hRecover+hRestore+hRebuild))
	r.stats.recoverHost += int64(hRecover)
	r.stats.restoreHost += int64(hRestore)

	s = r.sp.begin(spVerify, r.restoreN, root)
	for _, t := range r.ts {
		if !t.mdl.rollback(epoch, walSeq) {
			r.fail("%s: recovered (epoch %d, wal %d) is older than any checkpoint the model kept", t.name, epoch, walSeq)
			continue
		}
		r.verify(t)
	}
	r.audit("after restore")
	r.sp.end(s)
	return nil
}

// verify compares a restored tenant's full contents with its model. The
// memcached check decodes slots through plain loads instead of Get: Get
// stamps the LRU word and charges service time, which would move the
// open-loop schedule that follows a restore.
func (r *rep) verify(t *tenant) {
	r.stats.attempted++
	if t.isMC {
		if t.mc.Items() != len(t.mdl.vals) {
			r.fail("%s: %d items after restore, model has %d", t.name, t.mc.Items(), len(t.mdl.vals))
			return
		}
		p := t.g.Procs()[0]
		buf := make([]byte, memcached.SlotSize)
		for i := int64(0); i < t.slots; i++ {
			if err := p.ReadMem(t.arena+uint64(i*memcached.SlotSize), buf); err != nil {
				r.fail("%s: slot %d: %v", t.name, i, err)
				return
			}
			kl := int(binary.LittleEndian.Uint32(buf[8:]))
			vl := int(binary.LittleEndian.Uint32(buf[12:]))
			if kl == 0 {
				continue
			}
			key := string(buf[mcSlotHeader : mcSlotHeader+kl])
			if !t.mdl.check(key, buf[mcSlotHeader+kl:mcSlotHeader+kl+vl], true) {
				r.fail("%s: restored item %s differs from the model", t.name, key)
				return
			}
		}
		return
	}
	if t.db.Len() != len(t.mdl.vals) {
		r.fail("%s: %d keys after restore, model has %d", t.name, t.db.Len(), len(t.mdl.vals))
		return
	}
	keys := make([]string, 0, len(t.mdl.vals))
	for k := range t.mdl.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok, err := t.db.Get(k)
		if err != nil || !t.mdl.check(k, v, ok) {
			r.fail("%s: restored key %s differs from the model (%v)", t.name, k, err)
			return
		}
	}
}

// finish takes the end-of-rep measurements that need the final machine.
func (r *rep) finish() {
	var live int64
	for _, t := range r.ts {
		for k, d := range t.mdl.vals {
			live += int64(len(k)) + int64(d.n)
		}
	}
	r.stats.spaceAmp = float64(len(r.m.Store.LivePageAddrs())*objstore.BlockSize) / float64(live)
	r.sampleHeap()
}
