package sls

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// The checkpoint path (§4, §5, §6):
//
//  1. Wait for the previous checkpoint's flush (Aurora never overlaps two),
//     then release externally-synchronized messages it covered.
//  2. Quiesce the system at the kernel boundary.
//  3. Collapse the previous interval's fully-flushed system shadows
//     (Aurora's reversed collapse, bounding chains at length two).
//  4. Serialize every POSIX object reachable from the group — each into
//     its own on-disk object, sharing preserved by construction. Objects
//     whose generation has not moved since their last record keep it (the
//     store is copy-on-write, so that record carries into the new epoch).
//  5. System-shadow all writable memory.
//  6. Resume the applications. Everything after this overlaps execution.
//  7. Flush the frozen shadows' pages into their objects' on-disk pages.
//  8. Commit the store checkpoint (the superblock is the atomic cut).

// Entry kinds in serialized address-space records.
const (
	entAnon uint8 = iota
	entVnodeShared
	entDevice
	entVDSO
)

// Memory-object backer kinds.
const (
	backNone uint8 = iota
	backAnon
	backVnode
)

// Checkpoint takes a checkpoint of the whole consistency group.
func (g *Group) Checkpoint(kind CheckpointKind) (CheckpointStats, error) {
	o := g.o

	// A speculating group's memory is unvalidated: committing it would
	// make a possibly-corrupt image durable and overwrite the very epoch
	// a rollback needs to re-restore from.
	if g.SpecState() == SpecSpeculating {
		return CheckpointStats{}, fmt.Errorf("%w (group %q)", ErrSpeculating, g.Name)
	}

	// Periodic folding: every Nth WAL commit is promoted to a full
	// checkpoint so frame chains stay short and the ring reclaims.
	if kind == CkptWAL && g.Options.FoldEvery > 0 && g.walSinceFold >= g.Options.FoldEvery {
		kind = CkptIncremental
	}
	st := CheckpointStats{Kind: kind}

	// 1. Previous flush must be durable; its covered messages release. A
	// WAL commit's durability point is its frame, not an epoch.
	if g.lastEpoch != 0 || g.lastWALSeq != 0 {
		var werr error
		if g.lastWALSeq != 0 {
			werr = o.Store.WaitWALDurable(g.lastWALSeq)
		} else {
			werr = o.Store.WaitDurable(g.lastEpoch)
		}
		if werr == nil {
			g.releaseES()
		}
	}

	// The span tree mirrors the stats: the four stop children (quiesce,
	// serialize, writeback, shadow) open and close back-to-back with no
	// virtual time between them, so their durations tile the stop window
	// exactly — summing them reproduces StopTime, which is what the trace
	// acceptance test asserts.
	ckptSpan := o.Tracer.Begin(trace.TrackSLS, "checkpoint", trace.I("kind", int64(kind)))
	o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvCheckpointBegin,
		int64(g.oid), g.ckpts+1, int64(kind), g.Name)
	stopSpan := ckptSpan.Child("stop")
	quiesceSpan := stopSpan.Child("quiesce")

	stop := clock.StartStopwatch(o.Clk)
	o.K.Quiesce()
	o.Clk.Advance(o.Costs.CheckpointFloor)

	// 2. Collapse previous shadows (their flush completed above). A
	// shadow frozen by a mem-only checkpoint still holds dirty pages —
	// collapsing it would bury unflushed data in the base, so it stays
	// mid-chain where the next committing checkpoint's trapped-transient
	// flush picks it up.
	for _, pair := range g.pending {
		frozen := pair.Frozen
		if !g.transient[frozen] {
			continue
		}
		clean := true
		frozen.EachPage(func(pg int64, p *mem.Page) {
			if p.Dirty {
				clean = false
			}
		})
		if clean && frozen.ShadowCount() == 1 && pair.Live.Backer() == frozen && frozen.Backer() != nil {
			backer := frozen.Backer()
			vm.CollapseAurora(pair.Live, frozen)
			// Pages moved into the backer with their identity intact;
			// PTEs installed from the dying shadow (read faults served
			// mid-chain last interval) follow them.
			for _, m := range g.Maps() {
				m.ReownPTEs(frozen, backer)
			}
			delete(g.transient, frozen)
		}
		// Multi-shadow (fork mid-interval), baseless, or unflushed
		// objects stay in the chain; their pages either were already
		// flushed to the persistent root or will be by flushTrapped.
	}
	g.pending = nil

	if kind != CkptMemOnly {
		// ES: everything held up to this cut is covered by this
		// checkpoint. (A mem-only capture commits nothing, so it can
		// neither cover nor release anything.)
		g.esCovered = append(g.esCovered, g.esHeld...)
		g.esHeld = nil

		// Record/replay: inputs before the cut are inside the captured
		// socket buffers, so the bounded log truncates here.
		g.onCheckpointTruncate()
	}

	// 3. Serialize POSIX objects.
	quiesceSpan.End()
	serSpan := stopSpan.Child("serialize")
	osSW := clock.StartStopwatch(o.Clk)
	ser := newSerializer(g, kind == CkptFull)
	procs := g.Procs()
	var ephemeral []*kern.Proc
	for _, p := range procs {
		if p.Exited() {
			continue
		}
		if p.Ephemeral {
			ephemeral = append(ephemeral, p)
			continue
		}
		if err := ser.proc(p); err != nil {
			o.K.Resume()
			return st, err
		}
	}
	// Shared-memory segments exist outside descriptor tables (SysV
	// especially); serialize the namespaces too.
	for _, seg := range o.K.ShmSegments() {
		if _, err := ser.shm(seg); err != nil {
			o.K.Resume()
			return st, err
		}
	}
	if err := ser.group(ephemeral); err != nil {
		o.K.Resume()
		return st, err
	}
	// Forget generations of objects no longer reachable: their store
	// objects are deleted below (or stay unreferenced until the next
	// committing checkpoint deletes them), and a record that reappears must
	// be rewritten.
	for oid := range g.recorded {
		if !ser.live[oid] {
			delete(g.recorded, oid)
		}
	}
	st.OSTime = osSW.Elapsed()
	st.Objects = ser.count
	st.CleanObjects = ser.clean
	serSpan.End(trace.I("objects", int64(st.Objects)), trace.I("clean_objects", int64(st.CleanObjects)))
	wbSpan := stopSpan.Child("writeback")

	// 3b. Shared file mappings: the Aurora file system provides COW for
	// file pages (§6), so vnode objects are never shadowed — instead
	// their dirty pages are captured into the file's store object here,
	// inside the quiesce window, for a consistent cut. The store copies
	// the data synchronously and flushes it asynchronously.
	if err := g.writebackMappedFiles(); err != nil {
		o.K.Resume()
		return st, err
	}

	// 4. System shadowing.
	wbSpan.End()
	shadowSpan := stopSpan.Child("shadow")
	memSW := clock.StartStopwatch(o.Clk)
	var backrefs []vm.BackRef
	for _, seg := range o.K.ShmSegments() {
		backrefs = append(backrefs, seg)
	}
	pairs := vm.SystemShadowFiltered(o.K.VM, g.Maps(), backrefs, func(m *vm.Map, e *vm.Entry) bool {
		return g.entryExcluded(m, e)
	})
	for _, pair := range pairs {
		g.transient[pair.Live] = true
		st.DirtyPages += int64(pair.Frozen.Pages())
	}
	st.MemTime = memSW.Elapsed()

	o.K.Resume()
	shadowSpan.End(trace.I("dirty_pages", st.DirtyPages))
	stopSpan.End()
	st.StopTime = stop.Elapsed()

	if kind == CkptMemOnly {
		// In-memory capture only: keep the shadows for the next pass but
		// skip the store entirely.
		g.pending = pairs
		g.lastCkpt = o.Clk.Now()
		g.ckpts++
		ckptSpan.End()
		o.recordCheckpointMetrics(st, false)
		return st, nil
	}

	// 5–7. Flush memory through the pipeline (flush.go) and commit. Cold
	// objects — persistent objects serialized but never flushed (read-only
	// regions no shadow covers) — join the same pool.
	plan := newFlushPlan()
	g.planPairs(plan, pairs, kind)
	g.planCold(plan, ser)
	// Flush jobs are recorded at plan time, on the coordinator: the worker
	// pool drains them in nondeterministic order, and the flight ring (like
	// the store images it persists into) must be identical run to run.
	if fl := o.Store.Flight(); fl != nil {
		now := int64(o.Clk.Now())
		for _, j := range plan.jobs {
			fl.Record(now, flight.EvFlushJob, int64(g.oid), int64(j.toid), int64(len(j.sources)), "")
		}
	}
	flushSpan := ckptSpan.Child("flush")
	res, err := g.runFlush(plan)
	if err != nil {
		return st, err
	}
	flushSpan.End(trace.I("bytes", res.bytes), trace.I("workers", int64(res.workers)),
		trace.I("max_depth", int64(res.maxDepth)))
	st.FlushBytes = res.bytes
	st.EncodeTime = res.encode
	st.WriteTime = res.write
	st.FlushWorkers = res.workers
	st.MaxQueueDepth = res.maxDepth
	g.pending = pairs

	// Delete store objects that vanished since the last checkpoint, in
	// ascending-OID order (map iteration would randomize the metadata
	// stream and break crash-replay determinism).
	var gone []objstore.OID
	for oid := range g.prevLive {
		if !ser.live[oid] {
			gone = append(gone, oid)
		}
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i] < gone[j] })
	for _, oid := range gone {
		o.Store.Delete(oid) //nolint:errcheck // absent is fine
	}
	g.prevLive = ser.live

	// 8a. WAL-first commit: the cut is one CRC-framed delta append ordered
	// behind the interval's flushed writes, not a new epoch. The epoch —
	// and with it history retention — does not advance; a later fold
	// absorbs the frames. A full ring degrades to the fold below, which
	// both commits the deltas and reclaims the ring.
	if kind == CkptWAL {
		wst, werr := o.Store.WALCommit()
		if werr == nil {
			o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvCheckpointEnd,
				int64(g.oid), int64(wst.Base), res.bytes, g.Name)
			st.Epoch = wst.Base
			st.WALSeq = wst.Seq
			st.DurableAt = wst.DurableAt
			g.lastEpoch = wst.Base
			g.lastWALSeq = wst.Seq
			g.walSinceFold++
			g.lastCkpt = o.Clk.Now()
			g.ckpts++
			if tr := o.Tracer; tr != nil {
				tr.Range(trace.TrackSLS, "durable.window", o.Clk.Now(), st.DurableAt,
					trace.I("epoch", int64(st.Epoch)), trace.I("wal_seq", int64(st.WALSeq)))
				tr.Count("sls.checkpoints", 1)
				tr.Count("sls.wal_commits", 1)
				tr.Count("sls.dirty_pages", st.DirtyPages)
				tr.Count("sls.flush_bytes", st.FlushBytes)
			}
			ckptSpan.End(trace.I("epoch", int64(st.Epoch)), trace.I("wal_seq", int64(st.WALSeq)))
			o.recordCheckpointMetrics(st, true)
			return st, nil
		}
		if !errors.Is(werr, objstore.ErrWALFull) {
			return st, werr
		}
	}

	cst, err := o.Store.Checkpoint()
	if err != nil {
		return st, err
	}
	g.lastWALSeq = 0
	g.walSinceFold = 0
	o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvCheckpointEnd,
		int64(g.oid), int64(cst.Epoch), res.bytes, g.Name)
	st.Epoch = cst.Epoch
	st.DurableAt = cst.DurableAt
	g.lastEpoch = cst.Epoch
	g.lastCkpt = o.Clk.Now()
	g.ckpts++
	if tr := o.Tracer; tr != nil {
		// The drain window: submitted writes settling while the
		// application already runs — the overlap the paper claims.
		tr.Range(trace.TrackSLS, "durable.window", o.Clk.Now(), st.DurableAt,
			trace.I("epoch", int64(st.Epoch)))
		tr.Count("sls.checkpoints", 1)
		tr.Count("sls.dirty_pages", st.DirtyPages)
		tr.Count("sls.flush_bytes", st.FlushBytes)
	}
	ckptSpan.End(trace.I("epoch", int64(st.Epoch)))
	o.recordCheckpointMetrics(st, false)

	if g.RetainEpochs > 0 && int(cst.Epoch) > g.RetainEpochs {
		o.Store.ReleaseCheckpointsBefore(cst.Epoch - objstore.Epoch(g.RetainEpochs) + 1)
	}
	return st, nil
}

// recordCheckpointMetrics feeds the telemetry plane after one checkpoint:
// the paper's continuous-time claims as histograms (the sampler turns
// their p99 into time series), plus commit counters. The durable window
// is the span from commit to the moment the write settles — 0 when the
// device already caught up.
func (o *Orchestrator) recordCheckpointMetrics(st CheckpointStats, wal bool) {
	reg := o.Metrics
	if reg == nil {
		return
	}
	reg.Counter("sls.ckpt.total").Add(1)
	reg.Observe("sls.stop.ns", int64(st.StopTime))
	if st.DurableAt > 0 {
		window := st.DurableAt - o.Clk.Now()
		if window < 0 {
			window = 0
		}
		reg.Observe("sls.durable.window.ns", int64(window))
		if wal {
			reg.Counter("sls.wal.commits").Add(1)
			reg.Observe("sls.wal.window.ns", int64(window))
		}
	}
}

// Barrier waits until the group's last checkpoint is durable and releases
// externally-synchronized messages — sls_barrier. After a WAL commit the
// durability point is the frame append, not an epoch.
func (g *Group) Barrier() error {
	if g.lastWALSeq != 0 {
		if err := g.o.Store.WaitWALDurable(g.lastWALSeq); err != nil {
			return err
		}
		g.releaseES()
		return nil
	}
	if g.lastEpoch == 0 {
		return nil
	}
	if err := g.o.Store.WaitDurable(g.lastEpoch); err != nil {
		return err
	}
	g.releaseES()
	return nil
}

// persistentRoot walks down from obj past transient system shadows to the
// object that owns an on-disk identity.
func (g *Group) persistentRoot(obj *vm.Object) *vm.Object {
	for g.transient[obj] && obj.Backer() != nil {
		obj = obj.Backer()
	}
	return obj
}

// writebackMappedFiles writes the dirty pages of shared file mappings back
// into their files' store objects. Runs under quiesce; the COW store
// guarantees the previous checkpoint's file content is untouched.
func (g *Group) writebackMappedFiles() error {
	seen := make(map[*vm.Object]bool)
	for _, m := range g.Maps() {
		for _, e := range m.Entries() {
			if e.Obj.Type != vm.Vnode || seen[e.Obj] {
				continue
			}
			seen[e.Obj] = true
			pager := e.Obj.Pager()
			if pager == nil {
				continue
			}
			oid := objstore.OID(pager.BackingOID())
			if oid == 0 || !g.o.Store.Exists(oid) {
				continue
			}
			size, err := g.o.Store.Size(oid)
			if err != nil {
				return err
			}
			var werr error
			e.Obj.EachPage(func(pg int64, p *mem.Page) {
				if werr != nil || !p.Dirty {
					return
				}
				off := pg * mem.PageSize
				if off >= size {
					return // beyond EOF: mapped-page tail, not file data
				}
				n := int64(mem.PageSize)
				if off+n > size {
					n = size - off
				}
				g.o.Clk.Advance(g.o.Costs.MemCopyPerPage)
				if err := g.o.Store.WriteAt(oid, off, p.Data[:n]); err != nil {
					werr = err
					return
				}
				p.Dirty = false
				p.Backed = true
			})
			if werr != nil {
				return werr
			}
		}
	}
	return nil
}

// entryExcluded implements sls_mctl exclusions.
func (g *Group) entryExcluded(m *vm.Map, e *vm.Entry) bool {
	for p, set := range g.excluded {
		if p.Mem == m && set[e.Start] {
			return true
		}
	}
	return false
}

// memMeta is the serialized form of one persistent memory object.
type memMeta struct {
	oid        objstore.OID
	size       int64
	backerKind uint8
	backerOID  uint64
}

// serializer walks kernel objects, emitting one store record per object.
type serializer struct {
	g     *Group
	o     *Orchestrator
	live  map[objstore.OID]bool
	count int  // objects charged SerializeBase
	clean int  // tracked objects whose previous record was still valid
	full  bool // rewrite every record regardless of generation (CkptFull)

	// Deduplication: each kernel object serializes exactly once per
	// checkpoint regardless of how many references reach it.
	doneFiles map[*kern.File]objstore.OID
	doneImpls map[any]objstore.OID
	memOIDs   map[*vm.Object]objstore.OID
	memMetas  []memMeta
	procOIDs  []procRef
	shmOIDs   []objstore.OID
}

type procRef struct {
	oid       objstore.OID
	localPID  kern.PID
	parentPID kern.PID
}

func newSerializer(g *Group, full bool) *serializer {
	return &serializer{
		g:         g,
		o:         g.o,
		full:      full,
		live:      make(map[objstore.OID]bool),
		doneFiles: make(map[*kern.File]objstore.OID),
		doneImpls: make(map[any]objstore.OID),
		memOIDs:   make(map[*vm.Object]objstore.OID),
	}
}

// put stores a sealed record, charging serialization costs.
func (s *serializer) put(oid objstore.OID, utype uint16, body []byte) error {
	s.o.Clk.Advance(s.o.Costs.SerializeBase + time.Duration(len(body)/8)*s.o.Costs.SerializePerWord)
	s.live[oid] = true
	s.count++
	return s.o.Store.PutRecord(oid, utype, body)
}

// record persists a dirty-tracked object under oid. When the object's
// generation still equals the one its last record captured, that record —
// carried into the new epoch by the copy-on-write store — is still exact:
// the object costs one cache-line read of its generation and no encode or
// store write. Callers walk the object's references first, so everything
// the record names stays live either way.
func (s *serializer) record(oid objstore.OID, obj tracked) error {
	gen := obj.Gen()
	if r, ok := s.g.recorded[oid]; ok && !s.full && r.gen == gen {
		s.o.Clk.Advance(s.o.Costs.CacheMiss)
		s.live[oid] = true
		s.clean++
		return nil
	}
	if kq, ok := obj.(*kern.Kqueue); ok {
		// Each event structure is locked and copied (Table 4).
		for range kq.Events() {
			s.o.Clk.Advance(s.o.Costs.KqueueEvent)
		}
	}
	utype, body := s.g.recordOf(obj)
	if err := s.put(oid, utype, body); err != nil {
		return err
	}
	s.g.recorded[oid] = recordedGen{obj: obj, gen: gen}
	return nil
}

// group emits the group record — processes, ephemeral children, shm
// segments, memory-object metadata, journals — and refreshes the manifest.
func (s *serializer) group(ephemeral []*kern.Proc) error {
	e := rec.NewEncoder()
	e.Str(s.g.Name)
	e.U64(uint64(s.g.Period))

	e.U32(uint32(len(s.procOIDs)))
	for _, pr := range s.procOIDs {
		e.U64(uint64(pr.oid))
		e.U32(uint32(pr.localPID))
		e.U32(uint32(pr.parentPID))
	}

	// Ephemeral children: recorded so restore can deliver SIGCHLD.
	e.U32(uint32(len(ephemeral)))
	for _, p := range ephemeral {
		parent := kern.PID(0)
		if p.Parent() != nil {
			parent = p.Parent().LocalPID
		}
		e.U32(uint32(p.LocalPID))
		e.U32(uint32(parent))
	}

	// Memory-object hierarchy metadata.
	e.U32(uint32(len(s.memMetas)))
	for _, m := range s.memMetas {
		e.U64(uint64(m.oid))
		e.I64(m.size)
		e.U8(m.backerKind)
		e.U64(m.backerOID)
	}

	// Shared-memory segments.
	e.U32(uint32(len(s.shmOIDs)))
	for _, oid := range s.shmOIDs {
		e.U64(uint64(oid))
	}

	// Journals created through the Aurora API, by name.
	e.U32(uint32(len(s.g.journals)))
	for _, jn := range sortedKeys(s.g.journals) {
		e.Str(jn)
		e.U64(uint64(s.g.journals[jn]))
		s.live[s.g.journals[jn]] = true
	}

	if err := s.put(s.g.oid, UTGroup, e.Seal()); err != nil {
		return err
	}
	return s.o.writeManifest()
}

func sortedKeys(m map[string]objstore.OID) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// writeManifest refreshes the orchestrator's group list, preserving
// entries for groups that are not live in this kernel (suspended
// applications, groups received but not yet restored).
func (o *Orchestrator) writeManifest() error {
	type entry struct {
		id   uint64
		name string
		oid  objstore.OID
	}
	var entries []entry
	index := make(map[string]int)
	if raw, err := o.Store.GetRecord(ManifestOID); err == nil && len(raw) > 0 {
		if d, derr := rec.NewDecoder(raw); derr == nil {
			for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
				ent := entry{id: d.U64(), name: d.Str(), oid: objstore.OID(d.U64())}
				index[ent.name] = len(entries)
				entries = append(entries, ent)
			}
		}
	}
	for _, g := range o.Groups() {
		ent := entry{id: g.ID, name: g.Name, oid: g.oid}
		if i, ok := index[g.Name]; ok {
			entries[i] = ent
		} else {
			index[g.Name] = len(entries)
			entries = append(entries, ent)
		}
	}
	e := rec.NewEncoder()
	e.U32(uint32(len(entries)))
	for _, ent := range entries {
		e.U64(ent.id)
		e.Str(ent.name)
		e.U64(uint64(ent.oid))
	}
	return o.Store.PutRecord(ManifestOID, UTManifest, e.Seal())
}

// proc serializes one process: identity, tree links, threads with CPU
// state, pending signals, descriptor table, and address space.
func (s *serializer) proc(p *kern.Proc) error {
	e := rec.NewEncoder()
	e.Str(p.Name)
	e.U32(uint32(p.LocalPID))
	e.U32(uint32(p.PGID))
	e.U32(uint32(p.SID))

	// Threads. Copying the register file off the kernel stack is cheap;
	// lazily-saved FPU/vector state needs an IPI to flush it into the
	// process structure (§5.1).
	e.U32(uint32(len(p.Threads)))
	for _, t := range p.Threads {
		s.o.Clk.Advance(s.o.Costs.IPIRound)
		e.Str(t.Name)
		e.U32(uint32(t.LocalTID))
		e.U64(t.SigMask)
		e.U32(uint32(t.Priority))
		cpuRecord(e, &t.CPU)
	}

	// Pending signals.
	sigs := p.PendingSignals()
	e.U32(uint32(len(sigs)))
	for _, sig := range sigs {
		e.U32(uint32(sig))
	}

	// Descriptor table.
	type slot struct {
		fd  int
		oid objstore.OID
	}
	var slots []slot
	var ferr error
	p.FDs.Each(func(fd int, f *kern.File) {
		if ferr != nil {
			return
		}
		oid, err := s.file(f)
		if err != nil {
			ferr = err
			return
		}
		slots = append(slots, slot{fd, oid})
	})
	if ferr != nil {
		return ferr
	}
	e.U32(uint32(len(slots)))
	for _, sl := range slots {
		e.U32(uint32(sl.fd))
		e.U64(uint64(sl.oid))
	}

	// Address space.
	entries := p.Mem.Entries()
	var encoded [][]byte
	for _, ent := range entries {
		b, err := s.entry(ent, s.g.entryExcluded(p.Mem, ent))
		if err != nil {
			return err
		}
		if b != nil {
			encoded = append(encoded, b)
		}
	}
	e.U32(uint32(len(encoded)))
	for _, b := range encoded {
		e.Bytes(b)
	}

	oid := s.g.oidFor(p)
	parent := kern.PID(0)
	if p.Parent() != nil && !p.Parent().Ephemeral {
		parent = p.Parent().LocalPID
	}
	s.procOIDs = append(s.procOIDs, procRef{oid: oid, localPID: p.LocalPID, parentPID: parent})
	return s.put(oid, UTProc, e.Seal())
}

// cpuRecord serializes the register file.
func cpuRecord(e *rec.Encoder, c *kern.CPUState) {
	e.U64(c.RIP)
	e.U64(c.RSP)
	e.U64(c.RBP)
	e.U64(c.RFLAGS)
	for _, r := range c.GPR {
		e.U64(r)
	}
	e.Bytes(c.FPU[:])
}

func cpuDecode(d *rec.Decoder) kern.CPUState {
	var c kern.CPUState
	c.RIP = d.U64()
	c.RSP = d.U64()
	c.RBP = d.U64()
	c.RFLAGS = d.U64()
	for i := range c.GPR {
		c.GPR[i] = d.U64()
	}
	copy(c.FPU[:], d.Bytes())
	return c
}

// entry serializes one vm_map_entry, classifying its backing. Excluded
// regions (sls_mctl) record their geometry only: the restore maps fresh
// zero-filled memory there, and no page of the region ever reaches the
// store.
func (s *serializer) entry(ent *vm.Entry, excluded bool) ([]byte, error) {
	e := rec.NewEncoder()
	e.U64(ent.Start)
	e.U64(ent.End)
	e.U8(uint8(ent.Prot))
	e.I64(ent.Off)
	e.Bool(ent.Shared)

	switch {
	case ent.Start == kern.VDSOBase:
		// The vDSO is not content-checkpointed: restore injects the
		// current kernel's (§5.3).
		e.U8(entVDSO)
	case ent.Obj.Type == vm.Device:
		name, ok := deviceNameOfObject(ent.Obj)
		if !ok || !kern.DeviceWhitelisted(name) {
			return nil, fmt.Errorf("sls: cannot persist mapping of device %q", name)
		}
		e.U8(entDevice)
		e.Str(name)
	case ent.Obj.Type == vm.Vnode:
		// Shared file mapping: pages live in the file's own object.
		e.U8(entVnodeShared)
		e.U64(ent.Obj.Pager().BackingOID())
	case excluded:
		e.U8(entAnon)
		e.U64(0) // no backing object: restore maps fresh memory
	default:
		oid, err := s.memObject(s.g.persistentRoot(ent.Obj))
		if err != nil {
			return nil, err
		}
		e.U8(entAnon)
		e.U64(uint64(oid))
	}
	return e.Raw(), nil
}

// deviceNameOfObject recovers the device name behind a device VM object.
func deviceNameOfObject(o *vm.Object) (string, bool) {
	type named interface{ DeviceName() string }
	if p, ok := o.Pager().(named); ok {
		return p.DeviceName(), true
	}
	return "", false
}

// memObject registers the persistent memory-object hierarchy from root
// downward, returning root's OID. Metadata lands in the group record;
// pages flow through the flush path into the OID's own pages.
func (s *serializer) memObject(root *vm.Object) (objstore.OID, error) {
	if oid, ok := s.memOIDs[root]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(root)
	s.memOIDs[root] = oid
	s.live[oid] = true
	s.count++
	s.o.Clk.Advance(s.o.Costs.SerializeBase)

	meta := memMeta{oid: oid, size: root.Size()}
	backer := root.Backer()
	for backer != nil && s.g.transient[backer] {
		backer = backer.Backer()
	}
	switch {
	case backer == nil:
		meta.backerKind = backNone
	case backer.Type == vm.Vnode:
		meta.backerKind = backVnode
		meta.backerOID = backer.Pager().BackingOID()
	default:
		boid, err := s.memObject(backer)
		if err != nil {
			return 0, err
		}
		meta.backerKind = backAnon
		meta.backerOID = uint64(boid)
	}
	s.memMetas = append(s.memMetas, meta)
	return oid, nil
}

// file serializes an open-file description and its implementation object.
func (s *serializer) file(f *kern.File) (objstore.OID, error) {
	if oid, ok := s.doneFiles[f]; ok {
		return oid, nil
	}
	if err := s.impl(f); err != nil {
		return 0, err
	}
	oid := s.g.oidFor(f)
	s.doneFiles[f] = oid
	return oid, s.record(oid, f)
}

// impl serializes the object behind a description.
func (s *serializer) impl(f *kern.File) error {
	if v, ok := kern.VnodeOf(f); ok {
		// The vnode IS a store object already (the slsfs file). Keep a
		// hidden reference so unlinking cannot reap it (§5.2). The
		// reference is per group lifetime, not per checkpoint.
		if !s.g.vnodeRef[v.OID] {
			s.g.vnodeRef[v.OID] = true
			s.o.K.FS.AddHiddenRef(v.OID)
		}
		s.live[v.OID] = true
		s.count++
		s.o.Clk.Advance(s.o.Costs.SerializeBase) // inode ref, no namei
		return nil
	}
	if pipe, _, ok := kern.PipeInfo(f); ok {
		_, err := s.pipe(pipe)
		return err
	}
	if sock, ok := kern.SocketOf(f); ok {
		_, err := s.socket(sock)
		return err
	}
	if seg, ok := kern.ShmOf(f); ok {
		_, err := s.shm(seg)
		return err
	}
	if kq, ok := kern.KqueueOf(f); ok {
		_, err := s.kqueue(kq)
		return err
	}
	if pty, _, ok := kern.PTYInfo(f); ok {
		_, err := s.pty(pty)
		return err
	}
	if name, ok := kern.DeviceNameOf(f); ok {
		e := rec.NewEncoder()
		e.Str(name)
		return s.put(s.g.oidFor(f.Impl), UTDeviceFile, e.Seal())
	}
	return fmt.Errorf("sls: unsupported file kind %v", f.Impl.Kind())
}

func (s *serializer) pipe(p *kern.Pipe) (objstore.OID, error) {
	if oid, ok := s.doneImpls[p]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(p)
	s.doneImpls[p] = oid
	return oid, s.record(oid, p)
}

func (s *serializer) socket(sk *kern.Socket) (objstore.OID, error) {
	if oid, ok := s.doneImpls[sk]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(sk)
	s.doneImpls[sk] = oid
	// The record names the peer when it lives in the same group, and every
	// descriptor in flight inside the buffered control messages (§5.3).
	if peer := sk.Peer(); peer != nil && peer.OwnerGroup == s.g.ID {
		if _, err := s.socket(peer); err != nil {
			return 0, err
		}
	}
	for _, inflight := range sk.InFlightFiles() {
		if _, err := s.file(inflight); err != nil {
			return 0, err
		}
	}
	return oid, s.record(oid, sk)
}

func (s *serializer) shm(seg *kern.ShmSegment) (objstore.OID, error) {
	if oid, ok := s.doneImpls[seg]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(seg)
	s.doneImpls[seg] = oid
	memOID, err := s.memObject(s.g.persistentRoot(seg.Object()))
	if err != nil {
		return 0, err
	}
	e := rec.NewEncoder()
	e.I64(seg.ID)
	e.I64(seg.Key)
	e.Str(seg.Name)
	e.I64(seg.Size)
	e.Bool(seg.SysV)
	e.U64(uint64(memOID))
	s.shmOIDs = append(s.shmOIDs, oid)
	return oid, s.put(oid, UTShm, e.Seal())
}

func (s *serializer) kqueue(kq *kern.Kqueue) (objstore.OID, error) {
	if oid, ok := s.doneImpls[kq]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(kq)
	s.doneImpls[kq] = oid
	return oid, s.record(oid, kq)
}

func (s *serializer) pty(pty *kern.PTY) (objstore.OID, error) {
	if oid, ok := s.doneImpls[pty]; ok {
		return oid, nil
	}
	oid := s.g.oidFor(pty)
	s.doneImpls[pty] = oid
	return oid, s.record(oid, pty)
}

// tracked is a dirty-tracked kernel object: a description, socket, pipe,
// kqueue, or pty. Its generation moves on every mutation of state its
// record captures.
type tracked interface{ Gen() uint64 }

// recordedGen remembers, per OID, the object whose record the store holds
// and the generation that record captured.
type recordedGen struct {
	obj tracked
	gen uint64
}

// recordOf encodes the store record of one tracked kernel object. It is
// the single encoder behind both the checkpoint (objects whose generation
// moved) and the sls.osclean audit (objects whose generation did not,
// re-encoded to prove the skipped record is still exact), so it charges
// nothing and allocates no OID: every object a record names already owns
// one, because the serializer walks references before recording.
func (g *Group) recordOf(obj tracked) (uint16, []byte) {
	e := rec.NewEncoder()
	switch o := obj.(type) {
	case *kern.File:
		implOID, aux := g.implRef(o)
		e.U16(uint16(o.Impl.Kind()))
		e.I64(o.Offset)
		e.U32(uint32(o.Flags))
		e.U64(uint64(implOID))
		e.U32(aux)
		return UTFileDesc, e.Seal()
	case *kern.Pipe:
		readers, writers := o.PipeRefs()
		e.Bytes(o.Buffered())
		e.U32(uint32(readers))
		e.U32(uint32(writers))
		return UTPipe, e.Seal()
	case *kern.Socket:
		e.U16(uint16(o.Kind()))
		e.Str(o.Local)
		e.Str(o.Remote)
		e.Bool(o.Bound)
		e.Bool(o.Listening()) // accept queue deliberately omitted (§5.3)
		e.U64(o.Seq)
		e.U32(o.Options)
		e.Bool(o.ESDisabled)
		// Peer: recorded only when it lives in the same group.
		if peer := o.Peer(); peer != nil && peer.OwnerGroup == g.ID {
			e.U64(uint64(g.oidOf[peer]))
		} else {
			e.U64(0)
		}
		// Buffered messages, with the in-flight descriptors their control
		// messages carry.
		msgs := o.Messages()
		e.U32(uint32(len(msgs)))
		for _, m := range msgs {
			e.Bytes(m.Data)
			e.Str(m.From)
			e.U32(uint32(len(m.Files)))
			for _, inflight := range m.Files {
				e.U64(uint64(g.oidOf[inflight]))
			}
		}
		return UTSocket, e.Seal()
	case *kern.Kqueue:
		events := o.Events()
		e.U32(uint32(len(events)))
		for _, ev := range events {
			e.U64(ev.Ident)
			e.U16(uint16(ev.Filter))
			e.U32(ev.Flags)
			e.U32(ev.FFlags)
			e.I64(ev.Data)
			e.U64(ev.UData)
		}
		return UTKqueue, e.Seal()
	case *kern.PTY:
		toSlave, toMaster := o.Buffers()
		e.U32(uint32(o.Index))
		e.Bytes(toSlave)
		e.Bytes(toMaster)
		e.Bytes(o.Termios[:])
		return UTPTY, e.Seal()
	}
	panic(fmt.Sprintf("sls: %T is not a tracked kernel object", obj))
}

// AuditCleanRecords checks the dirty-tracking invariant behind the
// sls.osclean audit rule: every tracked object whose generation still
// equals the one its last record captured must re-encode to exactly the
// record the store holds. A mismatch means some mutator changed recorded
// state without bumping the generation, so checkpoints would keep a stale
// record. Each mismatch goes to bad; the result counts the records
// compared. The check holds the kernel lock so no syscall mutates
// mid-compare, charges no virtual time, and writes nothing.
func (g *Group) AuditCleanRecords(bad func(oid objstore.OID, detail string)) int {
	g.o.K.Gate.Enter()
	defer g.o.K.Gate.Exit()
	oids := make([]objstore.OID, 0, len(g.recorded))
	for oid, r := range g.recorded {
		if r.obj.Gen() == r.gen {
			oids = append(oids, oid)
		}
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		r := g.recorded[oid]
		utype, want := g.recordOf(r.obj)
		have, err := g.o.Store.PeekRecord(oid)
		stored, uerr := g.o.Store.UType(oid)
		switch {
		case err != nil:
			bad(oid, fmt.Sprintf("clean %T has no readable record: %v", r.obj, err))
		case uerr != nil || stored != utype:
			bad(oid, fmt.Sprintf("clean %T stored as type %#x, encodes as %#x", r.obj, stored, utype))
		case !bytes.Equal(have, want):
			bad(oid, fmt.Sprintf("clean %T (generation %d) re-encodes to %d bytes that differ from its %d-byte stored record: a mutation skipped its generation bump",
				r.obj, r.gen, len(want), len(have)))
		}
	}
	return len(oids)
}

// implRef resolves the object behind a description to its OID and the
// auxiliary word its record carries (pipe end, pty side).
func (g *Group) implRef(f *kern.File) (objstore.OID, uint32) {
	if v, ok := kern.VnodeOf(f); ok {
		return v.OID, 0
	}
	if pipe, writeEnd, ok := kern.PipeInfo(f); ok {
		return g.oidOf[pipe], boolWord(writeEnd)
	}
	if sock, ok := kern.SocketOf(f); ok {
		return g.oidOf[sock], 0
	}
	if seg, ok := kern.ShmOf(f); ok {
		return g.oidOf[seg], 0
	}
	if kq, ok := kern.KqueueOf(f); ok {
		return g.oidOf[kq], 0
	}
	if pty, master, ok := kern.PTYInfo(f); ok {
		return g.oidOf[pty], boolWord(master)
	}
	return g.oidOf[f.Impl], 0 // device
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
