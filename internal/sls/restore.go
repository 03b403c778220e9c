package sls

import (
	"fmt"
	"hash/crc32"
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

// Restore (§4, §5): recreate every POSIX object from its on-disk record and
// link the objects back up so all sharing relationships reappear. Restores
// run against a live store (crash recovery, continuing incrementally) or a
// read-only view of a retained epoch (named checkpoints, time travel).
//
// Known semantic limitation of view-based (time-travel) restores: memory
// and kernel state rewind to the chosen epoch, but open files reattach at
// the file system's CURRENT content — file data does not fork into a
// per-restore branch. Crash restores (the latest epoch) are exact, since
// file state and application state commit in the same checkpoint.

// Source is where restore reads records and pages from; both *objstore.Store
// and *objstore.View satisfy it.
type Source interface {
	GetRecord(oid objstore.OID) ([]byte, error)
	ReadPage(oid objstore.OID, pg int64, buf []byte) (bool, error)
	HasPage(oid objstore.OID, pg int64) (bool, error)
	Size(oid objstore.OID) (int64, error)
	Exists(oid objstore.OID) bool
}

// RestoreMode selects eager or lazy page loading.
type RestoreMode uint8

// Restore modes (Table 6's Full and Lazy rows).
const (
	// RestoreFull loads every page eagerly.
	RestoreFull RestoreMode = iota
	// RestoreLazy restores the minimal OS state; pages fault in on
	// demand through the store pager (§6, lazy restores).
	RestoreLazy
	// RestoreSpeculative restores like RestoreLazy but lets the group
	// execute before its pages are trusted: each demand fault is checked
	// against the committed image's page sums as it lands, and a
	// background validator sweep (FinishSpeculation) confirms the rest,
	// rolling the group back to a serial restore on any mismatch — the
	// PhoenixOS validated-speculation trick applied to time-to-first-op.
	RestoreSpeculative
)

// storePager lazily fills VM pages from a store object. It is the single
// choke point for demand paging: every lazy-restore and swap-in fault lands
// in PageIn, so this is where the per-group page-in accounting lives —
// RestoreStats is a point-in-time report and cannot see faults served after
// RestoreGroup returns.
type storePager struct {
	src  Source
	oid  objstore.OID
	g    *Group     // page-in accounting; nil disables
	swap bool       // counts as swap-in rather than lazy-restore traffic
	obj  *vm.Object // owning object, for speculation marks (set post-create)
}

func (sp *storePager) PageIn(pg int64, p *mem.Page) error {
	_, err := sp.src.ReadPage(sp.oid, pg, p.Data)
	if err == nil {
		p.Backed = true
		if g := sp.g; g != nil {
			name := "sls.pagein"
			if sp.swap {
				g.swapFaults.Add(1)
				g.swapBytes.Add(int64(len(p.Data)))
				name = "sls.swapin"
			} else {
				g.lazyFaults.Add(1)
				g.lazyBytes.Add(int64(len(p.Data)))
				if err := sp.speculate(pg, p); err != nil {
					return err
				}
			}
			if reg := g.o.reg; reg != nil {
				reg.Counter(name + ".faults").Add(1)
				reg.Counter(name + ".bytes").Add(int64(len(p.Data)))
			}
		}
	}
	return err
}

// speculate handles a demand fault that landed while the group executes
// ahead of validation: the page is marked speculated and, when the source
// records a committed sum for it, checked in-line — a torn or rotted read
// must not reach the application even transiently. Pages without a sum
// (inline objects, holes) stay marked for the validator sweep.
func (sp *storePager) speculate(pg int64, p *mem.Page) error {
	g := sp.g
	if g.SpecState() != SpecSpeculating || sp.obj == nil {
		return nil
	}
	g.specPages.Add(1)
	sp.obj.MarkSpeculated(pg)
	g.o.reg.Counter("sls.spec.faults").Add(1)
	sum, ok, err := pageSum(sp.src, sp.oid, pg)
	if err != nil || !ok {
		return nil // no ground truth; the sweep revisits the mark
	}
	if crc32.ChecksumIEEE(p.Data) != sum {
		g.recordMismatch(sp.oid, pg)
		return fmt.Errorf("%w: oid %d page %d failed fault-time check", ErrSpeculation, sp.oid, pg)
	}
	g.specValidated.Add(1)
	sp.obj.ClearSpeculated(pg)
	return nil
}

// pageSummer is the validation-truth interface both *objstore.Store and
// *objstore.View provide: the CRC32 recorded when a page was committed.
type pageSummer interface {
	PageSum(oid objstore.OID, pg int64) (uint32, bool, error)
}

// pageSum looks up the committed sum of (oid, pg), reporting ok=false when
// the source keeps no sum for it.
func pageSum(src Source, oid objstore.OID, pg int64) (uint32, bool, error) {
	ps, ok := src.(pageSummer)
	if !ok {
		return 0, false, nil
	}
	return ps.PageSum(oid, pg)
}

func (sp *storePager) BackingOID() uint64 { return uint64(sp.oid) }

// HasPage implements vm.SparsePager: a restored object mid-chain must
// expose only its own stored pages, letting holes fall through to its
// backer (the fork shadow / private-mapping semantics).
func (sp *storePager) HasPage(pg int64) bool {
	ok, err := sp.src.HasPage(sp.oid, pg)
	return err == nil && ok
}

var _ vm.SparsePager = (*storePager)(nil)

// RestoreGroup rebuilds the named consistency group from src. When
// continuing is true (restoring the live store's latest state), the group
// keeps flushing incrementally into the same objects; otherwise (a
// historical view) the next checkpoint performs a full reflush.
func (o *Orchestrator) RestoreGroup(name string, src Source, mode RestoreMode, continuing bool) (retG *Group, st RestoreStats, retErr error) {
	sw := clock.StartStopwatch(o.Clk)
	st.Mode = mode
	restSpan := o.tr.Begin(trace.TrackSLS, "restore")
	if fl := o.Store.Flight(); fl != nil {
		fl.Record(int64(o.Clk.Now()), flight.EvRestore, int64(o.Store.Epoch()), int64(mode), boolInt(continuing), name)
	}

	// 1. Manifest -> group record.
	groupOID, err := o.findGroupOID(src, name)
	if err != nil {
		return nil, st, err
	}
	raw, err := src.GetRecord(groupOID)
	if err != nil {
		return nil, st, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, st, err
	}

	g := o.CreateGroup(name)
	g.oid = groupOID
	if mode == RestoreSpeculative {
		// The group executes ahead of validation from the moment this
		// function returns; remember the image so FinishSpeculation can
		// validate against it and a rollback can re-restore from it.
		g.specState = SpecSpeculating
		g.specSrc = src
		g.specContinuing = continuing
	}
	r := &restorer{o: o, g: g, src: src, mode: mode, st: &st}
	// A restore that dies partway — corrupt record, or the standby itself
	// power-cut mid-restore — must not leave the half-built group
	// registered: GroupByName would keep resolving the wedged husk, and a
	// retry would stack a second group under the same name. Tear down what
	// was built and unregister, so the caller can simply restore again.
	defer func() {
		if retErr == nil {
			return
		}
		for _, p := range g.Procs() {
			p.Exit(0)
		}
		for _, m := range r.memMetas {
			if obj, ok := r.memObjs[m.oid]; ok && !r.memUsed[m.oid] {
				obj.Deref() // creator reference nobody consumed
			}
		}
		o.Forget(g)
		retG = nil
	}()

	gname := d.Str()
	_ = gname
	g.Period = timeDuration(d.U64())

	type procEnt struct {
		oid       objstore.OID
		localPID  kern.PID
		parentPID kern.PID
	}
	// Every count-prefixed loop below guards on d.Err(): a corrupt count
	// field decodes as garbage and must not drive a multi-gigabyte append
	// loop off a record a few hundred bytes long. Once the decoder's
	// sticky error trips, the loop stops and the check after the loops
	// reports it.
	var procEnts []procEnt
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		procEnts = append(procEnts, procEnt{
			oid:       objstore.OID(d.U64()),
			localPID:  kern.PID(d.U32()),
			parentPID: kern.PID(d.U32()),
		})
	}
	type ephEnt struct{ pid, parent kern.PID }
	var ephs []ephEnt
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		ephs = append(ephs, ephEnt{kern.PID(d.U32()), kern.PID(d.U32())})
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		m := memMeta{
			oid:        objstore.OID(d.U64()),
			size:       d.I64(),
			backerKind: d.U8(),
			backerOID:  d.U64(),
		}
		r.memMetas = append(r.memMetas, m)
	}
	var shmOIDs []objstore.OID
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		shmOIDs = append(shmOIDs, objstore.OID(d.U64()))
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		jn := d.Str()
		g.journals[jn] = objstore.OID(d.U64())
	}
	if err := d.Err(); err != nil {
		return nil, st, err
	}

	// 2. Memory objects (hierarchy bottom-up; metas are ordered
	// backer-first by the serializer).
	for _, m := range r.memMetas {
		if _, err := r.memObject(m.oid); err != nil {
			return nil, st, err
		}
	}

	// 3. Shared-memory segments (namespaces).
	for _, oid := range shmOIDs {
		if _, err := r.shm(oid); err != nil {
			return nil, st, err
		}
	}

	// 4. Processes.
	byPID := make(map[kern.PID]*kern.Proc)
	for _, pe := range procEnts {
		p, err := r.proc(pe.oid)
		if err != nil {
			return nil, st, err
		}
		byPID[pe.localPID] = p
		g.oidOf[p] = pe.oid
		st.Procs++
	}
	for _, pe := range procEnts {
		if pe.parentPID != 0 {
			if parent, ok := byPID[pe.parentPID]; ok {
				parent.AdoptChild(byPID[pe.localPID])
			}
		}
	}

	// 5. Ephemeral children did not survive: SIGCHLD to their parents,
	// exactly as if the child exited unexpectedly (§3).
	for _, eph := range ephs {
		if parent, ok := byPID[eph.parent]; ok {
			parent.QueueSignal(kern.SIGCHLD)
		}
	}
	// Restore-notification signal: applications fix up runtime state in
	// an Aurora-specific handler (§3). Delivered in PID order — map
	// iteration order would make replayed restores diverge.
	pids := make([]kern.PID, 0, len(byPID))
	for pid := range byPID {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		byPID[pid].QueueSignal(kern.SIGRESTORE)
	}

	// 6. Bookkeeping so the group continues checkpointing.
	for oid := range r.liveOIDs {
		g.prevLive[oid] = true
	}
	if continuing {
		for _, m := range r.memMetas {
			g.flushed[m.oid] = true
		}
	}
	st.Objects = len(r.liveOIDs)
	st.Epoch = o.Store.Epoch()
	st.Time = sw.Elapsed()
	if mode == RestoreSpeculative {
		// Metadata is rebuilt and every page faults in on demand: the
		// group can execute its first instruction now, before a single
		// data page has moved.
		st.TimeToFirstOp = st.Time
	}
	restSpan.End(trace.S("group", name), trace.I("mode", int64(mode)), trace.I("procs", int64(st.Procs)), trace.I("objects", int64(st.Objects)),
		trace.I("pages_eager", st.PagesEager))
	if reg := o.reg; reg != nil {
		reg.Counter("sls.restores").Add(1)
		ttfo := st.TimeToFirstOp
		if ttfo == 0 {
			// Serial and lazy restores run nothing until the rebuild ends:
			// time-to-first-op is the whole restore.
			ttfo = st.Time
		}
		reg.Observe("sls.restore.ttfo.ns", int64(ttfo))
	}
	return g, st, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ManifestGroups lists the group names recorded in a store's manifest —
// what sls ps shows after a reboot, before anything is restored.
func ManifestGroups(src Source) ([]string, error) {
	raw, err := src.GetRecord(ManifestOID)
	if err != nil {
		return nil, nil // no manifest: nothing persisted yet
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	var out []string
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		_ = d.U64()
		out = append(out, d.Str())
		_ = d.U64()
	}
	return out, d.Err()
}

// findGroupOID scans the manifest for a named group.
func (o *Orchestrator) findGroupOID(src Source, name string) (objstore.OID, error) {
	raw, err := src.GetRecord(ManifestOID)
	if err != nil {
		return 0, fmt.Errorf("%w: no manifest: %v", ErrNoGroup, err)
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return 0, err
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		_ = d.U64() // group id (historical)
		gname := d.Str()
		oid := objstore.OID(d.U64())
		if gname == name && d.Err() == nil {
			return oid, nil
		}
	}
	if err := d.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%w: %q", ErrNoGroup, name)
}

// restorer carries the per-restore memo tables.
type restorer struct {
	o    *Orchestrator
	g    *Group
	src  Source
	mode RestoreMode
	st   *RestoreStats

	memMetas []memMeta
	memObjs  map[objstore.OID]*vm.Object
	memUsed  map[objstore.OID]bool // creator reference consumed
	files    map[objstore.OID]*kern.File
	sockets  map[objstore.OID]*kern.Socket
	shms     map[objstore.OID]*kern.ShmSegment
	pipes    map[objstore.OID]*kern.Pipe
	ptys     map[objstore.OID]*kern.PTY
	liveOIDs map[objstore.OID]bool
}

// timeDuration converts a persisted nanosecond count.
func timeDuration(ns uint64) time.Duration { return time.Duration(ns) }

func (r *restorer) init() {
	if r.memObjs == nil {
		r.memObjs = make(map[objstore.OID]*vm.Object)
		r.memUsed = make(map[objstore.OID]bool)
		r.files = make(map[objstore.OID]*kern.File)
		r.sockets = make(map[objstore.OID]*kern.Socket)
		r.shms = make(map[objstore.OID]*kern.ShmSegment)
		r.liveOIDs = make(map[objstore.OID]bool)
	}
}

// takeRef returns obj with one reference for the caller: the first taker
// consumes the creator reference, later takers add one.
func (r *restorer) takeRef(oid objstore.OID, obj *vm.Object) *vm.Object {
	if r.memUsed[oid] {
		obj.Ref()
	} else {
		r.memUsed[oid] = true
	}
	return obj
}

// memObject rebuilds one memory object (and, recursively, its backers).
func (r *restorer) memObject(oid objstore.OID) (*vm.Object, error) {
	r.init()
	if obj, ok := r.memObjs[oid]; ok {
		return obj, nil
	}
	var meta *memMeta
	for i := range r.memMetas {
		if r.memMetas[i].oid == oid {
			meta = &r.memMetas[i]
			break
		}
	}
	if meta == nil {
		return nil, fmt.Errorf("sls: restore: no metadata for memory object %d", oid)
	}

	var backer *vm.Object
	switch meta.backerKind {
	case backAnon:
		b, err := r.memObject(objstore.OID(meta.backerOID))
		if err != nil {
			return nil, err
		}
		backer = r.takeRef(objstore.OID(meta.backerOID), b)
	case backVnode:
		b, err := r.o.K.VnodeVMObject(meta.backerOID)
		if err != nil {
			return nil, err
		}
		backer = b
	}

	sp := &storePager{src: r.src, oid: oid, g: r.g}
	obj := r.o.K.VM.RestoreObject(vm.Anonymous, meta.size, sp, backer)
	sp.obj = obj
	r.memObjs[oid] = obj
	r.liveOIDs[oid] = true
	r.g.oidOf[obj] = oid
	r.g.restoredMem = append(r.g.restoredMem, restoredMem{obj: obj, oid: oid, size: meta.size})

	if r.mode == RestoreFull {
		if err := r.eagerLoad(oid, obj, meta.size); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// bulkSource is the fast eager-read path both Store and View provide.
type bulkSource interface {
	EachPageBulk(oid objstore.OID, fn func(pg int64, data []byte) error) (int64, error)
}

// eagerLoad pulls every stored page of oid into the object. With a bulk
// source the reads pipeline at device bandwidth (Table 6's full-restore
// times); otherwise it degrades to per-page reads.
func (r *restorer) eagerLoad(oid objstore.OID, obj *vm.Object, size int64) error {
	if bs, ok := r.src.(bulkSource); ok {
		n, err := bs.EachPageBulk(oid, func(pg int64, data []byte) error {
			if err := verifyPage(r.src, oid, pg, data); err != nil {
				return err
			}
			frame, err := r.o.K.VM.PM.Alloc()
			if err != nil {
				return err
			}
			copy(frame.Data, data)
			frame.Backed = true
			obj.InsertPage(pg, frame)
			return nil
		})
		r.st.PagesEager += n
		return err
	}
	pages := mem.PagesFor(size)
	for pg := int64(0); pg < pages; pg++ {
		frame, err := r.o.K.VM.PM.Alloc()
		if err != nil {
			return err
		}
		found, err := r.src.ReadPage(oid, pg, frame.Data)
		if err != nil {
			return err
		}
		if !found {
			r.o.K.VM.PM.Free(frame)
			continue
		}
		if err := verifyPage(r.src, oid, pg, frame.Data); err != nil {
			r.o.K.VM.PM.Free(frame)
			return err
		}
		frame.Backed = true
		obj.InsertPage(pg, frame)
		r.st.PagesEager++
	}
	return nil
}

// verifyPage cross-checks page data read from the device against the sum
// recorded when the page was committed. Eager restores always verify: a
// rotted read must fail the restore loudly, not hand the application
// corrupt memory — and the rollback path's serial re-restore relies on
// this to refuse a persistently damaged image rather than "succeed" with
// garbage.
func verifyPage(src Source, oid objstore.OID, pg int64, data []byte) error {
	sum, ok, err := pageSum(src, oid, pg)
	if err != nil {
		return err
	}
	if ok && crc32.ChecksumIEEE(data) != sum {
		return fmt.Errorf("sls: restore: oid %d page %d content does not match committed sum", oid, pg)
	}
	return nil
}

// proc rebuilds one process.
func (r *restorer) proc(oid objstore.OID) (*kern.Proc, error) {
	r.init()
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	name := d.Str()
	localPID := kern.PID(d.U32())
	pgid := kern.PID(d.U32())
	sid := kern.PID(d.U32())
	p := r.o.K.RestoreProc(name, localPID, pgid, sid, r.g.ID)
	r.liveOIDs[oid] = true

	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		tname := d.Str()
		ltid := kern.PID(d.U32())
		sigmask := d.U64()
		prio := int(d.U32())
		cpu := cpuDecode(d)
		p.RestoreThread(tname, ltid, cpu, sigmask, prio)
	}
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		p.QueueSignal(kern.Signal(d.U32()))
	}

	// Descriptor table.
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		fd := int(d.U32())
		foid := objstore.OID(d.U64())
		f, err := r.file(foid)
		if err != nil {
			return nil, err
		}
		p.InstallFile(fd, f)
	}

	// Address space.
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		if err := r.entry(p, d.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	r.o.Clk.Advance(r.o.Costs.RestoreBase)
	return p, nil
}

// entry rebuilds one address-space mapping.
func (r *restorer) entry(p *kern.Proc, raw []byte) error {
	d := rec.NewRawDecoder(raw)
	start := d.U64()
	end := d.U64()
	prot := vm.Prot(d.U8())
	off := d.I64()
	shared := d.Bool()
	kind := d.U8()
	length := int64(end - start)
	// The raw decoder has no CRC; a truncated entry blob must fail here,
	// not dispatch on a garbage kind byte.
	if err := d.Err(); err != nil {
		return err
	}

	switch kind {
	case entVDSO:
		return p.MapVDSOLockedRestore()
	case entDevice:
		return p.MapDeviceAt(d.Str(), start)
	case entVnodeShared:
		obj, err := r.o.K.VnodeVMObject(d.U64())
		if err != nil {
			return err
		}
		return p.Mem.MapAt(start, obj, off, length, prot, shared)
	case entAnon:
		oid := objstore.OID(d.U64())
		if oid == 0 {
			// An excluded (sls_mctl) region: geometry only, content is
			// the application's to rebuild.
			fresh := r.o.K.VM.NewObject(vm.Anonymous, length)
			return p.Mem.MapAt(start, fresh, off, length, prot, shared)
		}
		obj, err := r.memObject(oid)
		if err != nil {
			return err
		}
		return p.Mem.MapAt(start, r.takeRef(oid, obj), off, length, prot, shared)
	default:
		return fmt.Errorf("sls: restore: unknown entry kind %d", kind)
	}
}

// file rebuilds an open-file description.
func (r *restorer) file(oid objstore.OID) (*kern.File, error) {
	r.init()
	if f, ok := r.files[oid]; ok {
		return f, nil
	}
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	kind := kern.ObjKind(d.U16())
	offset := d.I64()
	flags := int(d.U32())
	implOID := objstore.OID(d.U64())
	implAux := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}

	var f *kern.File
	switch kind {
	case kern.KindVnode:
		v, err := r.o.K.RestoreVnodeFile(uint64(implOID), "")
		if err != nil {
			return nil, err
		}
		f = kern.RestoreFile(v, offset, flags)
	case kern.KindPipe:
		pipe, err := r.pipe(implOID)
		if err != nil {
			return nil, err
		}
		f = kern.PipeFile(pipe, implAux == 1, offset, flags)
	case kern.KindSocketUnix, kern.KindSocketUDP, kern.KindSocketTCP:
		s, err := r.socket(implOID)
		if err != nil {
			return nil, err
		}
		f = kern.SocketFile(s, offset, flags)
	case kern.KindShm:
		seg, err := r.shm(implOID)
		if err != nil {
			return nil, err
		}
		f = kern.ShmFile(seg, flags)
	case kern.KindKqueue:
		kq, err := r.kqueue(implOID)
		if err != nil {
			return nil, err
		}
		f = kern.KqueueFile(kq, flags)
	case kern.KindPTY:
		pty, err := r.pty(implOID)
		if err != nil {
			return nil, err
		}
		f = kern.PTYFile(pty, implAux == 1, flags)
	case kern.KindDevice:
		dn, err := r.deviceName(implOID)
		if err != nil {
			return nil, err
		}
		f = r.o.K.DeviceFile(dn, flags)
	default:
		return nil, fmt.Errorf("sls: restore: unknown file kind %v", kind)
	}
	r.files[oid] = f
	r.liveOIDs[oid] = true
	r.g.oidOf[f] = oid
	r.o.Clk.Advance(r.o.Costs.RestoreBase)
	return f, nil
}

// pipeMemo avoids rebuilding a pipe once per end.
func (r *restorer) pipe(oid objstore.OID) (*kern.Pipe, error) {
	if p, ok := r.pipes[oid]; ok {
		return p, nil
	}
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	buffered := d.Bytes()
	readers := int32(d.U32())
	writers := int32(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	pipe := r.o.K.RestorePipe(buffered, readers, writers)
	if r.pipes == nil {
		r.pipes = make(map[objstore.OID]*kern.Pipe)
	}
	r.pipes[oid] = pipe
	r.liveOIDs[oid] = true
	r.g.oidOf[pipe] = oid
	return pipe, nil
}

// socket rebuilds a socket, linking in-group peers and severing external
// connections.
func (r *restorer) socket(oid objstore.OID) (*kern.Socket, error) {
	r.init()
	if s, ok := r.sockets[oid]; ok {
		return s, nil
	}
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	ps := kern.RestoreSocketParams{
		Kind:      kern.ObjKind(d.U16()),
		Local:     d.Str(),
		Remote:    d.Str(),
		Bound:     d.Bool(),
		Listening: d.Bool(),
		Seq:       d.U64(),
		Options:   d.U32(),
	}
	ps.ESDisabled = d.Bool()
	ps.OwnerGroup = r.g.ID
	peerOID := objstore.OID(d.U64())

	s := r.o.K.RestoreSocket(ps)
	r.sockets[oid] = s
	r.liveOIDs[oid] = true
	r.g.oidOf[s] = oid

	// Buffered messages with in-flight descriptors.
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		data := d.Bytes()
		from := d.Str()
		var files []*kern.File
		for j, fn := 0, int(d.U32()); j < fn && d.Err() == nil; j++ {
			foid := objstore.OID(d.U64())
			f, err := r.file(foid)
			if err != nil {
				return nil, err
			}
			f.Ref() // the queued message holds a reference
			files = append(files, f)
		}
		s.EnqueueRestored(data, from, files)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	switch {
	case peerOID != 0:
		peer, err := r.socket(peerOID)
		if err != nil {
			return nil, err
		}
		kern.LinkPeers(s, peer)
	case ps.Remote != "" && !ps.Listening && ps.Kind != kern.KindSocketUDP:
		// Established connection whose peer was outside the group: it
		// does not survive; the application reconnects.
		s.MarkDisconnected()
	}
	return s, nil
}

// shm rebuilds a shared-memory segment.
func (r *restorer) shm(oid objstore.OID) (*kern.ShmSegment, error) {
	r.init()
	if seg, ok := r.shms[oid]; ok {
		return seg, nil
	}
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	id := d.I64()
	key := d.I64()
	name := d.Str()
	size := d.I64()
	sysv := d.Bool()
	memOID := objstore.OID(d.U64())
	if err := d.Err(); err != nil {
		return nil, err
	}
	obj, err := r.memObject(memOID)
	if err != nil {
		return nil, err
	}
	seg := r.o.K.RestoreShm(id, key, name, size, sysv, r.takeRef(memOID, obj), 1)
	r.o.Clk.Advance(r.o.Costs.RestoreBase)
	r.shms[oid] = seg
	r.liveOIDs[oid] = true
	r.g.oidOf[seg] = oid
	return seg, nil
}

func (r *restorer) kqueue(oid objstore.OID) (*kern.Kqueue, error) {
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	var events []kern.Kevent
	for i, n := 0, int(d.U32()); i < n && d.Err() == nil; i++ {
		events = append(events, kern.Kevent{
			Ident:  d.U64(),
			Filter: kern.Filter(int16(d.U16())),
			Flags:  d.U32(),
			FFlags: d.U32(),
			Data:   d.I64(),
			UData:  d.U64(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	kq := r.o.K.RestoreKqueue(events)
	r.liveOIDs[oid] = true
	r.g.oidOf[kq] = oid
	return kq, nil
}

func (r *restorer) pty(oid objstore.OID) (*kern.PTY, error) {
	if p, ok := r.ptys[oid]; ok {
		return p, nil
	}
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return nil, err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return nil, err
	}
	index := int(d.U32())
	toSlave := d.Bytes()
	toMaster := d.Bytes()
	var termios [64]byte
	copy(termios[:], d.Bytes())
	if err := d.Err(); err != nil {
		return nil, err
	}
	pty := r.o.K.RestorePTY(index, toSlave, toMaster, termios)
	if r.ptys == nil {
		r.ptys = make(map[objstore.OID]*kern.PTY)
	}
	r.ptys[oid] = pty
	r.liveOIDs[oid] = true
	r.g.oidOf[pty] = oid
	return pty, nil
}

func (r *restorer) deviceName(oid objstore.OID) (string, error) {
	raw, err := r.src.GetRecord(oid)
	if err != nil {
		return "", err
	}
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return "", err
	}
	name := d.Str()
	r.liveOIDs[oid] = true
	return name, d.Err()
}
