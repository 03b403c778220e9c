package objstore

import (
	"fmt"
	"sort"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/trace"
)

// Checkpointing: the commit path, crash recovery, and read-only views of
// retained history.

// CheckpointStats describes one committed checkpoint.
type CheckpointStats struct {
	Epoch         Epoch
	DirtyObjects  int
	MetaBytes     int64
	DurableAt     time.Duration // virtual time the commit is durable
	CommitCharged time.Duration // virtual time charged synchronously
}

// Checkpoint commits all modifications since the previous checkpoint as a
// new epoch. Data blocks were already submitted asynchronously by the write
// paths; Checkpoint writes block-map chunks, object records for dirty
// objects, the index, and finally the superblock. The superblock is ordered
// after everything else is durable, so a crash at any point leaves the
// previous checkpoint intact.
//
// The call itself is cheap in virtual time (metadata submission); the
// returned stats carry the virtual durability time, which callers such as
// the orchestrator wait on before externalizing effects.
func (s *Store) Checkpoint() (CheckpointStats, error) {
	// When WAL frames are outstanding this checkpoint is their fold: record
	// it before the flight ring is serialized so the committing snapshot
	// carries the fold that absorbed the frames.
	s.mu.Lock()
	foldBase, foldFrames := s.curEpoch(), s.walSeq
	s.mu.Unlock()
	if foldFrames > 0 {
		s.fl.Record(int64(s.clk.Now()), flight.EvWALFold, int64(foldBase), int64(foldFrames), 0, "")
	}
	s.persistFlight()
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := clock.StartStopwatch(s.clk)
	cur := s.curEpoch()
	st := CheckpointStats{Epoch: cur}
	commitSpan := s.tr.Begin(trace.TrackObjstore, "commit")
	metaSpan := commitSpan.Child("meta")

	// 1. Flush dirty chunks and records of dirty objects, in OID (and
	// chunk-index) order: a given logical state must always produce the
	// identical submit sequence, because the crash-exploration harness
	// replays checkpoints by submit index.
	oids := make([]OID, 0, len(s.objects))
	for oid := range s.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		o := s.objects[oid]
		if !o.dirty {
			continue
		}
		st.DirtyObjects++
		for _, ci := range sortedChunkIdxs(o) {
			c := o.chunks[ci]
			if !c.dirty {
				continue
			}
			addr, err := s.allocBlock()
			if err != nil {
				return st, err
			}
			done, err := s.dev.SubmitWrite(encodeChunk(c), addr)
			if err != nil {
				return st, err
			}
			if done > s.pendingDurable {
				s.pendingDurable = done
			}
			s.retireBlock(c.addr)
			c.addr = addr
			c.dirty = false
			st.MetaBytes += BlockSize
		}
		rec := encodeRecord(o)
		if o.recordAddr != 0 {
			s.retireRun(o.recordAddr, blocksFor(o.recordLen))
		}
		addr, err := s.allocRun(blocksFor(int64(len(rec))))
		if err != nil {
			return st, err
		}
		done, err := s.dev.SubmitWrite(rec, addr)
		if err != nil {
			return st, err
		}
		if done > s.pendingDurable {
			s.pendingDurable = done
		}
		o.recordAddr = addr
		o.recordLen = int64(len(rec))
		o.dirty = false
		st.MetaBytes += int64(len(rec))
	}
	s.deleted = make(map[OID]bool)
	metaSpan.End(trace.I("dirty_objects", int64(st.DirtyObjects)), trace.I("meta_bytes", st.MetaBytes))
	idxSpan := commitSpan.Child("index")

	// 2. Build and write the index. The index's own run must be allocated
	// BEFORE the final encode: allocation can pop the freelist and advance
	// nextBlk, both of which are serialized inside the index. (Encoding
	// first and patching afterwards — the old scheme — serialized a stale
	// freelist that could still list the index's own block, letting a
	// post-recovery allocation overwrite a retained index.) A trial encode
	// sizes the run; allocation only ever shrinks the encoded state, so the
	// real index always fits and any over-allocated tail returns to the
	// metadata pool.
	trialLen := int64(len(encodeIndex(s.indexState(cur)).b)) + 4 // + CRC
	idxRun := blocksFor(trialLen)
	idxAddr, err := s.allocMetaRun(idxRun)
	if err != nil {
		return st, err
	}
	e := encodeIndex(s.indexState(cur))
	idxLen := int64(len(e.b)) + 4
	if extra := idxRun - blocksFor(idxLen); extra > 0 {
		s.metaFree = append(s.metaFree, blockRun{addr: idxAddr + blocksFor(idxLen)*BlockSize, n: extra})
		for i := blocksFor(idxLen); i < idxRun; i++ {
			delete(s.birthOf, idxAddr+i*BlockSize)
		}
	}
	idxBytes := e.seal()
	done, err := s.dev.SubmitWrite(idxBytes, idxAddr)
	if err != nil {
		return st, err
	}
	if done > s.pendingDurable {
		s.pendingDurable = done
	}
	st.MetaBytes += idxLen
	idxSpan.End(trace.I("index_bytes", idxLen))
	superSpan := commitSpan.Child("super")

	// 3. Commit: the superblock is submitted with an ordering constraint —
	// its transfer may not begin before every interval write has completed.
	// This is a real device-level barrier, not an accounting fiction: under
	// power loss a plain submit could land while a dependency on another
	// stripe member was still queued, and recovery would follow a valid
	// superblock into rolled-back metadata.
	sb := encodeSuperblock(superblock{
		epoch: cur, indexAddr: idxAddr, indexLen: idxLen,
		walBase: s.walBase, walBlocks: s.walBlocks,
	})
	slotOff := int64(s.superSlot) * BlockSize
	sbDone, err := s.dev.SubmitWriteAfter(sb, slotOff, s.pendingDurable)
	if err != nil {
		return st, err
	}
	s.superSlot = 1 - s.superSlot
	s.pendingDurable = sbDone
	superSpan.End(trace.I("epoch", int64(cur)))

	// 4. The committed checkpoint joins retained history. Its index
	// blocks are deliberately NOT deadlisted: their lifetime is implied
	// by the retained list itself (freed directly when the checkpoint is
	// released). Serializing them into the index would make the index
	// describe its own storage — self-referential metadata whose size
	// compounds every epoch.
	s.retained = append(s.retained, ckptInfo{epoch: cur, indexAddr: idxAddr, indexLen: idxLen})
	for i := int64(0); i < blocksFor(idxLen); i++ {
		delete(s.birthOf, idxAddr+i*BlockSize)
	}
	s.epoch = cur
	s.durableAt[cur] = sbDone
	s.stats.Checkpoints++
	s.stats.MetaBytes += st.MetaBytes

	// 5. Queue staged releases behind this commit's durability horizon.
	// The superblock that no longer references the released history is on
	// the wire, but a power cut before its transfer completes would recover
	// the previous index — which still needs these blocks intact. They
	// become allocatable only once virtual time passes sbDone (see
	// promoteReleasedLocked). Data blocks were already serialized into this
	// index's freelist (see indexState); index runs recycle through the
	// in-memory metadata pool as ever.
	if len(s.releasing) > 0 || len(s.releasingMeta) > 0 {
		s.releaseQ = append(s.releaseQ, stagedRelease{at: sbDone, data: s.releasing, meta: s.releasingMeta})
		s.releasing, s.releasingMeta = nil, nil
	}
	s.promoteReleasedLocked()

	// 6. This commit folds any outstanding WAL frames into base state: the
	// new index fully describes them, so their generation is dead. The head
	// reset itself is deferred until virtual time passes sbDone — a crash
	// before that instant recovers the previous superblock, whose epoch
	// still matches the old frames (see maybeResetWALLocked).
	if s.walBlocks > 0 {
		s.walPending = nil
		if s.walSeq > 0 || s.walHead > 0 {
			s.pendingWALReset = true
			s.walResetAt = sbDone
		}
		if s.walSeq > 0 {
			s.walSeq = 0
			s.walDurable = make(map[uint64]time.Duration)
			s.reg.Counter("objstore.wal_folds").Add(1)
		}
	}
	s.observeDurableLocked(sbDone)

	st.DurableAt = sbDone
	st.CommitCharged = sw.Elapsed()
	releaseq := int64(len(s.releasing)) + int64(len(s.releaseQ))
	if s.tr != nil {
		// The commit window stretches from submission to the superblock's
		// durability point — the drain that overlaps resumed execution.
		s.tr.Range(trace.TrackObjstore, "commit.window", commitSpan.Start(), sbDone,
			trace.I("epoch", int64(cur)))
	}
	if reg := s.reg; reg != nil {
		reg.Gauge("objstore.releaseq").Set(releaseq)
		reg.Counter("objstore.commits").Add(1)
		reg.Counter("objstore.meta_bytes").Add(st.MetaBytes)
	}
	commitSpan.End(trace.I("meta_bytes", st.MetaBytes), trace.I("releaseq", releaseq))
	return st, nil
}

// persistFlight serializes the flight ring into the reserved FlightOID so
// the committing checkpoint carries the event history that led up to it.
// It runs before the commit takes s.mu (PutRecord locks internally); events
// recorded during the commit itself land in the next epoch's snapshot.
func (s *Store) persistFlight() {
	if s.fl == nil {
		return
	}
	snap := s.fl.Snapshot()
	// The ring is bounded (flight.DefaultCap events, capped details), so
	// the snapshot stays an inline record — one contiguous write per epoch.
	_ = s.PutRecord(FlightOID, flight.UType, snap)
}

// indexState snapshots the allocator and object table for encoding. Staged
// released blocks are serialized as free — if this commit's superblock
// lands they are genuinely unreferenced, and if it doesn't, recovery reads
// an older index that never listed them. Requires mu.
func (s *Store) indexState(cur Epoch) *indexState {
	idx := &indexState{
		epoch:    cur,
		nextOID:  s.nextOID,
		nextBlk:  s.nextBlk,
		freelist: s.freelist,
		deadlist: s.deadlist,
		retained: s.retained,
	}
	if len(s.releasing) > 0 || len(s.releaseQ) > 0 {
		// Queued and currently-staged released data blocks are free in this
		// epoch's view (its retained list omits the history that held them),
		// even though the in-memory allocator cannot touch them yet.
		fl := make([]int64, 0, len(s.freelist)+len(s.releasing))
		fl = append(fl, s.freelist...)
		for _, q := range s.releaseQ {
			fl = append(fl, q.data...)
		}
		idx.freelist = append(fl, s.releasing...)
	}
	oids := make([]OID, 0, len(s.objects))
	for oid := range s.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		o := s.objects[oid]
		idx.objects = append(idx.objects, indexEntry{oid: oid, addr: o.recordAddr, len: o.recordLen})
	}
	return idx
}

// WaitDurable blocks (in virtual time) until epoch's commit is durable.
func (s *Store) WaitDurable(epoch Epoch) error {
	s.mu.Lock()
	t, ok := s.durableAt[epoch]
	first := false
	if ok && !s.settled[epoch] {
		s.settled[epoch] = true
		first = true
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoEpoch, epoch)
	}
	s.dev.WaitUntil(t)
	if first {
		s.fl.Record(int64(s.clk.Now()), flight.EvDevSettle, int64(epoch), int64(t), 0, "")
	}
	// Waiting past a folding commit's superblock completes its deferred WAL
	// head reset — callers that barrier on the fold see the log reclaimed.
	s.mu.Lock()
	s.maybeResetWALLocked()
	s.mu.Unlock()
	return nil
}

// DurableAt returns the virtual time epoch became durable.
func (s *Store) DurableAt(epoch Epoch) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.durableAt[epoch]
	return t, ok
}

// readSuperblocks picks the valid superblock with the highest epoch,
// returning it and its slot.
func (s *Store) readSuperblocks() (superblock, int, error) {
	var best superblock
	slot := -1
	buf := make([]byte, BlockSize)
	for i := 0; i < 2; i++ {
		if _, err := s.dev.ReadAt(buf, int64(i)*BlockSize); err != nil {
			return superblock{}, 0, err
		}
		if sb, ok := decodeSuperblock(buf); ok && (slot == -1 || sb.epoch > best.epoch) {
			best, slot = sb, i
		}
	}
	if slot == -1 {
		return superblock{}, 0, fmt.Errorf("%w: no valid superblock", ErrCorrupt)
	}
	return best, slot, nil
}

// loadIndex replaces the store's live state with the index at addr.
// Requires the caller to hold no references into the old state.
func (s *Store) loadIndex(addr, length int64) error {
	idx, err := s.fetchIndex(addr, length)
	if err != nil {
		return err
	}
	s.nextOID = idx.nextOID
	s.nextBlk = idx.nextBlk
	s.freelist = idx.freelist
	s.deadlist = idx.deadlist
	s.retained = append(idx.retained, ckptInfo{epoch: idx.epoch, indexAddr: addr, indexLen: length})
	s.objects = make(map[OID]*object, len(idx.objects))
	for _, ent := range idx.objects {
		o, err := s.fetchRecord(ent.addr, ent.len)
		if err != nil {
			return err
		}
		o.recordAddr = ent.addr
		o.recordLen = ent.len
		s.objects[o.oid] = o
	}
	return nil
}

// fetchIndex reads and decodes an index.
func (s *Store) fetchIndex(addr, length int64) (*indexState, error) {
	buf := make([]byte, length)
	if _, err := s.dev.ReadAt(buf, addr); err != nil {
		return nil, err
	}
	return decodeIndex(buf)
}

// fetchRecord reads and decodes an object record.
func (s *Store) fetchRecord(addr, length int64) (*object, error) {
	buf := make([]byte, length)
	if _, err := s.dev.ReadAt(buf, addr); err != nil {
		return nil, err
	}
	return decodeRecord(buf)
}

// View is a read-only image of one retained checkpoint, used for restoring
// history ("sls restore" of a named checkpoint, time-travel debugging).
type View struct {
	s       *Store
	epoch   Epoch
	objects map[OID]*object
}

// RestoreView opens a read-only view of epoch. The current epoch and any
// retained epoch are viewable.
func (s *Store) RestoreView(epoch Epoch) (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var info *ckptInfo
	for i := range s.retained {
		if s.retained[i].epoch == epoch {
			info = &s.retained[i]
			break
		}
	}
	if info == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoEpoch, epoch)
	}
	idx, err := s.fetchIndex(info.indexAddr, info.indexLen)
	if err != nil {
		return nil, err
	}
	v := &View{s: s, epoch: epoch, objects: make(map[OID]*object, len(idx.objects))}
	for _, ent := range idx.objects {
		o, err := s.fetchRecord(ent.addr, ent.len)
		if err != nil {
			return nil, err
		}
		v.objects[o.oid] = o
	}
	return v, nil
}

// Epoch returns the epoch the view images.
func (v *View) Epoch() Epoch { return v.epoch }

// Objects lists OIDs present in the view.
func (v *View) Objects() []OID {
	out := make([]OID, 0, len(v.objects))
	for oid := range v.objects {
		out = append(out, oid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Exists reports whether oid existed at the view's epoch.
func (v *View) Exists(oid OID) bool {
	_, ok := v.objects[oid]
	return ok
}

// UType returns oid's type tag at the view's epoch.
func (v *View) UType(oid OID) (uint16, error) {
	o, ok := v.objects[oid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	return o.utype, nil
}

// Size returns oid's size at the view's epoch.
func (v *View) Size(oid OID) (int64, error) {
	o, ok := v.objects[oid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	return o.size, nil
}

// GetRecord returns oid's full content at the view's epoch.
func (v *View) GetRecord(oid OID) ([]byte, error) {
	o, ok := v.objects[oid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	if o.journal != nil {
		return nil, ErrIsJournal
	}
	if o.chunks == nil {
		return append([]byte(nil), o.inline...), nil
	}
	out := make([]byte, o.size)
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	if err := v.s.readRangeLocked(o, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DiffPages reports the page indexes of oid whose stored block differs
// between retained epoch old and the current committed state — the changed
// set a pre-copy migration round must resend. An object absent at the old
// epoch diffs in full.
func (s *Store) DiffPages(oid OID, old Epoch) ([]int64, error) {
	v, err := s.RestoreView(old)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cur, err := s.lookup(oid)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	oldObj := v.objects[oid]
	// Collect the union of chunk indexes.
	cis := make(map[int64]bool)
	for ci := range cur.chunks {
		cis[ci] = true
	}
	if oldObj != nil {
		for ci := range oldObj.chunks {
			cis[ci] = true
		}
	}
	// Walk chunks in sorted order: the per-chunk loadChunk reads must hit
	// the device (and the trace) in a deterministic sequence.
	cidxs := make([]int64, 0, len(cis))
	for ci := range cis {
		cidxs = append(cidxs, ci)
	}
	sortInt64s(cidxs)
	var out []int64
	for _, ci := range cidxs {
		curC, err := s.loadChunk(cur, ci*ChunkFanout, false)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		var oldC *chunk
		if oldObj != nil {
			oldC, err = s.loadChunk(oldObj, ci*ChunkFanout, false)
			if err != nil {
				s.mu.Unlock()
				return nil, err
			}
		}
		for slot := int64(0); slot < ChunkFanout; slot++ {
			var ca, oa int64
			if curC != nil {
				ca = curC.addrs[slot]
			}
			if oldC != nil {
				oa = oldC.addrs[slot]
			}
			if ca != oa && ca != 0 {
				out = append(out, ci*ChunkFanout+slot)
			}
		}
	}
	s.mu.Unlock()
	sortInt64s(out)
	return out, nil
}

// EachPageBulk streams every present page of oid at the view's epoch,
// charging pipelined bandwidth (the eager history-restore path).
func (v *View) EachPageBulk(oid OID, fn func(pg int64, data []byte) error) (int64, error) {
	o, ok := v.objects[oid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	return v.s.eachPageBulkObj(o, fn)
}

// HasPage reports whether oid stored page pg at the view's epoch.
func (v *View) HasPage(oid OID, pg int64) (bool, error) {
	o, ok := v.objects[oid]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.hasPageLocked(o, pg)
}

// PageSum returns the committed CRC32 of oid's page pg at the view's
// epoch (see Store.PageSum). ok is false for holes and inline objects.
func (v *View) PageSum(oid OID, pg int64) (uint32, bool, error) {
	o, ok := v.objects[oid]
	if !ok {
		return 0, false, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.pageSumLocked(o, pg)
}

// ReadPage reads one page of oid at the view's epoch.
func (v *View) ReadPage(oid OID, pg int64, buf []byte) (bool, error) {
	o, ok := v.objects[oid]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	if o.journal != nil {
		return false, ErrIsJournal
	}
	if o.chunks == nil {
		for i := range buf {
			buf[i] = 0
		}
		off := pg * BlockSize
		if off < int64(len(o.inline)) {
			copy(buf, o.inline[off:])
			return true, nil
		}
		return false, nil
	}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.readPageLocked(o, pg, buf)
}
