package objstore

// WAL-first incremental commit. A reserved region of the device directly
// after the superblocks holds a ring of CRC-framed delta records: each
// WALCommit serializes the interval's logical mutations (page publishes,
// inline puts, size changes, deletes, journal state changes) into one frame
// and appends it with a device-level ordering constraint, making the store
// durable without rewriting object records or the index. A later fold — an
// ordinary Checkpoint — absorbs the frames into base objects, after which
// the frame generation is dead; the head resets (log-structured GC) once
// the folding superblock is durable, so a crash before that instant still
// finds every frame the recoverable superblock needs.
//
// Recovery first loads the newest superblock's index, then scans the WAL
// region: frames whose base epoch matches the recovered epoch replay in
// sequence order, torn or stale tails terminate the scan. Replay reuses the
// locked mutator paths with recording suppressed, then reconciles the
// allocator: blocks a frame references are claimed out of the free pools,
// and bump-range blocks no committed frame ever referenced return to the
// freelist.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/trace"
)

// ErrWALFull is returned by WALCommit when the frame does not fit in the
// reserved region; the caller folds (Fold) to reclaim it and may retry.
var ErrWALFull = errors.New("objstore: wal region full")

// walSector is the append granularity: frames are padded to the 512-byte
// atom the device tears at, so a torn append can never corrupt the frame
// before it.
const walSector = 512

// DefaultWALBlocks caps the reserved region at 4 MiB.
const DefaultWALBlocks = 1024

// walHeaderLen is magic(4) + frameLen(4) + base(8) + seq(8) + nextOID(8) +
// nextBlk(8) + nops(4).
const walHeaderLen = 44

// walBlocksFor sizes the reserved region: an eighth of the device, clamped
// to [4, DefaultWALBlocks] blocks.
func walBlocksFor(devSize int64) int64 {
	n := devSize / BlockSize / 8
	if n < 4 {
		n = 4
	}
	if n > DefaultWALBlocks {
		n = DefaultWALBlocks
	}
	return n
}

// dataStart is the first byte the block allocator may hand out: past the
// superblocks and the reserved WAL region. Requires mu (or a quiescent
// store — the geometry never changes after Format/Recover).
func (s *Store) dataStart() int64 {
	if s.walBlocks > 0 {
		return s.walBase + s.walBlocks*BlockSize
	}
	return 2 * BlockSize
}

// WAL delta-record kinds.
const (
	walOpPut     = 1 // inline record payload (copied)
	walOpPage    = 2 // COW page publish: slot -> already-submitted block
	walOpSize    = 3 // explicit size change (shrink retires tail slots)
	walOpDelete  = 4 // object removal
	walOpJournal = 5 // journal create / truncate (extent + generation)
)

// walOp is one logical mutation captured for replay.
type walOp struct {
	kind  uint8
	oid   OID
	utype uint16
	pg    int64
	addr  int64
	size  int64
	sum   uint32
	gen   uint64
	fseq  uint64
	data  []byte
}

// walFrame is one committed delta record.
type walFrame struct {
	base    Epoch // epoch the deltas apply on top of
	seq     uint64
	nextOID OID
	nextBlk int64
	ops     []walOp
}

// walNote captures op into the pending delta set. Replay suppresses
// recording so the replayed mutators do not re-log themselves. Requires mu.
func (s *Store) walNote(op walOp) {
	if s.replaying || s.walBlocks == 0 {
		return
	}
	s.walPending = append(s.walPending, op)
}

// encodeWALFrame serializes fr, sealed but not sector-padded.
func encodeWALFrame(fr *walFrame) []byte {
	var ops enc
	for _, op := range fr.ops {
		ops.u8(op.kind)
		ops.u64(uint64(op.oid))
		switch op.kind {
		case walOpPut:
			ops.u16(op.utype)
			ops.bytes(op.data)
		case walOpPage:
			ops.u16(op.utype)
			ops.i64(op.pg)
			ops.i64(op.addr)
			ops.u32(op.sum)
		case walOpSize:
			ops.i64(op.size)
		case walOpDelete:
		case walOpJournal:
			ops.u16(op.utype)
			ops.i64(op.addr)
			ops.i64(op.size)
			ops.u64(op.gen)
			ops.u64(op.fseq)
		}
	}
	frameLen := walHeaderLen + len(ops.b) + 4
	var e enc
	e.u32(magicWAL)
	e.u32(uint32(frameLen))
	e.u64(uint64(fr.base))
	e.u64(fr.seq)
	e.u64(uint64(fr.nextOID))
	e.i64(fr.nextBlk)
	e.u32(uint32(len(fr.ops)))
	e.b = append(e.b, ops.b...)
	return e.seal()
}

// decodeWALFrame parses the frame at the start of b. ok is false for
// anything that is not a complete, checksummed frame (torn tail, stale
// bytes, garbage). padded is the frame's footprint in the ring.
func decodeWALFrame(b []byte) (fr *walFrame, padded int64, ok bool) {
	if len(b) < walHeaderLen+4 {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint32(b) != magicWAL {
		return nil, 0, false
	}
	frameLen := int64(binary.LittleEndian.Uint32(b[4:]))
	if frameLen < walHeaderLen+4 || frameLen > int64(len(b)) {
		return nil, 0, false
	}
	d, err := newDec(b[:frameLen])
	if err != nil {
		return nil, 0, false
	}
	d.u32() // magic
	d.u32() // frameLen
	fr = &walFrame{
		base:    Epoch(d.u64()),
		seq:     d.u64(),
		nextOID: OID(d.u64()),
		nextBlk: d.i64(),
	}
	nops := int(d.u32())
	if nops < 0 || nops > len(b) {
		return nil, 0, false
	}
	for i := 0; i < nops && d.err == nil; i++ {
		op := walOp{kind: d.u8(), oid: OID(d.u64())}
		switch op.kind {
		case walOpPut:
			op.utype = d.u16()
			op.data = append([]byte(nil), d.bytes()...)
		case walOpPage:
			op.utype = d.u16()
			op.pg = d.i64()
			op.addr = d.i64()
			op.sum = d.u32()
		case walOpSize:
			op.size = d.i64()
		case walOpDelete:
		case walOpJournal:
			op.utype = d.u16()
			op.addr = d.i64()
			op.size = d.i64()
			op.gen = d.u64()
			op.fseq = d.u64()
		default:
			return nil, 0, false
		}
		fr.ops = append(fr.ops, op)
	}
	if d.err != nil {
		return nil, 0, false
	}
	padded = (frameLen + walSector - 1) / walSector * walSector
	return fr, padded, true
}

// WALCommitStats describes one WAL commit.
type WALCommitStats struct {
	Base          Epoch // epoch the frame applies on top of
	Seq           uint64
	Bytes         int64
	DurableAt     time.Duration
	CommitCharged time.Duration
}

// WALCommit makes the interval's mutations durable by appending one delta
// frame to the reserved WAL region instead of running a full checkpoint.
// The frame is ordered behind the interval's write-behind horizon — the
// same barrier discipline as the superblock — so it can never land on media
// that lost a block it references. Dirty state stays dirty: a later fold
// (Checkpoint) absorbs it into base objects. Returns ErrWALFull, with the
// pending deltas intact, when the region cannot take the frame.
func (s *Store) WALCommit() (WALCommitStats, error) {
	// The append event is recorded before the flight ring is serialized so
	// frame N's snapshot carries appends 1..N — the crash-phase evidence
	// the harness checks after replay.
	s.mu.Lock()
	peekBase, peekSeq := s.epoch, s.walSeq+1
	s.mu.Unlock()
	s.fl.Record(int64(s.clk.Now()), flight.EvWALAppend, int64(peekBase), int64(peekSeq), 0, "")
	s.persistFlight()

	s.mu.Lock()
	defer s.mu.Unlock()
	sw := clock.StartStopwatch(s.clk)
	span := s.tr.Begin(trace.TrackObjstore, "wal.append")
	s.maybeResetWALLocked()
	fr := &walFrame{
		base:    s.epoch,
		seq:     s.walSeq + 1,
		nextOID: s.nextOID,
		nextBlk: s.nextBlk,
		ops:     s.walPending,
	}
	st := WALCommitStats{Base: fr.base, Seq: fr.seq}
	body := encodeWALFrame(fr)
	total := (int64(len(body)) + walSector - 1) / walSector * walSector
	if s.walHead+total > s.walBlocks*BlockSize {
		span.End(trace.I("full", 1))
		return st, fmt.Errorf("%w: frame %d bytes, %d free", ErrWALFull,
			total, s.walBlocks*BlockSize-s.walHead)
	}
	vec := [][]byte{body}
	if pad := total - int64(len(body)); pad > 0 {
		vec = append(vec, make([]byte, pad))
	}
	done, err := s.dev.SubmitWritevAfter(vec, s.walBase+s.walHead, s.pendingDurable)
	if err != nil {
		span.End()
		return st, err
	}
	s.walHead += total
	s.walSeq = fr.seq
	s.walPending = nil
	s.pendingDurable = done
	s.walDurable[fr.seq] = done
	s.observeDurableLocked(done)
	st.Bytes = total
	st.DurableAt = done
	st.CommitCharged = sw.Elapsed()
	if reg := s.reg; reg != nil {
		reg.Counter("objstore.wal_appends").Add(1)
		reg.Counter("objstore.wal_bytes").Add(total)
		reg.Gauge("objstore.wal_head").Set(s.walHead)
	}
	span.End(trace.I("seq", int64(fr.seq)), trace.I("bytes", total), trace.I("ops", int64(len(fr.ops))),
		trace.I("head", s.walHead))
	return st, nil
}

// observeDurableLocked feeds the durable-window histogram: the virtual gap
// between consecutive durability points, the store's recovery-loss bound.
// Requires mu.
func (s *Store) observeDurableLocked(done time.Duration) {
	if s.lastDurable > 0 && done > s.lastDurable {
		s.reg.Observe("durable.window_ns", int64(done-s.lastDurable))
	}
	s.lastDurable = done
}

// maybeResetWALLocked performs the deferred head reset: once virtual time
// passes the fold's superblock completion, no recoverable superblock can
// need the folded generation's frames, and the ring restarts from zero.
// Requires mu.
func (s *Store) maybeResetWALLocked() {
	if !s.pendingWALReset || s.clk.Now() < s.walResetAt {
		return
	}
	s.pendingWALReset = false
	if s.walHead == 0 {
		return
	}
	reclaimed := s.walHead
	s.walHead = 0
	s.fl.Record(int64(s.clk.Now()), flight.EvWALGC, reclaimed, int64(s.epoch), 0, "")
	s.reg.Counter("objstore.wal_gc_bytes").Add(reclaimed)
	if s.tr != nil {
		s.tr.Instant(trace.TrackObjstore, "wal.gc", trace.I("bytes", reclaimed))
	}
}

// Fold runs a full checkpoint, waits for it to become durable, and resets
// the WAL head. It is the guaranteed-progress fallback for ErrWALFull: on
// return the region is empty.
func (s *Store) Fold() (CheckpointStats, error) {
	cst, err := s.Checkpoint()
	if err != nil {
		return cst, err
	}
	if err := s.WaitDurable(cst.Epoch); err != nil {
		return cst, err
	}
	s.mu.Lock()
	s.maybeResetWALLocked()
	s.mu.Unlock()
	return cst, nil
}

// WALSeq returns the sequence number of the last committed WAL frame in the
// current generation (0 right after a fold or when the WAL is unused).
func (s *Store) WALSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSeq
}

// WALHead returns the byte offset past the last appended frame in the
// reserved region (for tests and tooling).
func (s *Store) WALHead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walHead
}

// WALRegion returns the reserved region's device offset and size in bytes.
func (s *Store) WALRegion() (base, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBase, s.walBlocks * BlockSize
}

// WaitWALDurable blocks (in virtual time) until WAL frame seq of the
// current generation is durable. Sequence numbers folded away by a
// checkpoint fall back to the fold's own durability point, which covers
// them by construction.
func (s *Store) WaitWALDurable(seq uint64) error {
	s.mu.Lock()
	t, ok := s.walDurable[seq]
	if !ok {
		t, ok = s.durableAt[s.epoch]
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: wal seq %d", ErrNoEpoch, seq)
	}
	s.dev.WaitUntil(t)
	s.mu.Lock()
	s.maybeResetWALLocked()
	s.mu.Unlock()
	return nil
}

// walRecover scans the reserved region and replays the committed frames of
// the recovered epoch's generation on top of the loaded index. Called by
// Recover after loadIndex with s.epoch set.
func (s *Store) walRecover() error {
	if s.walBlocks == 0 {
		return nil
	}
	region := make([]byte, s.walBlocks*BlockSize)
	if _, err := s.dev.ReadAt(region, s.walBase); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		frames []*walFrame
		off    int64
		end    int64
	)
	for off < int64(len(region)) {
		fr, padded, ok := decodeWALFrame(region[off:])
		if !ok || fr.base > s.epoch {
			break // torn tail, stale bytes, or an orphan (fsck's problem)
		}
		if fr.base == s.epoch {
			if fr.seq != uint64(len(frames))+1 {
				break
			}
			frames = append(frames, fr)
			end = off + padded
		} else if len(frames) > 0 {
			break // older-generation leftovers past the current chain
		}
		off += padded
	}
	if len(frames) == 0 {
		// No current-generation frames: the ring restarts. Recovery always
		// picks the newest superblock, so older generations are dead.
		s.walHead = 0
		return nil
	}

	s.replaying = true
	defer func() { s.replaying = false }()
	idxNextBlk := s.nextBlk
	claimed := make(map[int64]bool)
	for _, fr := range frames {
		s.walSeq = fr.seq
		if fr.nextOID > s.nextOID {
			s.nextOID = fr.nextOID
		}
		if fr.nextBlk > s.nextBlk {
			s.nextBlk = fr.nextBlk
		}
		for _, op := range fr.ops {
			if err := s.applyWALOpLocked(op, claimed); err != nil {
				return fmt.Errorf("wal frame %d: %w", fr.seq, err)
			}
		}
	}
	// Bump-range blocks no committed frame referenced were allocated after
	// the last frame (or reserved and never published): nothing on a
	// recoverable path references them, so they return to the free pool.
	for blk := idxNextBlk; blk < s.nextBlk; blk++ {
		if addr := blk * BlockSize; !claimed[addr] {
			s.freelist = append(s.freelist, addr)
		}
	}
	s.walHead = end
	s.walReplayed = len(frames)
	return nil
}

// WALReplayed reports how many frames the last Recover replayed.
func (s *Store) WALReplayed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walReplayed
}

// claimWALBlock reconciles the allocator with a block a replayed frame
// references: it leaves the free pools and is born in the current interval.
// Requires mu.
func (s *Store) claimWALBlock(addr int64, claimed map[int64]bool) {
	for i, a := range s.freelist {
		if a == addr {
			s.freelist = append(s.freelist[:i], s.freelist[i+1:]...)
			break
		}
	}
	for i, a := range s.releasing {
		if a == addr {
			s.releasing = append(s.releasing[:i], s.releasing[i+1:]...)
			break
		}
	}
	s.birthOf[addr] = s.curEpoch()
	claimed[addr] = true
}

// applyWALOpLocked replays one delta through the same locked mutator logic
// the live paths use (recording suppressed via s.replaying). Requires mu.
func (s *Store) applyWALOpLocked(op walOp, claimed map[int64]bool) error {
	switch op.kind {
	case walOpPut:
		o := s.ensure(op.oid, op.utype)
		if o.journal != nil {
			return fmt.Errorf("%w: put on journal %d", ErrCorrupt, op.oid)
		}
		o.utype = op.utype
		s.dropChunks(o)
		o.inline = append(o.inline[:0], op.data...)
		o.size = int64(len(op.data))
	case walOpPage:
		o := s.ensure(op.oid, op.utype)
		if o.journal != nil {
			return fmt.Errorf("%w: page on journal %d", ErrCorrupt, op.oid)
		}
		if o.chunks == nil {
			// The live path converted inline -> paged and re-logged the
			// former inline content as page ops; the conversion itself is
			// pure bookkeeping here.
			o.inline = nil
			o.chunks = make(map[int64]*chunk)
		}
		c, err := s.loadChunk(o, op.pg, true)
		if err != nil {
			return err
		}
		s.claimWALBlock(op.addr, claimed)
		slot := op.pg % ChunkFanout
		if old := c.addrs[slot]; old != 0 && old != op.addr {
			s.retireBlock(old)
		}
		c.addrs[slot] = op.addr
		c.sums[slot] = op.sum
		c.dirty = true
	case walOpSize:
		o, err := s.lookup(op.oid)
		if err != nil {
			return fmt.Errorf("%w: size for unknown object %d", ErrCorrupt, op.oid)
		}
		if o.journal != nil {
			return fmt.Errorf("%w: size on journal %d", ErrCorrupt, op.oid)
		}
		if o.chunks == nil {
			if op.size <= int64(len(o.inline)) {
				o.inline = o.inline[:op.size]
			} else {
				o.inline = append(o.inline, make([]byte, op.size-int64(len(o.inline)))...)
			}
		} else if err := s.shrinkSlotsLocked(o, op.size); err != nil {
			return err
		}
		o.size = op.size
		o.dirty = true
	case walOpDelete:
		o, err := s.lookup(op.oid)
		if err != nil {
			return fmt.Errorf("%w: delete of unknown object %d", ErrCorrupt, op.oid)
		}
		if o.journal != nil {
			s.retireRun(o.journal.extentAddr, o.journal.capBlocks)
		}
		s.dropChunks(o)
		if o.recordAddr != 0 {
			s.retireRun(o.recordAddr, blocksFor(o.recordLen))
		}
		delete(s.objects, op.oid)
		s.deleted[op.oid] = true
	case walOpJournal:
		o := s.ensure(op.oid, op.utype)
		if o.journal == nil {
			s.dropChunks(o)
			o.inline = nil
			for i := int64(0); i < op.size; i++ {
				s.claimWALBlock(op.addr+i*BlockSize, claimed)
			}
			o.journal = &journalState{
				extentAddr: op.addr,
				capBlocks:  op.size,
				generation: op.gen,
				flushedSeq: op.fseq,
			}
		} else {
			js := o.journal
			js.generation = op.gen
			js.flushedSeq = op.fseq
			js.tail = 0
			js.scanned = false
		}
		o.size = 0
	default:
		return fmt.Errorf("%w: unknown wal op %d", ErrCorrupt, op.kind)
	}
	return nil
}

// shrinkSlotsLocked retires page slots at and past the new size's last
// page, the metadata half of truncateLocked. The partial tail page needs no
// zeroing here: the live truncation already published the zeroed page as a
// preceding page op. Requires mu.
func (s *Store) shrinkSlotsLocked(o *object, size int64) error {
	lastPg := (size + BlockSize - 1) / BlockSize
	cis := make([]int64, 0, len(o.chunks))
	for ci := range o.chunks {
		cis = append(cis, ci)
	}
	sortInt64s(cis)
	for _, ci := range cis {
		first := ci * ChunkFanout
		if first+ChunkFanout <= lastPg {
			continue
		}
		c, err := s.loadChunk(o, first, false)
		if err != nil {
			return err
		}
		if c == nil {
			continue
		}
		empty := true
		for slot := int64(0); slot < ChunkFanout; slot++ {
			pg := first + slot
			if pg >= lastPg {
				if c.addrs[slot] != 0 {
					s.retireBlock(c.addrs[slot])
					c.addrs[slot] = 0
					c.sums[slot] = 0
					c.dirty = true
				}
			} else if c.addrs[slot] != 0 {
				empty = false
			}
		}
		if empty && first >= lastPg {
			s.retireBlock(c.addr)
			delete(o.chunks, ci)
		}
	}
	return nil
}
