package objstore

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"aurora/internal/trace"
)

// Batched page writes: the checkpoint flush pipeline's entry point into the
// store. A batch amortizes the store lock over many pages and splits the
// write into three phases so the expensive part — copying page payloads into
// the device — runs outside the store lock:
//
//  1. Reserve (under mu): look up the object, fault in or create the
//     block-map chunks the batch touches, and allocate one fresh COW block
//     per page.
//  2. Transfer (outside mu): submit every payload to the device. Member
//     devices of a stripe carry their own locks, so concurrent batches
//     overlap their copies the way NVMe queue depth allows.
//  3. Publish (under mu): swing the chunk slots to the new blocks, retire
//     the superseded ones, and advance the write-behind horizon.
//
// Readers that race a batch see the object's previous committed content
// until Publish — the same snapshot semantics a serial WritePage sequence
// gives, since a block is never reachable before its slot is swung.
//
// Concurrency: WritePages is safe for any number of concurrent callers.
// Callers writing the SAME page of the same object race (last publisher
// wins), exactly as racing WritePage calls do; the flush pipeline avoids
// this by construction, handing each destination object to one worker per
// epoch.

// PageWrite names one whole-page update in a batch.
type PageWrite struct {
	Pg   int64
	Data []byte // exactly BlockSize bytes, stable until WritePages returns
}

// batchPages bounds how many pages one reserve/publish phase covers, so a
// huge flush cannot hold the store lock for its full duration.
const batchPages = 256

// WritePages applies a batch of COW page writes to oid. Every page is
// allocated a fresh block (the old one, if any, is retired), and the device
// transfers are submitted asynchronously: durability is the interval
// commit's job, as with WritePage. It returns the number of bytes submitted.
func (s *Store) WritePages(oid OID, writes []PageWrite) (int64, error) {
	var bytes int64
	for len(writes) > 0 {
		n := len(writes)
		if n > batchPages {
			n = batchPages
		}
		if err := s.writePageBatch(oid, writes[:n]); err != nil {
			return bytes, err
		}
		bytes += int64(n) * BlockSize
		writes = writes[n:]
	}
	return bytes, nil
}

// writePageBatch runs the three-phase write for one bounded batch.
func (s *Store) writePageBatch(oid OID, writes []PageWrite) error {
	for _, w := range writes {
		if len(w.Data) != BlockSize {
			return fmt.Errorf("objstore: WritePages wants %d bytes, got %d", BlockSize, len(w.Data))
		}
	}

	var batchSpan, phaseSpan trace.Span
	if s.tr != nil {
		batchSpan = s.tr.Begin(trace.TrackObjstore, "writepages")
		phaseSpan = batchSpan.Child("reserve")
	}

	// Phase 1: reserve blocks and chunks under the lock.
	s.mu.Lock()
	o, err := s.lookup(oid)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if o.journal != nil {
		s.mu.Unlock()
		return ErrIsJournal
	}
	if err := s.toPaged(o); err != nil {
		s.mu.Unlock()
		return err
	}
	chunks := make([]*chunk, len(writes))
	addrs := make([]int64, len(writes))
	for i, w := range writes {
		c, err := s.loadChunk(o, w.Pg, true)
		if err != nil {
			s.unreserve(addrs[:i])
			s.mu.Unlock()
			return err
		}
		a, err := s.allocBlock()
		if err != nil {
			s.unreserve(addrs[:i])
			s.mu.Unlock()
			return err
		}
		chunks[i] = c
		addrs[i] = a
	}
	s.mu.Unlock()
	if s.tr != nil {
		phaseSpan.End()
		phaseSpan = batchSpan.Child("transfer")
	}

	// Phase 2: device transfers, outside the store lock. The blocks are
	// fresh, so nothing can read them until phase 3 publishes — which also
	// means transfer order is free: the batch is walked in device-address
	// order and each contiguous block run becomes one vectored submit, so
	// per-page device commands collapse into per-run ones without staging a
	// contiguous copy. (The allocator hands sequential batches contiguous
	// runs: ascending from the bump region, descending off the freelist.)
	sums := make([]uint32, len(writes))
	for i, w := range writes {
		sums[i] = crc32.ChecksumIEEE(w.Data)
	}
	order := make([]int, len(writes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return addrs[order[a]] < addrs[order[b]] })
	var done time.Duration
	submit := func(lo, hi int) error { // order[lo:hi] is one contiguous run
		var t time.Duration
		var err error
		if hi-lo == 1 {
			t, err = s.dev.SubmitWrite(writes[order[lo]].Data, addrs[order[lo]])
		} else {
			bufs := make([][]byte, hi-lo)
			for i := range bufs {
				bufs[i] = writes[order[lo+i]].Data
			}
			t, err = s.dev.SubmitWritev(bufs, addrs[order[lo]])
		}
		if err != nil {
			s.mu.Lock()
			s.unreserve(addrs)
			s.mu.Unlock()
			return err
		}
		if t > done {
			done = t
		}
		return nil
	}
	run := 0
	for i := 1; i < len(order); i++ {
		if addrs[order[i]] != addrs[order[i-1]]+BlockSize {
			if err := submit(run, i); err != nil {
				return err
			}
			run = i
		}
	}
	if err := submit(run, len(order)); err != nil {
		return err
	}
	if s.tr != nil {
		phaseSpan.End()
		phaseSpan = batchSpan.Child("publish")
	}

	// Phase 3: publish.
	s.mu.Lock()
	for i, w := range writes {
		slot := w.Pg % ChunkFanout
		c := chunks[i]
		s.retireBlock(c.addrs[slot])
		c.addrs[slot] = addrs[i]
		c.sums[slot] = sums[i]
		c.dirty = true
		if end := (w.Pg + 1) * BlockSize; end > o.size {
			o.size = end
		}
		s.walNote(walOp{kind: walOpPage, oid: oid, utype: o.utype, pg: w.Pg, addr: addrs[i], sum: sums[i]})
	}
	s.walNote(walOp{kind: walOpSize, oid: oid, size: o.size})
	o.dirty = true
	if done > s.pendingDurable {
		s.pendingDurable = done
	}
	s.stats.DataBytes += int64(len(writes)) * BlockSize
	s.mu.Unlock()
	if s.tr != nil {
		phaseSpan.End()
		batchSpan.End(trace.I("oid", int64(oid)), trace.I("pages", int64(len(writes))))
	}
	s.reg.Counter("objstore.data_bytes").Add(int64(len(writes)) * BlockSize)
	return nil
}

// unreserve returns blocks reserved by a failed batch to the allocator.
// They were born this interval and never published, so they recycle
// immediately. Requires mu.
func (s *Store) unreserve(addrs []int64) {
	for _, a := range addrs {
		if a != 0 {
			s.retireBlock(a)
		}
	}
}
