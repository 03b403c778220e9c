package main

import (
	"hash/crc32"
)

// The benchmark's model every read is checked against. Values are kept as
// (length, CRC-32C) so the 400 k-key RocksDB preload does not double the
// benchmark's heap. Fill values are seed-derived random bytes and generated
// values are zeros of varying length, so a torn value, or a stale one that
// predates the last SET, fails the check unless the two SETs stored zeros
// of the same length.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest is a value as the model remembers it.
type digest struct {
	n   uint32
	sum uint32
}

func digestOf(v []byte) digest {
	return digest{n: uint32(len(v)), sum: crc32.Checksum(v, castagnoli)}
}

// undo is one overwritten model entry, replayed backwards to roll the model
// back to a checkpoint.
type undo struct {
	key  string
	prev digest
	had  bool
}

// cut is a committed checkpoint of one group: the store identity it
// committed as, when it became durable, and how much of the undo log it
// covers.
type cut struct {
	epoch     uint64
	walSeq    uint64
	durableAt int64 // virtual ns
	logLen    int
}

// model is one group's expected contents plus the undo history back to its
// oldest checkpoint that might still be the one a crash recovers.
type model struct {
	vals map[string]digest
	log  []undo
	cuts []cut
}

func newModel(n int) *model { return &model{vals: make(map[string]digest, n)} }

func (m *model) set(key string, v []byte) {
	prev, had := m.vals[key]
	m.log = append(m.log, undo{key: key, prev: prev, had: had})
	m.vals[key] = digestOf(v)
}

// check reports whether a read returned what the model holds.
func (m *model) check(key string, v []byte, found bool) bool {
	want, ok := m.vals[key]
	if !ok {
		return !found
	}
	return found && want == digestOf(v)
}

// commit records a checkpoint and drops history no crash can need: every
// cut older than the newest one already durable at now.
func (m *model) commit(c cut, now int64) {
	c.logLen = len(m.log)
	m.cuts = append(m.cuts, c)
	keep := 0
	for i, old := range m.cuts {
		if old.durableAt <= now {
			keep = i
		}
	}
	if keep == 0 {
		return
	}
	drop := m.cuts[keep].logLen
	m.log = append(m.log[:0], m.log[drop:]...)
	m.cuts = append(m.cuts[:0], m.cuts[keep:]...)
	for i := range m.cuts {
		m.cuts[i].logLen -= drop
	}
}

// acked is the newest cut this group had acknowledged durable by now.
func (m *model) acked(now int64) (cut, bool) {
	for i := len(m.cuts) - 1; i >= 0; i-- {
		if m.cuts[i].durableAt <= now {
			return m.cuts[i], true
		}
	}
	return cut{}, false
}

// contains reports whether a store recovered at (epoch, walSeq) holds c: a
// WAL frame commits on top of its base epoch without advancing it.
func contains(c cut, epoch, walSeq uint64) bool {
	return c.epoch < epoch || (c.epoch == epoch && c.walSeq <= walSeq)
}

// rollback rewinds the model to the newest cut a store recovered at
// (epoch, walSeq) contains, and reports whether such a cut was still held.
func (m *model) rollback(epoch, walSeq uint64) bool {
	idx := -1
	for i, c := range m.cuts {
		if contains(c, epoch, walSeq) {
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	for i := len(m.log) - 1; i >= m.cuts[idx].logLen; i-- {
		u := m.log[i]
		if u.had {
			m.vals[u.key] = u.prev
		} else {
			delete(m.vals, u.key)
		}
	}
	c := m.cuts[idx]
	c.logLen = 0
	m.log = m.log[:0]
	m.cuts = append(m.cuts[:0], c)
	return true
}
