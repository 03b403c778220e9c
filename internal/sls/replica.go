package sls

import (
	"bytes"
	"fmt"
	"time"

	"aurora/internal/flight"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// High availability (§3): "sls send" can continually feed incremental
// checkpoints to a remote host. A Replica wraps that loop: after a full
// seed transfer, each Sync ships only the delta since the last shipped
// epoch; Failover restores the application on the standby from the last
// synced state.
//
// Replication runs either over the direct in-process path (conn == nil —
// the original byte copy, wire time charged as one lump) or over a
// simulated lossy network (internal/net): each ship is one resumable
// transfer keyed by the shipped checkpoint epoch. A ship that exhausts its
// retries (partition outlasting the backoff budget) leaves the encoded
// stream pending; the next Sync — or an explicit Resume — re-ships only
// the frames the standby has not acked, then applies the stream.

// Replica is a warm standby of a group on another orchestrator.
type Replica struct {
	g    *Group
	dst  *Orchestrator
	conn *net.Conn
	base objstore.Epoch // last epoch the standby holds

	// pending is a ship that ran out of retries mid-transfer; Resume (or
	// the next Sync) completes it from the receiver's high-water mark.
	pending *pendingShip

	// failedOver retires the replica once its standby has been promoted;
	// every later Sync/Resume/Failover returns ErrFailedOver.
	failedOver bool

	Syncs      int
	BytesTotal int64 // stream bytes applied to the standby
	LastBytes  int64
	LastLag    time.Duration // checkpoint cut to standby-applied

	// Wire-level accounting, zero on the direct path.
	WireBytes   int64 // bytes put on the forward wire, framing + retransmits
	Retransmits int64
	Backoffs    int64
	Resumes     int64 // ships completed from a pending transfer
}

// pendingShip is an encoded stream whose transfer did not complete.
type pendingShip struct {
	epoch    uint64 // transfer key: the shipped checkpoint epoch
	newBase  objstore.Epoch
	data     []byte
	cutStart time.Duration
}

// ReplicateTo seeds a standby with the group's full state over the direct
// path and returns the replication handle. The group must be checkpointing
// (the seed takes a checkpoint if none exists).
func (g *Group) ReplicateTo(dst *Orchestrator) (*Replica, error) {
	return g.ReplicateToVia(dst, nil)
}

// ReplicateToVia is ReplicateTo over a simulated network connection;
// conn == nil selects the direct path. The seed transfer itself is
// resumable: on ErrRetriesExhausted the returned replica is still live and
// Resume completes the seed once the wire heals.
func (g *Group) ReplicateToVia(dst *Orchestrator, conn *net.Conn) (*Replica, error) {
	if g.lastEpoch == 0 {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			return nil, err
		}
		if err := g.Barrier(); err != nil {
			return nil, err
		}
	}
	r := &Replica{g: g, dst: dst, conn: conn}
	if err := r.ship(0, g.o.Clk.Now()); err != nil {
		if r.pending != nil {
			// Seed cut off mid-transfer: the handle is usable, Resume
			// finishes the job.
			return r, err
		}
		return nil, err
	}
	return r, nil
}

// Sync takes a checkpoint and ships the delta to the standby. A pending
// interrupted ship is completed first — its epoch must land before any
// later delta can apply.
func (r *Replica) Sync() error {
	if r.failedOver {
		return ErrFailedOver
	}
	if err := r.Resume(); err != nil {
		return err
	}
	cutStart := r.g.o.Clk.Now()
	if _, err := r.g.Checkpoint(CkptIncremental); err != nil {
		return err
	}
	if err := r.g.Barrier(); err != nil {
		return err
	}
	return r.ship(r.base, cutStart)
}

// Resume completes a ship interrupted by retry exhaustion, re-sending only
// the frames the standby has not acked. No-op when nothing is pending.
func (r *Replica) Resume() error {
	if r.failedOver {
		return ErrFailedOver
	}
	if r.pending == nil {
		return nil
	}
	p := r.pending
	span := r.g.o.tr.Begin(trace.TrackSLS, "sls.replica.resume")
	epochArg := trace.I("epoch", int64(p.epoch))
	if fl := r.g.o.Store.Flight(); fl != nil {
		fl.Record(int64(r.g.o.Clk.Now()), flight.EvReplResume, int64(p.epoch), int64(len(p.data)), 0, "")
	}
	st, err := r.conn.Transfer(p.epoch, p.data)
	r.accumulate(st)
	if err != nil {
		span.End(epochArg, trace.S("err", err.Error()))
		return fmt.Errorf("sls: resuming replication of epoch %d: %w", p.epoch, err)
	}
	r.Resumes++
	err = r.apply(p.epoch, p.newBase, int64(len(p.data)), p.cutStart)
	r.pending = nil
	span.End(epochArg)
	return err
}

// Pending reports whether an interrupted ship awaits Resume.
func (r *Replica) Pending() bool { return r.pending != nil }

// Abandon retires the handle without promoting the standby: any pending
// ship is dropped and its receiver session discarded, and every later
// Sync/Resume/Failover returns ErrFailedOver. A coordinator calls this
// when the primary moves (live migration) — the handle's source group no
// longer exists, so shipping through it would replicate a corpse.
func (r *Replica) Abandon() {
	if r.pending != nil {
		if r.conn != nil {
			r.conn.Abort(r.pending.epoch)
		}
		r.pending = nil
	}
	r.failedOver = true
}

// FailedOver reports whether the standby has been promoted.
func (r *Replica) FailedOver() bool { return r.failedOver }

// Base returns the last checkpoint epoch the standby holds — the "caught
// up to epoch N" a failover scenario asserts before pulling the plug.
func (r *Replica) Base() objstore.Epoch { return r.base }

// ship encodes (full when since==0, else delta), moves the stream to the
// standby, and applies it there.
func (r *Replica) ship(since objstore.Epoch, cutStart time.Duration) error {
	var buf bytes.Buffer
	if r.conn == nil {
		cw := &countWriter{w: &buf}
		if err := r.g.send(cw, since); err != nil {
			return err
		}
		if _, err := r.dst.Recv(&buf); err != nil {
			return err
		}
		r.commit(r.g.lastEpoch, cw.n, cutStart)
		return nil
	}

	if _, err := r.g.encodeStream(&buf, since); err != nil {
		return err
	}
	epoch := uint64(r.g.lastEpoch)
	span := r.g.o.tr.Begin(trace.TrackSLS, "sls.replica.ship")
	shipArgs := []trace.Arg{trace.I("epoch", int64(epoch)), trace.I("bytes", int64(buf.Len())), trace.I("since", int64(since))}
	if fl := r.g.o.Store.Flight(); fl != nil {
		fl.Record(int64(r.g.o.Clk.Now()), flight.EvReplShip, int64(epoch), int64(buf.Len()), int64(since), "")
	}
	st, err := r.conn.Transfer(epoch, buf.Bytes())
	r.accumulate(st)
	if err != nil {
		// Keep the encoded stream: the receiver holds its partial progress
		// under this epoch key, and Resume re-ships only the missing tail.
		r.pending = &pendingShip{epoch: epoch, newBase: r.g.lastEpoch, data: buf.Bytes(), cutStart: cutStart}
		span.End(append(shipArgs, trace.S("err", err.Error()))...)
		return fmt.Errorf("sls: replicating epoch %d: %w", epoch, err)
	}
	err = r.apply(epoch, r.g.lastEpoch, int64(buf.Len()), cutStart)
	span.End(shipArgs...)
	return err
}

// apply collects a completed transfer from the connection and applies it to
// the standby store.
func (r *Replica) apply(epoch uint64, newBase objstore.Epoch, n int64, cutStart time.Duration) error {
	// Close the cross-machine flow before Take clears the session: the
	// frame header carried the sender's trace-context, so the standby's
	// apply instant gets the matching flow id and the merged fleet
	// timeline draws ship -> apply as one arrow across machine tracks.
	if dtr := r.dst.tr; dtr != nil {
		if src, span, ok := r.conn.SessionContext(epoch); ok {
			dtr.Instant(trace.TrackNet, "net.apply",
				trace.I("epoch", int64(epoch)),
				trace.I(telemetry.FlowIn, int64(telemetry.FlowID(src, span))))
		}
	}
	payload, ok := r.conn.Take(epoch)
	if !ok {
		return fmt.Errorf("sls: transfer for epoch %d reported done but is not takeable", epoch)
	}
	if _, err := r.dst.Recv(bytes.NewReader(payload)); err != nil {
		return err
	}
	r.commit(newBase, n, cutStart)
	return nil
}

// commit records a landed ship in the replica's accounting.
func (r *Replica) commit(newBase objstore.Epoch, n int64, cutStart time.Duration) {
	r.base = newBase
	r.Syncs++
	r.BytesTotal += n
	r.LastBytes = n
	r.LastLag = r.g.o.Clk.Now() - cutStart
	if reg := r.g.o.reg; reg != nil {
		reg.Counter("sls.replica.syncs").Add(1)
		reg.Counter("sls.replica.bytes").Add(n)
		reg.Observe("sls.replica.lag.ns", int64(r.LastLag))
	}
}

func (r *Replica) accumulate(st net.TransferStats) {
	r.WireBytes += st.WireBytes
	r.Retransmits += st.Retransmits
	r.Backoffs += st.Backoffs
}

// ErrFailedOver reports an operation on a replica whose standby has already
// been promoted: the replication relationship is over, and any further
// Sync/Resume/Failover would write the dead primary's state into a live
// machine.
var ErrFailedOver = fmt.Errorf("sls: replica already failed over")

// Failover restores the application on the standby from the last synced
// state — the primary is presumed dead (its state is not touched).
//
// A ship pending at failover time never committed on the standby: its
// applied frames sit in the receiver's session buffer, not the store, so the
// restore source is already exactly the last committed base. What must NOT
// survive is the session itself — a later Resume would complete the transfer
// and apply the dead primary's delta over the promoted standby's live state.
// Failover therefore drops the pending ship on both ends and retires the
// replica: subsequent Sync/Resume/Failover return ErrFailedOver.
func (r *Replica) Failover(mode RestoreMode) (*Group, RestoreStats, error) {
	if r.failedOver {
		return nil, RestoreStats{}, ErrFailedOver
	}
	if r.Syncs == 0 {
		return nil, RestoreStats{}, fmt.Errorf("sls: replica never seeded")
	}
	if r.pending != nil {
		if r.conn != nil {
			r.conn.Abort(r.pending.epoch)
		}
		r.pending = nil
	}
	g, st, err := r.dst.RestoreGroup(r.g.Name, r.dst.Store, mode, true)
	if err != nil {
		return nil, st, err
	}
	r.failedOver = true
	return g, st, nil
}
