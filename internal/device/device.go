// Package device simulates the storage hardware of the paper's testbed:
// Intel Optane 900P PCIe NVMe devices, four of which are striped at 64 KiB.
//
// A Device stores bytes for real (reads return what was written, across
// simulated crashes) and charges transfer time to a virtual clock using the
// calibrated latency + size/bandwidth model. Writes may be issued
// synchronously (the caller's clock advances by the transfer time) or
// asynchronously (the device pipelines the transfer and reports a virtual
// completion time), which is how checkpoint flushing overlaps execution.
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// ChunkSize is the granularity of the sparse backing store.
const ChunkSize = 64 << 10

// ErrOutOfRange is returned for IO beyond the device size.
var ErrOutOfRange = errors.New("device: IO out of range")

// Stats counts traffic through a device.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Flushes      int64
}

// Device is one simulated NVMe namespace.
type Device struct {
	instruments
	clk   clock.Clock
	costs *clock.Costs
	fl    *flight.Recorder

	mu       sync.Mutex
	size     int64
	chunks   map[int64][]byte // chunk index -> ChunkSize bytes
	nextFree time.Duration    // virtual time at which the queue drains
	stats    Stats
}

// New returns a device of the given size charging IO to clk.
func New(clk clock.Clock, costs *clock.Costs, size int64) *Device {
	if size <= 0 {
		panic("device: non-positive size")
	}
	return &Device{clk: clk, costs: costs, size: size, chunks: make(map[int64][]byte)}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Stats returns a snapshot of the traffic counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetFlight attaches the flight recorder; nil disables it. Only ordered
// submissions (SubmitWriteAfter with a real barrier) are recorded: those
// are the commit points — superblock writes — and they arrive from the
// single-threaded commit path, keeping the ring deterministic. Recording
// every data submit would flood the ring and, under a parallel flush,
// interleave nondeterministically.
func (d *Device) SetFlight(fl *flight.Recorder) { d.fl = fl }

// instruments is what a Device or Stripe reports to: the tracer (one
// span per submit on the device track) and the metrics registry.
type instruments struct {
	tr  *trace.Tracer
	reg *telemetry.Registry
}

// Instrument attaches a tracer and a metrics registry; either may be nil.
// Wire it at build time — it is not synchronized against in-flight IO. A
// stripe records its member submits itself, with their member offsets.
func (in *instruments) Instrument(tr *trace.Tracer, reg *telemetry.Registry) {
	in.tr, in.reg = tr, reg
	reg.Register(telemetry.Family{
		Counters:   []string{"dev.submits", "dev.bytes", "dev.order_stalls"},
		Histograms: []string{"dev.qwait_ns", "dev.settle_ns", "dev.order_stall_ns"},
	})
}

func (in *instruments) on() bool { return in.tr != nil || in.reg != nil }

// submit records one queued command. now is the submitting thread's
// virtual time, start/done come from the queue model, and stall is extra
// delay imposed by an ordering constraint. qwait doubles as the
// queue-depth signal: in the continuous queue model the backlog is
// measured in time, not slots.
func (in *instruments) submit(name string, now, start, done, stall time.Duration, n, off int64) {
	if in.tr != nil {
		in.tr.Range(trace.TrackDevice, name, start, done,
			trace.I("bytes", n), trace.I("off", off))
	}
	reg := in.reg
	if reg == nil {
		return
	}
	reg.Observe("dev.qwait_ns", int64(start-now))
	reg.Observe("dev.settle_ns", int64(done-now))
	reg.Counter("dev.submits").Add(1)
	reg.Counter("dev.bytes").Add(n)
	if stall > 0 {
		reg.Observe("dev.order_stall_ns", int64(stall))
		reg.Counter("dev.order_stalls").Add(1)
	}
}

func (d *Device) check(n int, off int64) error {
	if off < 0 || off+int64(n) > d.size {
		return fmt.Errorf("%w: [%d,%d) size %d", ErrOutOfRange, off, off+int64(n), d.size)
	}
	return nil
}

// ReadAt reads into p from off, charging read transfer time.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.copyOut(p, off)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	d.mu.Unlock()
	d.clk.Advance(clock.XferTime(d.costs.DevReadLatency, d.costs.DevReadBps, int64(len(p))))
	return len(p), nil
}

// WriteAt writes p at off synchronously: the caller's virtual clock advances
// by the full transfer time and the data is durable on return.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.copyIn(p, off)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	d.mu.Unlock()
	d.clk.Advance(clock.XferTime(d.costs.DevWriteLatency, d.costs.DevWriteBps, int64(len(p))))
	return len(p), nil
}

// SubmitWrite queues p at off asynchronously. The data is immediately
// visible to reads (the simulation has no volatile write cache to lose) but
// the returned virtual time is when the transfer is durable; callers that
// need durability must WaitUntil it.
//
// Queued writes pipeline the way NVMe queue depth allows: each transfer
// occupies the device for its bandwidth time only, and the fixed command
// latency is added once at the end, overlapping the next transfer. Sustained
// submission therefore approaches device bandwidth instead of serializing on
// per-command latency.
func (d *Device) SubmitWrite(p []byte, off int64) (time.Duration, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	occupancy := clock.XferTime(0, d.costs.DevWriteBps, int64(len(p)))
	d.mu.Lock()
	d.copyIn(p, off)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	now := d.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	d.nextFree = start + occupancy
	done := d.nextFree + d.costs.DevWriteLatency
	if d.on() {
		d.submit("dev.write", now, start, done, 0, int64(len(p)), off)
	}
	d.mu.Unlock()
	return done, nil
}

// SubmitWriteAfter queues p at off like SubmitWrite, but the transfer may
// not begin before virtual time after. It models a completion-ordered
// submission: a commit record issued from the completion callback of its
// dependencies, enforcing write ordering at the device without blocking
// the submitting thread's clock. This is the only ordering primitive the
// device offers — there is no FUA bit, and plain submits may complete in
// any order across queue members.
func (d *Device) SubmitWriteAfter(p []byte, off int64, after time.Duration) (time.Duration, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	occupancy := clock.XferTime(0, d.costs.DevWriteBps, int64(len(p)))
	d.mu.Lock()
	d.copyIn(p, off)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	now := d.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	var stall time.Duration
	if after > start {
		stall = after - start
		start = after
	}
	d.nextFree = start + occupancy
	done := d.nextFree + d.costs.DevWriteLatency
	if d.on() {
		d.submit("dev.write_after", now, start, done, stall, int64(len(p)), off)
	}
	d.mu.Unlock()
	if after > 0 {
		d.fl.Record(int64(now), flight.EvDevWrite, off, int64(len(p)), int64(after), "")
	}
	return done, nil
}

// SubmitWritev queues the concatenation of bufs at off as one asynchronous
// write: one command, one queue occupancy for the total size, the fixed
// latency added once. It is the batched flush path's entry point — page
// payloads scattered in memory land in a contiguous device run without an
// intermediate staging copy or per-page lock round trips.
//
// Zero-length payload slices are legal and contribute nothing; a vector with
// no bytes at all is a no-op that completes immediately without issuing a
// command. A vector that would run past the device end fails whole: no bytes
// land and neither the queue model nor the traffic counters move.
func (d *Device) SubmitWritev(bufs [][]byte, off int64) (time.Duration, error) {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	if err := d.check(int(total), off); err != nil {
		return 0, err
	}
	if total == 0 {
		return d.clk.Now(), nil
	}
	// Occupancy accrues per payload slice so a vectored submit charges the
	// queue exactly what the equivalent SubmitWrite sequence would.
	var occupancy time.Duration
	for _, b := range bufs {
		occupancy += clock.XferTime(0, d.costs.DevWriteBps, int64(len(b)))
	}
	d.mu.Lock()
	o := off
	for _, b := range bufs {
		d.copyIn(b, o)
		o += int64(len(b))
	}
	d.stats.Writes++
	d.stats.BytesWritten += total
	now := d.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	d.nextFree = start + occupancy
	done := d.nextFree + d.costs.DevWriteLatency
	if d.on() {
		d.submit("dev.writev", now, start, done, 0, total, off)
	}
	d.mu.Unlock()
	return done, nil
}

// SubmitWritevAfter queues the concatenation of bufs at off like
// SubmitWritev, but the transfer may not begin before virtual time after —
// the vectored form of SubmitWriteAfter. The WAL append path uses it to
// land a frame plus its sector padding as one command ordered behind the
// durability horizon it depends on.
func (d *Device) SubmitWritevAfter(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	if err := d.check(int(total), off); err != nil {
		return 0, err
	}
	if total == 0 {
		return d.clk.Now(), nil
	}
	var occupancy time.Duration
	for _, b := range bufs {
		occupancy += clock.XferTime(0, d.costs.DevWriteBps, int64(len(b)))
	}
	d.mu.Lock()
	o := off
	for _, b := range bufs {
		d.copyIn(b, o)
		o += int64(len(b))
	}
	d.stats.Writes++
	d.stats.BytesWritten += total
	now := d.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	var stall time.Duration
	if after > start {
		stall = after - start
		start = after
	}
	d.nextFree = start + occupancy
	done := d.nextFree + d.costs.DevWriteLatency
	if d.on() {
		d.submit("dev.writev_after", now, start, done, stall, total, off)
	}
	d.mu.Unlock()
	if after > 0 {
		d.fl.Record(int64(now), flight.EvDevWrite, off, total, int64(after), "")
	}
	return done, nil
}

// SubmitRead queues a read: data is returned immediately but the virtual
// completion time reflects queued bandwidth, so batched readers (restore,
// prefetch) pay pipelined bandwidth rather than per-command latency.
func (d *Device) SubmitRead(p []byte, off int64) (time.Duration, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	occupancy := clock.XferTime(0, d.costs.DevReadBps, int64(len(p)))
	d.mu.Lock()
	d.copyOut(p, off)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	now := d.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	d.nextFree = start + occupancy
	done := d.nextFree + d.costs.DevReadLatency
	if d.on() {
		d.submit("dev.read", now, start, done, 0, int64(len(p)), off)
	}
	d.mu.Unlock()
	return done, nil
}

// WaitUntil advances the caller's clock to virtual time t if t is in the
// future; it models blocking on an IO completion.
func (d *Device) WaitUntil(t time.Duration) {
	if now := d.clk.Now(); t > now {
		d.clk.Advance(t - now)
	}
}

// Flush waits for all queued writes to drain and become durable.
func (d *Device) Flush() {
	d.mu.Lock()
	t := d.nextFree
	if t > 0 {
		t += d.costs.DevWriteLatency
	}
	d.stats.Flushes++
	d.mu.Unlock()
	d.WaitUntil(t)
}

// PeekAt copies device contents at off into p without charging transfer
// time or touching the traffic counters. It is a debug/tooling port — fault
// injectors use it to capture pre-images and test harnesses use it to
// compare raw media — and must never appear on a simulated IO path.
func (d *Device) PeekAt(p []byte, off int64) {
	if err := d.check(len(p), off); err != nil {
		panic(err)
	}
	d.mu.Lock()
	d.copyOut(p, off)
	d.mu.Unlock()
}

// PokeAt overwrites device contents at off with p, bypassing the timing
// model and the traffic counters. Fault injectors use it to tear writes and
// roll back dropped ones; tests use it to corrupt media under fsck.
func (d *Device) PokeAt(p []byte, off int64) {
	if err := d.check(len(p), off); err != nil {
		panic(err)
	}
	d.mu.Lock()
	d.copyIn(p, off)
	d.mu.Unlock()
}

// copyIn requires d.mu.
func (d *Device) copyIn(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / ChunkSize
		co := off % ChunkSize
		chunk, ok := d.chunks[ci]
		if !ok {
			chunk = make([]byte, ChunkSize)
			d.chunks[ci] = chunk
		}
		n := copy(chunk[co:], p)
		p = p[n:]
		off += int64(n)
	}
}

// copyOut requires d.mu.
func (d *Device) copyOut(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / ChunkSize
		co := off % ChunkSize
		var n int
		if chunk, ok := d.chunks[ci]; ok {
			n = copy(p, chunk[co:])
		} else {
			end := ChunkSize - co
			if end > int64(len(p)) {
				end = int64(len(p))
			}
			for i := int64(0); i < end; i++ {
				p[i] = 0
			}
			n = int(end)
		}
		p = p[n:]
		off += int64(n)
	}
}

// Stripe is a RAID-0 stripe set over several devices, matching the paper's
// four Optanes striped at 64 KiB. IO is split at stripe-unit boundaries and
// the member transfers proceed in parallel: a synchronous operation charges
// the maximum member time, not the sum.
type Stripe struct {
	instruments
	clk   clock.Clock
	costs *clock.Costs
	fl    *flight.Recorder
	devs  []*Device
	unit  int64
}

// SetFlight attaches the flight recorder; nil disables it. Like
// Device.SetFlight, only ordered (barrier) submissions are recorded, one
// event per stripe-level call rather than per member transfer.
func (s *Stripe) SetFlight(fl *flight.Recorder) { s.fl = fl }

// NewStripe builds a stripe set of n fresh devices of perDevSize bytes each.
func NewStripe(clk clock.Clock, costs *clock.Costs, n int, unit, perDevSize int64) *Stripe {
	if n <= 0 || unit <= 0 {
		panic("device: bad stripe geometry")
	}
	s := &Stripe{clk: clk, costs: costs, unit: unit}
	for i := 0; i < n; i++ {
		// Members get a discard clock; the stripe charges the caller
		// with parallel (max) time itself.
		s.devs = append(s.devs, New(clock.Discard{}, costs, perDevSize))
	}
	return s
}

// Size returns the aggregate capacity.
func (s *Stripe) Size() int64 { return int64(len(s.devs)) * s.devs[0].Size() }

// Devices returns the number of member devices.
func (s *Stripe) Devices() int { return len(s.devs) }

// Stats sums the member device counters.
func (s *Stripe) Stats() Stats {
	var out Stats
	for _, d := range s.devs {
		st := d.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.BytesRead += st.BytesRead
		out.BytesWritten += st.BytesWritten
		out.Flushes += st.Flushes
	}
	return out
}

// extent is one member-local run of a striped IO.
type extent struct {
	dev  int
	off  int64
	p    []byte
	size int64
}

func (s *Stripe) split(p []byte, off int64) []extent {
	var out []extent
	for len(p) > 0 {
		blk := off / s.unit
		in := off % s.unit
		dev := int(blk % int64(len(s.devs)))
		devBlk := blk / int64(len(s.devs))
		run := s.unit - in
		if run > int64(len(p)) {
			run = int64(len(p))
		}
		out = append(out, extent{dev: dev, off: devBlk*s.unit + in, p: p[:run], size: run})
		p = p[run:]
		off += run
	}
	return out
}

func (s *Stripe) check(n int, off int64) error {
	if off < 0 || off+int64(n) > s.Size() {
		return fmt.Errorf("%w: [%d,%d) size %d", ErrOutOfRange, off, off+int64(n), s.Size())
	}
	return nil
}

// ReadAt reads across the stripe, charging the parallel (max-member) time.
func (s *Stripe) ReadAt(p []byte, off int64) (int, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	perDev := make([]int64, len(s.devs))
	for _, e := range s.split(p, off) {
		if _, err := s.devs[e.dev].ReadAt(e.p, e.off); err != nil {
			return 0, err
		}
		perDev[e.dev] += e.size
	}
	s.clk.Advance(s.parallelTime(perDev, s.costs.DevReadLatency, s.costs.DevReadBps))
	return len(p), nil
}

// WriteAt writes across the stripe synchronously, charging the parallel time.
func (s *Stripe) WriteAt(p []byte, off int64) (int, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	perDev := make([]int64, len(s.devs))
	for _, e := range s.split(p, off) {
		if _, err := s.devs[e.dev].WriteAt(e.p, e.off); err != nil {
			return 0, err
		}
		perDev[e.dev] += e.size
	}
	s.clk.Advance(s.parallelTime(perDev, s.costs.DevWriteLatency, s.costs.DevWriteBps))
	return len(p), nil
}

// SubmitWrite queues a striped write and returns its durable completion time.
func (s *Stripe) SubmitWrite(p []byte, off int64) (time.Duration, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	var done time.Duration
	for _, e := range s.split(p, off) {
		t, err := s.submitMember(e)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	return done, nil
}

func (s *Stripe) submitMember(e extent) (time.Duration, error) {
	return s.submitMemberAfter(e, 0)
}

func (s *Stripe) submitMemberAfter(e extent, after time.Duration) (time.Duration, error) {
	d := s.devs[e.dev]
	occupancy := clock.XferTime(0, s.costs.DevWriteBps, e.size)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(len(e.p), e.off); err != nil {
		return 0, err
	}
	d.copyIn(e.p, e.off)
	d.stats.Writes++
	d.stats.BytesWritten += e.size
	now := s.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	var stall time.Duration
	if after > start {
		stall = after - start
		start = after
	}
	d.nextFree = start + occupancy
	done := d.nextFree + s.costs.DevWriteLatency
	if s.on() {
		name := "dev.write"
		if after > 0 {
			name = "dev.write_after"
		}
		s.submit(name, now, start, done, stall, e.size, e.off)
	}
	return done, nil
}

// SubmitWriteAfter queues a striped write whose member transfers may not
// begin before virtual time after. See Device.SubmitWriteAfter.
func (s *Stripe) SubmitWriteAfter(p []byte, off int64, after time.Duration) (time.Duration, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	var done time.Duration
	for _, e := range s.split(p, off) {
		t, err := s.submitMemberAfter(e, after)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	if after > 0 {
		s.fl.Record(int64(s.clk.Now()), flight.EvDevWrite, off, int64(len(p)), int64(after), "")
	}
	return done, nil
}

// SubmitWritev queues the concatenation of bufs across the stripe. Each
// stripe-unit extent becomes one member command carrying all the payload
// slices that fall inside it, so a batch of page writes costs one member
// lock round trip per 64 KiB instead of one per page. The virtual-time
// outcome is identical to submitting the pages one by one: member queue
// occupancy accrues by total bytes either way.
func (s *Stripe) SubmitWritev(bufs [][]byte, off int64) (time.Duration, error) {
	return s.submitWritev(bufs, off, 0)
}

// SubmitWritevAfter queues a striped vectored write whose member transfers
// may not begin before virtual time after. See Device.SubmitWritevAfter.
func (s *Stripe) SubmitWritevAfter(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	done, err := s.submitWritev(bufs, off, after)
	if err != nil {
		return 0, err
	}
	if after > 0 {
		var total int64
		for _, b := range bufs {
			total += int64(len(b))
		}
		s.fl.Record(int64(s.clk.Now()), flight.EvDevWrite, off, total, int64(after), "")
	}
	return done, nil
}

func (s *Stripe) submitWritev(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	if err := s.check(int(total), off); err != nil {
		return 0, err
	}
	if total == 0 {
		return s.clk.Now(), nil
	}
	var done time.Duration
	bi, bo := 0, 0 // position in bufs of the next unconsumed byte
	for rem := total; rem > 0; {
		blk := off / s.unit
		in := off % s.unit
		dev := int(blk % int64(len(s.devs)))
		devBlk := blk / int64(len(s.devs))
		run := s.unit - in
		if run > rem {
			run = rem
		}
		var vec [][]byte
		for need := run; need > 0; {
			b := bufs[bi][bo:]
			if int64(len(b)) > need {
				b = b[:need]
			}
			vec = append(vec, b)
			bo += len(b)
			need -= int64(len(b))
			if bo == len(bufs[bi]) {
				bi++
				bo = 0
			}
		}
		t, err := s.submitMemberVec(dev, vec, devBlk*s.unit+in, run, after)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
		off += run
		rem -= run
	}
	return done, nil
}

func (s *Stripe) submitMemberVec(dev int, vec [][]byte, off, size int64, after time.Duration) (time.Duration, error) {
	d := s.devs[dev]
	var occupancy time.Duration
	for _, b := range vec {
		occupancy += clock.XferTime(0, s.costs.DevWriteBps, int64(len(b)))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(int(size), off); err != nil {
		return 0, err
	}
	o := off
	for _, b := range vec {
		d.copyIn(b, o)
		o += int64(len(b))
	}
	d.stats.Writes++
	d.stats.BytesWritten += size
	now := s.clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	var stall time.Duration
	if after > start {
		stall = after - start
		start = after
	}
	d.nextFree = start + occupancy
	done := d.nextFree + s.costs.DevWriteLatency
	if s.on() {
		name := "dev.writev"
		if after > 0 {
			name = "dev.writev_after"
		}
		s.submit(name, now, start, done, stall, size, off)
	}
	return done, nil
}

// SubmitRead queues a striped read, returning the completion time.
func (s *Stripe) SubmitRead(p []byte, off int64) (time.Duration, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	var done time.Duration
	for _, e := range s.split(p, off) {
		d := s.devs[e.dev]
		occupancy := clock.XferTime(0, s.costs.DevReadBps, e.size)
		d.mu.Lock()
		if err := d.check(len(e.p), e.off); err != nil {
			d.mu.Unlock()
			return 0, err
		}
		d.copyOut(e.p, e.off)
		d.stats.Reads++
		d.stats.BytesRead += e.size
		now := s.clk.Now()
		start := d.nextFree
		if now > start {
			start = now
		}
		d.nextFree = start + occupancy
		t := d.nextFree + s.costs.DevReadLatency
		if s.on() {
			s.submit("dev.read", now, start, t, 0, e.size, e.off)
		}
		d.mu.Unlock()
		if t > done {
			done = t
		}
	}
	return done, nil
}

// PeekAt copies stripe contents at off into p without charging transfer
// time or touching the traffic counters. See Device.PeekAt.
func (s *Stripe) PeekAt(p []byte, off int64) {
	if err := s.check(len(p), off); err != nil {
		panic(err)
	}
	for _, e := range s.split(p, off) {
		s.devs[e.dev].PeekAt(e.p, e.off)
	}
}

// PokeAt overwrites stripe contents at off with p, bypassing the timing
// model and the traffic counters. See Device.PokeAt.
func (s *Stripe) PokeAt(p []byte, off int64) {
	if err := s.check(len(p), off); err != nil {
		panic(err)
	}
	for _, e := range s.split(p, off) {
		s.devs[e.dev].PokeAt(e.p, e.off)
	}
}

// WaitUntil advances the stripe's clock to t if t is in the future.
func (s *Stripe) WaitUntil(t time.Duration) {
	if now := s.clk.Now(); t > now {
		s.clk.Advance(t - now)
	}
}

// Flush drains all member queues.
func (s *Stripe) Flush() {
	var max time.Duration
	for _, d := range s.devs {
		d.mu.Lock()
		if d.nextFree > max {
			max = d.nextFree
		}
		d.stats.Flushes++
		d.mu.Unlock()
	}
	if max > 0 {
		max += s.costs.DevWriteLatency
	}
	s.WaitUntil(max)
}

// parallelTime models n concurrent member transfers: one shared latency plus
// the longest member's bandwidth time.
func (s *Stripe) parallelTime(perDev []int64, lat time.Duration, bps int64) time.Duration {
	var worst int64
	any := false
	for _, n := range perDev {
		if n > 0 {
			any = true
		}
		if n > worst {
			worst = n
		}
	}
	if !any {
		return 0
	}
	return clock.XferTime(lat, bps, worst)
}
