// Package trace is the timeline half of the Aurora reproduction's
// observability: a low-overhead tracer keyed to the simulated virtual
// clock. Subsystems annotate their work with spans (parent/child intervals
// of virtual time) and instant events; the collected timeline exports as
// Chrome trace-event JSON (chrome://tracing / Perfetto loadable) and as a
// per-track text rollup of span time. Metrics — counters, gauges,
// histograms — live in internal/telemetry's registry, not here.
//
// Every entry point is safe on a nil *Tracer and returns immediately, so a
// subsystem holds a plain pointer and the disabled path costs exactly one
// pointer check. Hot paths that would compute arguments before the call
// guard with `if tr != nil { ... }` so the disabled cost stays at that one
// branch. The enabled path serializes on one mutex — tracing is for
// diagnosis, not for the benchmarked configuration.
//
// Timestamps are virtual: spans measure simulated time, which is what the
// paper's tables report. Stages that burn host CPU but no virtual time
// (e.g. the flush pipeline's encode stage) appear as zero-width spans
// carrying their host-time cost in args — the virtual timeline stays the
// single source of truth for durations.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/clock"
)

// Track is the timeline lane an event renders under — one per subsystem,
// mapped to a Chrome thread id on export.
type Track uint8

// Tracks, top-down in the exported view.
const (
	TrackSLS      Track = iota // checkpoint/restore orchestration
	TrackFlush                 // flush pipeline jobs
	TrackObjstore              // store commit protocol and page batches
	TrackDevice                // per-submit device activity
	TrackFault                 // injected faults
	TrackNet                   // replication wire: transfers, retries, link faults
	TrackFleet                 // placement decisions: heartbeat scans, failover, rebalance
	TrackAudit                 // watchdog sweeps and SLO breaches
	numTracks
)

// Tracks returns every defined lane in export order.
func Tracks() []Track {
	out := make([]Track, 0, numTracks)
	for t := Track(0); t < numTracks; t++ {
		out = append(out, t)
	}
	return out
}

// String names the track as exported.
func (t Track) String() string {
	switch t {
	case TrackSLS:
		return "sls"
	case TrackFlush:
		return "flush"
	case TrackObjstore:
		return "objstore"
	case TrackDevice:
		return "device"
	case TrackFault:
		return "fault"
	case TrackNet:
		return "net"
	case TrackFleet:
		return "fleet"
	case TrackAudit:
		return "audit"
	}
	return fmt.Sprintf("track%d", uint8(t))
}

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val any
}

// I is shorthand for an integer Arg.
func I(key string, v int64) Arg { return Arg{Key: key, Val: v} }

// S is shorthand for a string Arg.
func S(key string, v string) Arg { return Arg{Key: key, Val: v} }

// D is shorthand for a duration Arg, exported in nanoseconds.
func D(key string, v time.Duration) Arg { return Arg{Key: key, Val: int64(v)} }

// EventKind discriminates collected events.
type EventKind uint8

// Event kinds.
const (
	KindSpan    EventKind = iota // complete interval [Start, Start+Dur)
	KindInstant                  // point event
)

// Event is one collected trace record.
type Event struct {
	Kind   EventKind
	Track  Track
	Name   string
	Start  time.Duration // virtual time
	Dur    time.Duration // spans only
	ID     uint64        // span id (spans only)
	Parent uint64        // parent span id, 0 for roots
	Args   []Arg
}

// Tracer collects events against a virtual clock. The zero value is not
// usable; construct with New. A nil *Tracer is the disabled tracer: every
// method is a no-op after one pointer check.
type Tracer struct {
	clk clock.Clock

	spanID atomic.Uint64

	mu     sync.Mutex
	events []Event
}

// New returns a tracer reading timestamps from clk.
func New(clk clock.Clock) *Tracer {
	return &Tracer{clk: clk}
}

// Span is an open interval on a tracer. The zero Span (from a nil tracer)
// is inert: Child and End are no-ops.
type Span struct {
	t     *Tracer
	track Track
	name  string
	id    uint64
	paren uint64
	start time.Duration
}

// Begin opens a root span on track at the current virtual time. A span
// carries its args at End, where every path that closes it passes them.
func (t *Tracer) Begin(track Track, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		t:     t,
		track: track,
		name:  name,
		id:    t.spanID.Add(1),
		start: t.clk.Now(),
	}
}

// Child opens a span nested under s, on s's track.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	c := s.t.Begin(s.track, name)
	c.paren = s.id
	return c
}

// ChildOn opens a span nested under s on a different track.
func (s Span) ChildOn(track Track, name string) Span {
	if s.t == nil {
		return Span{}
	}
	c := s.t.Begin(track, name)
	c.paren = s.id
	return c
}

// End closes the span at the current virtual time.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	now := s.t.clk.Now()
	s.t.append(Event{
		Kind: KindSpan, Track: s.track, Name: s.name,
		Start: s.start, Dur: now - s.start,
		ID: s.id, Parent: s.paren, Args: args,
	})
}

// ID returns the span's id, for cross-referencing in args.
func (s Span) ID() uint64 { return s.id }

// Start returns the span's opening virtual time.
func (s Span) Start() time.Duration { return s.start }

// Range records a complete span over a known virtual interval — how async
// work (a device submit that settles later) lands on the timeline without
// holding a Span open.
func (t *Tracer) Range(track Track, name string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.append(Event{
		Kind: KindSpan, Track: track, Name: name,
		Start: start, Dur: end - start,
		ID: t.spanID.Add(1), Args: args,
	})
}

// Instant records a point event at the current virtual time.
func (t *Tracer) Instant(track Track, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.append(Event{Kind: KindInstant, Track: track, Name: name, Start: t.clk.Now(), Args: args})
}

func (t *Tracer) append(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of the collected timeline in collection order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}
