// Package telemetry is the metrics plane of the Aurora reproduction and
// its only metric store: a typed registry (counters, gauges, log2
// histograms) keyed to the simulated virtual clock, sampled on a cadence
// into bounded time-series rings with pair-merge downsampling, aggregated
// across machines into fleet percentiles, and watched by a declarative
// SLO engine. Every layer that counts something — device, objstore, sls,
// net, audit, placement — records here; internal/trace keeps only spans
// and instants. Exports are Prometheus text, a deterministic JSON
// snapshot, a text rollup, and (from the tracers) a merged multi-machine
// Chrome/Perfetto timeline.
//
// Determinism is the contract: every accessor iterates metrics in
// registration order (never map order), so two runs of a seeded scenario
// produce byte-identical snapshots. Like the tracer, every method is
// safe on a nil receiver — a subsystem holds a plain *Registry and the
// disabled path costs one pointer check.
package telemetry

import (
	"sync"
	"time"

	"aurora/internal/clock"
)

// Counter is a monotonic total. Nil-safe.
type Counter struct {
	mu sync.Mutex
	v  int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a momentary value (load, queue depth). Nil-safe.
type Gauge struct {
	mu sync.Mutex
	v  int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the last set value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Registry holds one machine's metrics. Construct with New; a nil
// *Registry is the disabled plane — every method no-ops.
type Registry struct {
	clk clock.Clock

	mu       sync.Mutex
	counters map[string]*Counter
	corder   []string
	gauges   map[string]*Gauge
	gorder   []string
	hists    map[string]*Histogram
	horder   []string
	series   map[string]*Series
	sorder   []string
}

// New returns a registry stamping series points from clk.
func New(clk clock.Clock) *Registry {
	return &Registry{
		clk:      clk,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil from a nil registry; the nil Counter absorbs Add/Value.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.corder = append(r.corder, name)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.gorder = append(r.gorder, name)
	}
	return g
}

// Observe adds v to the named histogram (latencies in nanoseconds of
// virtual time, sizes in bytes).
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histLocked(name).Add(v)
	r.mu.Unlock()
}

func (r *Registry) histLocked(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(name)
		r.hists[name] = h
		r.horder = append(r.horder, name)
	}
	return h
}

// Family names one layer's metrics for pre-registration.
type Family struct {
	Counters, Gauges, Histograms []string
}

// Register creates every metric of f that does not exist yet, in the
// listed order. A layer calls it when a registry is attached, so its
// metrics export (as zeros until touched) in a fixed order whichever
// goroutine records first — parallel flush workers race to the device,
// and export order must not depend on the scheduler.
func (r *Registry) Register(f Family) {
	if r == nil {
		return
	}
	for _, name := range f.Counters {
		r.Counter(name)
	}
	for _, name := range f.Gauges {
		r.Gauge(name)
	}
	r.mu.Lock()
	for _, name := range f.Histograms {
		r.histLocked(name)
	}
	r.mu.Unlock()
}

// HistogramCopy returns a standalone copy of the named histogram for
// merging, or nil if never observed.
func (r *Registry) HistogramCopy(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return nil
	}
	cp := NewHistogram(name)
	cp.Merge(h)
	return cp
}

// Quantile returns the named histogram's q-quantile (0 if absent).
func (r *Registry) Quantile(name string, q float64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name].Quantile(q)
}

// Record appends a raw sample to the named time series, creating it with
// the given aggregator and default retention on first use.
func (r *Registry) Record(name string, agg Agg, v int64) {
	if r == nil {
		return
	}
	now := r.clk.Now()
	r.mu.Lock()
	s := r.series[name]
	if s == nil {
		s = newSeries(name, agg, defaultSeriesCap)
		r.series[name] = s
		r.sorder = append(r.sorder, name)
	}
	s.append(now, v)
	r.mu.Unlock()
}

// SeriesPoints returns a copy of the named series' stored points.
func (r *Registry) SeriesPoints(name string) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[name]
	if s == nil {
		return nil
	}
	return append([]Point(nil), s.pts...)
}

// Sample snapshots every counter, gauge, and histogram p99 into its
// backing series — the sampler-cadence tick. Counters and gauges sample
// with AggLast (the total/level at the sample instant); histogram p99s
// sample with AggMax so downsampling never hides a latency spike.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	now := r.clk.Now()
	r.mu.Lock()
	for _, name := range r.corder {
		r.sampleLocked(now, name, AggLast, r.counters[name].Value())
	}
	for _, name := range r.gorder {
		r.sampleLocked(now, name, AggLast, r.gauges[name].Value())
	}
	for _, name := range r.horder {
		r.sampleLocked(now, name+".p99", AggMax, r.hists[name].Quantile(0.99))
	}
	r.mu.Unlock()
}

func (r *Registry) sampleLocked(now time.Duration, name string, agg Agg, v int64) {
	s := r.series[name]
	if s == nil {
		s = newSeries(name, agg, defaultSeriesCap)
		r.series[name] = s
		r.sorder = append(r.sorder, name)
	}
	s.append(now, v)
}
