package telemetry

// Fleet aggregates per-machine registries into fleet-wide views. Members
// iterate in registration order — the same determinism contract as the
// placement coordinator.
type Fleet struct {
	names []string
	regs  []*Registry
}

// NewFleet returns an empty aggregation.
func NewFleet() *Fleet { return &Fleet{} }

// Add registers one machine's registry under its name. Nil registries
// are accepted and skipped during aggregation, so a fleet mixing
// telemetry-enabled and disabled machines still merges cleanly.
func (f *Fleet) Add(name string, r *Registry) {
	if f == nil {
		return
	}
	f.names = append(f.names, name)
	f.regs = append(f.regs, r)
}

// Members returns the registered machine names in order.
func (f *Fleet) Members() []string {
	if f == nil {
		return nil
	}
	return append([]string(nil), f.names...)
}

// MergedHistogram folds the named histogram from every member into one
// fleet histogram. Members that never observed the metric contribute
// nothing; the result is nil only when no member has it.
func (f *Fleet) MergedHistogram(name string) *Histogram {
	if f == nil {
		return nil
	}
	var out *Histogram
	for _, r := range f.regs {
		h := r.HistogramCopy(name)
		if h == nil {
			continue
		}
		if out == nil {
			out = NewHistogram(name)
		}
		out.Merge(h)
	}
	return out
}

// Quantile returns the fleet-merged q-quantile of the named histogram
// (0 if no member observed it).
func (f *Fleet) Quantile(name string, q float64) int64 {
	return f.MergedHistogram(name).Quantile(q)
}

// CounterTotal sums the named counter across members.
func (f *Fleet) CounterTotal(name string) int64 {
	if f == nil {
		return 0
	}
	var total int64
	for _, r := range f.regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		c := r.counters[name]
		r.mu.Unlock()
		total += c.Value()
	}
	return total
}

// each visits every (name, registry) pair with a non-nil registry.
func (f *Fleet) each(fn func(name string, r *Registry)) {
	if f == nil {
		return
	}
	for i, r := range f.regs {
		if r != nil {
			fn(f.names[i], r)
		}
	}
}
