package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Snapshot is the deterministic JSON view of one registry: every metric
// in registration order, every series with its stored points. Two runs
// of the same seeded scenario must produce byte-identical encodings —
// CI diffs them raw.
type Snapshot struct {
	Machine    string       `json:"machine,omitempty"`
	Counters   []NamedValue `json:"counters,omitempty"`
	Gauges     []NamedValue `json:"gauges,omitempty"`
	Histograms []HistView   `json:"histograms,omitempty"`
	Series     []SeriesView `json:"series,omitempty"`
}

// NamedValue is one counter or gauge reading.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistView summarizes one histogram.
type HistView struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

// SeriesView is one series with its surviving points.
type SeriesView struct {
	Name   string  `json:"name"`
	Agg    string  `json:"agg"`
	Stride int64   `json:"stride"`
	Points []Point `json:"points"`
}

// Snapshot captures the registry's current state in registration order.
func (r *Registry) Snapshot(machine string) Snapshot {
	snap := Snapshot{Machine: machine}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.corder {
		snap.Counters = append(snap.Counters, NamedValue{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range r.gorder {
		snap.Gauges = append(snap.Gauges, NamedValue{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range r.horder {
		s := r.hists[name].Snapshot()
		snap.Histograms = append(snap.Histograms, HistView{
			Name: name, Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max,
			P50: s.P50, P95: s.P95, P99: s.P99,
		})
	}
	for _, name := range r.sorder {
		s := r.series[name]
		snap.Series = append(snap.Series, SeriesView{
			Name: name, Agg: s.agg.String(), Stride: s.stride,
			Points: append([]Point{}, s.pts...),
		})
	}
	return snap
}

// Rollup renders the registry as text in registration order: counters,
// gauges, then histograms with p50/p95/p99. It is the metrics half of the
// `sls trace` and `slsbench -trace` summaries; the tracer's Rollup is the
// span half.
func (r *Registry) Rollup() string {
	snap := r.Snapshot("")
	var b strings.Builder
	for _, sec := range []struct {
		title string
		vs    []NamedValue
	}{{"counters", snap.Counters}, {"gauges", snap.Gauges}} {
		if len(sec.vs) > 0 {
			fmt.Fprintf(&b, "%s:\n", sec.title)
			for _, v := range sec.vs {
				fmt.Fprintf(&b, "  %-28s %d\n", v.Name, v.Value)
			}
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(&b, "histograms:\n")
		for _, h := range snap.Histograms {
			fmt.Fprintf(&b, "  %-28s n=%-6d min=%-10d p50=%-10d p95=%-10d p99=%-10d max=%d\n",
				h.Name, h.Count, h.Min, h.P50, h.P95, h.P99, h.Max)
		}
	}
	if b.Len() == 0 {
		return "metrics: none\n"
	}
	return b.String()
}

// FleetSnapshot is the fleet-wide JSON view: per-machine snapshots in
// registration order plus fleet-merged histogram summaries.
type FleetSnapshot struct {
	Machines []Snapshot `json:"machines"`
	Merged   []HistView `json:"merged,omitempty"`
	Breaches []Breach   `json:"slo_breaches,omitempty"`
}

// FleetSnapshot captures every member plus merged views of the
// histogram names present on any member (first-seen order).
func (f *Fleet) FleetSnapshot() FleetSnapshot {
	var out FleetSnapshot
	if f == nil {
		return out
	}
	var histNames []string
	seen := make(map[string]bool)
	f.each(func(name string, r *Registry) {
		out.Machines = append(out.Machines, r.Snapshot(name))
		r.mu.Lock()
		for _, hn := range r.horder {
			if !seen[hn] {
				seen[hn] = true
				histNames = append(histNames, hn)
			}
		}
		r.mu.Unlock()
	})
	for _, hn := range histNames {
		h := f.MergedHistogram(hn)
		s := h.Snapshot()
		out.Merged = append(out.Merged, HistView{
			Name: hn, Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max,
			P50: s.P50, P95: s.P95, P99: s.P99,
		})
	}
	return out
}

// WriteJSON encodes the snapshot with stable formatting (two-space
// indent, trailing newline) so artifacts diff cleanly.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// promName mangles a metric name into the Prometheus exposition charset:
// dots and dashes become underscores, everything is prefixed aurora_.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("aurora_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: counters and gauges as scalars, histograms as summaries with
// quantile labels. Deterministic: registration order, fixed formatting.
func (r *Registry) WritePrometheus(w io.Writer, machine string) error {
	if r == nil {
		return nil
	}
	label := ""
	if machine != "" {
		label = fmt.Sprintf("{machine=%q}", machine)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.corder {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s%s %d\n", pn, pn, label, r.counters[name].Value())
	}
	for _, name := range r.gorder {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s%s %d\n", pn, pn, label, r.gauges[name].Value())
	}
	for _, name := range r.horder {
		pn := promName(name)
		s := r.hists[name].Snapshot()
		fmt.Fprintf(&b, "# TYPE %s summary\n", pn)
		for _, qv := range []struct {
			q string
			v int64
		}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
			if label == "" {
				fmt.Fprintf(&b, "%s{quantile=%q} %d\n", pn, qv.q, qv.v)
			} else {
				fmt.Fprintf(&b, "%s{machine=%q,quantile=%q} %d\n", pn, machine, qv.q, qv.v)
			}
		}
		fmt.Fprintf(&b, "%s_sum%s %d\n%s_count%s %d\n", pn, label, s.Sum, pn, label, s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus renders every member registry in sequence.
func (f *Fleet) WritePrometheus(w io.Writer) error {
	var err error
	f.each(func(name string, r *Registry) {
		if err == nil {
			err = r.WritePrometheus(w, name)
		}
	})
	return err
}
