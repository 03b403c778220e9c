package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"aurora/internal/trace"
)

// Cross-machine stitching convention: a producer that hands causality to
// another machine tags its span/instant with trace.I(FlowOut, id); the
// consumer tags the receiving event with trace.I(FlowIn, id) carrying
// the same id. WriteFleetChrome turns each matched pair into a Chrome
// flow arrow from the source slice to the destination slice — that is
// how a replication ship or a kill→failover→promote chain renders as
// one connected path across machine tracks.
const (
	FlowOut = "flow_out"
	FlowIn  = "flow_in"
)

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// MachineID hashes a machine name into the trace-context source id the
// net frame header carries — FNV-1a, deterministic across runs.
func MachineID(name string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h
}

// FlowID derives a deterministic flow id from a trace-context (source
// machine id, span id) — both ends of a wire transfer compute the same
// id from the bits the frame header carries.
func FlowID(src, span uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ (src >> (8 * i) & 0xff)) * fnvPrime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (span >> (8 * i) & 0xff)) * fnvPrime
	}
	return h
}

// MachineTimeline is one machine's contribution to the merged export.
type MachineTimeline struct {
	Name string
	T    *trace.Tracer
}

// fleetEvent is the Chrome trace-event JSON shape including the flow
// phases ("s"/"f") the single-machine exporter never needs.
type fleetEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteFleetChrome merges every machine's timeline into one Chrome/
// Perfetto trace: one process per machine (pid = position + 1, named),
// one thread per track, and flow arrows binding
// FlowOut spans to their FlowIn counterparts across processes. Output is
// deterministic for deterministic inputs: machines in slice order,
// events in collection order, args with sorted keys (encoding/json).
func WriteFleetChrome(w io.Writer, machines []MachineTimeline) error {
	var out []fleetEvent
	for mi, m := range machines {
		pid := mi + 1
		out = append(out, fleetEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": m.Name},
		})
		for _, tr := range trace.Tracks() {
			out = append(out, fleetEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: int(tr) + 1,
				Args: map[string]any{"name": tr.String()},
			})
		}
		for _, ev := range m.T.Events() {
			fe := fleetEvent{
				Name: ev.Name,
				Ts:   usec(ev.Start),
				Pid:  pid,
				Tid:  int(ev.Track) + 1,
			}
			switch ev.Kind {
			case trace.KindSpan:
				fe.Ph = "X"
				fe.Dur = usec(ev.Dur)
			case trace.KindInstant:
				fe.Ph = "i"
			}
			if len(ev.Args) > 0 || ev.Parent != 0 {
				fe.Args = make(map[string]any, len(ev.Args)+1)
				for _, a := range ev.Args {
					// Host-clock diagnostics (the _host_ns convention) vary
					// run to run; the fleet export is a determinism-checked
					// artifact, so they stay on the per-machine traces only.
					if strings.HasSuffix(a.Key, "_host_ns") {
						continue
					}
					fe.Args[a.Key] = a.Val
				}
				if ev.Parent != 0 {
					fe.Args["parent"] = ev.Parent
				}
				if len(fe.Args) == 0 {
					fe.Args = nil
				}
			}
			out = append(out, fe)
			// Flow phases ride on the same slice: "s" anchored at the end
			// of the producing span (causality leaves when the work is
			// done), "f" with bp:"e" at the start of the consuming one.
			for _, a := range ev.Args {
				id, ok := argID(a.Val)
				if !ok {
					continue
				}
				switch a.Key {
				case FlowOut:
					out = append(out, fleetEvent{
						Name: "flow", Ph: "s", Pid: pid, Tid: fe.Tid,
						Ts: usec(ev.Start + ev.Dur), ID: fmt.Sprintf("%d", id),
					})
				case FlowIn:
					out = append(out, fleetEvent{
						Name: "flow", Ph: "f", Bp: "e", Pid: pid, Tid: fe.Tid,
						Ts: usec(ev.Start), ID: fmt.Sprintf("%d", id),
					})
				}
			}
		}
	}
	if out == nil {
		out = []fleetEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// argID coerces a flow id annotation to uint64. Producers use trace.I
// (int64); the uint64 case covers ids built directly from FlowID.
func argID(v any) (uint64, bool) {
	switch x := v.(type) {
	case int64:
		return uint64(x), true
	case uint64:
		return x, true
	case int:
		return uint64(x), true
	}
	return 0, false
}
