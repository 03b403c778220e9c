package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one record in the Chrome trace-event JSON array format.
// Timestamps and durations are microseconds of virtual time; Perfetto and
// chrome://tracing both load this shape directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome emits the collected timeline as Chrome trace-event JSON.
// Each Track becomes a named thread.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+int(numTracks))
	for tr := Track(0); tr < numTracks; tr++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: int(tr) + 1,
			Args: map[string]any{"name": tr.String()},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Ts:   usec(ev.Start),
			Pid:  1,
			Tid:  int(ev.Track) + 1,
		}
		switch ev.Kind {
		case KindSpan:
			ce.Ph = "X"
			ce.Dur = usec(ev.Dur)
			ce.ID = fmt.Sprintf("%d", ev.ID)
		case KindInstant:
			ce.Ph = "i"
		}
		if len(ev.Args) > 0 || ev.Parent != 0 {
			ce.Args = make(map[string]any, len(ev.Args)+1)
			for _, a := range ev.Args {
				ce.Args[a.Key] = a.Val
			}
			if ev.Parent != 0 {
				ce.Args["parent"] = ev.Parent
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Rollup renders a text summary: total span time by name per track. The
// metrics of the same run come from the telemetry registry's Rollup.
func (t *Tracer) Rollup() string {
	if t == nil {
		return "trace: disabled\n"
	}
	var b strings.Builder
	type key struct {
		track Track
		name  string
	}
	totals := make(map[key]time.Duration)
	counts := make(map[key]int64)
	var keys []key
	for _, ev := range t.Events() {
		if ev.Kind != KindSpan {
			continue
		}
		k := key{ev.Track, ev.Name}
		if _, ok := totals[k]; !ok {
			keys = append(keys, k)
		}
		totals[k] += ev.Dur
		counts[k]++
	}
	if len(keys) > 0 {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].track != keys[j].track {
				return keys[i].track < keys[j].track
			}
			return keys[i].name < keys[j].name
		})
		fmt.Fprintf(&b, "spans (virtual time):\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-9s %-24s n=%-6d total=%s\n",
				k.track.String(), k.name, counts[k], totals[k])
		}
	}
	if b.Len() == 0 {
		return "trace: no events\n"
	}
	return b.String()
}

// TimelineTail renders the last n events as one line each — appended to
// harness failures so a crash sweep dumps the moments before the cut.
func (t *Tracer) TimelineTail(n int) string {
	if t == nil {
		return ""
	}
	events := t.Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	var b strings.Builder
	for _, ev := range events {
		switch ev.Kind {
		case KindSpan:
			fmt.Fprintf(&b, "  %12s +%-10s %-9s %s", ev.Start, ev.Dur, ev.Track.String(), ev.Name)
		case KindInstant:
			fmt.Fprintf(&b, "  %12s !          %-9s %s", ev.Start, ev.Track.String(), ev.Name)
		}
		for _, a := range ev.Args {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
