package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"aurora/internal/clock"
)

func TestSpanTree(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)

	root := tr.Begin(TrackSLS, "checkpoint")
	clk.Advance(100 * time.Microsecond)
	child := root.Child("stop")
	clk.Advance(40 * time.Microsecond)
	child.End()
	clk.Advance(60 * time.Microsecond)
	root.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	// Events land in End order: child first.
	c, r := events[0], events[1]
	if c.Name != "stop" || r.Name != "checkpoint" {
		t.Fatalf("unexpected order: %q then %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent=%d, want root id %d", c.Parent, r.ID)
	}
	if c.Dur != 40*time.Microsecond {
		t.Errorf("child dur=%v, want 40µs", c.Dur)
	}
	if r.Dur != 200*time.Microsecond {
		t.Errorf("root dur=%v, want 200µs", r.Dur)
	}
	if r.Start != 0 || c.Start != 100*time.Microsecond {
		t.Errorf("starts: root=%v child=%v", r.Start, c.Start)
	}
}

func TestRangeClampsNegative(t *testing.T) {
	tr := New(clock.NewVirtual())
	tr.Range(TrackDevice, "write", 50*time.Microsecond, 10*time.Microsecond)
	ev := tr.Events()[0]
	if ev.Dur != 0 {
		t.Errorf("inverted range dur=%v, want 0", ev.Dur)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)
	s := tr.Begin(TrackObjstore, "commit")
	clk.Advance(time.Millisecond)
	s.End(I("epoch", 3))
	tr.Instant(TrackFault, "crash", S("why", "cut"))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range out {
		phases[ev["ph"].(string)]++
		if ev["ph"] == "X" {
			if args, _ := ev["args"].(map[string]any); args["epoch"] != float64(3) {
				t.Errorf("span args at End lost: %v", ev)
			}
		}
	}
	if phases["X"] != 1 || phases["i"] != 1 || phases["M"] == 0 || len(phases) != 3 {
		t.Errorf("phase counts: %v", phases)
	}
}

func TestWriteChromeNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer JSON: %v", err)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Begin(TrackSLS, "x")
	c := s.Child("y")
	c.End()
	s.End()
	tr.Range(TrackDevice, "z", 0, 1)
	tr.Instant(TrackFault, "f")
	if tr.Events() != nil {
		t.Error("nil tracer returned non-nil events")
	}
	if tr.Rollup() == "" || tr.TimelineTail(5) != "" {
		t.Error("nil tracer text output wrong")
	}
}

// BenchmarkNilTracerHook measures the disabled-tracing cost at an
// instrumented site: one pointer check. The CI overhead guard multiplies
// this by the hook count of a traced run.
func BenchmarkNilTracerHook(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Instant(TrackDevice, "dev.write")
		}
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	clk := clock.NewVirtual()
	tr := New(clk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Begin(TrackDevice, "submit")
		s.End()
	}
}

func TestNewTrackLanes(t *testing.T) {
	if TrackFleet.String() != "fleet" || TrackAudit.String() != "audit" {
		t.Fatalf("track names: %q %q", TrackFleet, TrackAudit)
	}
	all := Tracks()
	if len(all) != int(numTracks) {
		t.Fatalf("Tracks() returned %d lanes, want %d", len(all), numTracks)
	}
	for i, tr := range all {
		if int(tr) != i {
			t.Fatalf("Tracks()[%d] = %d, want in-order lanes", i, tr)
		}
	}
}
