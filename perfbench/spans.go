package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Host-time spans the traced run records around every call it makes into a
// layer. They are the benchmark's own: the program under test is not
// instrumented, so an untraced run executes exactly the same calls minus
// the clock reads.

// Span names. The layer a span's self time is charged to is layerOf[name].
const (
	spOp            uint8 = iota // one workload op: generate, apply, check
	spCkpt                       // one checkpoint as the benchmark loop sees it
	spRestore                    // one crash + recovery as the benchmark loop sees it
	spNext                       // workload.Generator.Next
	spApply                      // app Get/Set (kern gate and vm faults included)
	spRebuild                    // app index rebuild after a restore
	spCheckpoint                 // sls Group.Checkpoint / MaybePeriodic
	spBarrier                    // sls Group.Barrier
	spRecover                    // aurora Machine.Crash (objstore recovery)
	spRestoreGroups              // sls Orchestrator.RestoreGroups
	spVerify                     // the benchmark's post-restore content check
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "ckpt", "restore", "workload.next", "apps.apply", "apps.rebuild",
	"sls.checkpoint", "sls.barrier", "objstore.recover", "sls.restore", "bench.verify",
}

// layers host self time is reported for, in output order.
var layers = []string{"bench", "workload", "apps", "sls", "objstore", "restore"}

var layerOf = [numSpanNames]string{
	"bench", "bench", "bench", "workload", "apps", "apps",
	"sls", "sls", "objstore", "restore", "bench",
}

type span struct {
	name   uint8
	group  uint32 // op or checkpoint or restore number: shared by its children
	parent int32  // index of the parent span, -1 for roots
	start  int64  // host ns since the recorder started
	end    int64
}

// spans is an in-memory span log. A nil *spans records nothing, so the
// untraced run pays one pointer check per call site.
type spans struct {
	t0  time.Time
	log []span
}

func newSpans() *spans { return &spans{t0: time.Now(), log: make([]span, 0, 1<<20)} }

// begin opens a span and returns its index (or -1 when not tracing).
func (s *spans) begin(name uint8, group uint32, parent int32) int32 {
	if s == nil {
		return -1
	}
	s.log = append(s.log, span{name: name, group: group, parent: parent, start: int64(time.Since(s.t0))})
	return int32(len(s.log) - 1)
}

func (s *spans) end(i int32) {
	if s == nil {
		return
	}
	s.log[i].end = int64(time.Since(s.t0))
}

// selfTime sums, per layer, each span's duration minus the time its
// children cover. Children of one parent never overlap (one driving
// goroutine), so the covered time is the sum of their durations.
func (s *spans) selfTime() (self map[string]time.Duration, count, total [numSpanNames]int64) {
	child := make([]int64, len(s.log))
	for _, sp := range s.log {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	self = make(map[string]time.Duration, len(layers))
	for i, sp := range s.log {
		d := sp.end - sp.start
		self[layerOf[sp.name]] += time.Duration(d - child[i])
		count[sp.name]++
		total[sp.name] += d
	}
	return self, count, total
}

// write dumps the log as gzipped TSV: index, name, group, parent, start_ns,
// end_ns (host ns since the recorder started).
func (s *spans) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "idx\tname\tgroup\tparent\tstart_ns\tend_ns")
	var line []byte
	for i, sp := range s.log {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, '\t')
		line = append(line, spanNames[sp.name]...)
		line = append(line, '\t')
		line = strconv.AppendUint(line, uint64(sp.group), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(sp.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, sp.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, sp.end, 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
