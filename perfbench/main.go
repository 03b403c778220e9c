// Command perfbench is the repository benchmark: it runs one named
// workload against the simulated Aurora machine, checks every result
// against a model kept by the benchmark, and prints end-to-end metrics (untraced
// reps) or per-layer metrics (paired untraced and traced reps).
//
//	perfbench --workload etc-saturate --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name -> {value, unit}). GLOSSARY.md
// defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// commit is stamped at build time (see run.sh).
var commit = "unknown"

// minReps is how many untraced reps a run makes at least: setup_s and
// every host metric are medians over reps.
const minReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "etc-saturate | prefix-wal | tenants-crash")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measure for about this many host seconds (at least one full set of reps)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from untraced reps; 1: per-layer metrics from paired untraced and traced reps")
	out := flag.String("out", ".bench_build/traces", "directory the traced run writes its span log to")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d)\n", *name, *traced, *seconds)
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("# go=%s GOMAXPROCS=%d commit=%s flush_workers=default(GOMAXPROCS)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), commit)

	var res result
	var err error
	if *traced == 0 {
		res, err = untracedRun(fn, *seed, time.Duration(*seconds)*time.Second)
	} else {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s.tsv.gz", *name))
		res, err = tracedRun(fn, *seed, time.Duration(*seconds)*time.Second, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %16.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runRep executes one rep from a clean heap.
func runRep(fn workloadFn, seed int64, traced bool) (*rep, error) {
	runtime.GC() // one rep's garbage must not land in the next rep's timings
	r := newRep(seed, traced)
	if err := fn(r); err != nil {
		return nil, err
	}
	r.m, r.ts = nil, nil // keep the measurements, not the machine
	for _, p := range r.stats.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return r, nil
}

// untracedRun makes reps until the time is up (at least minReps) and
// reports each end-to-end metric's median over them.
func untracedRun(fn workloadFn, seed int64, budget time.Duration) (result, error) {
	t0 := time.Now()
	var reps []*rep
	for len(reps) < minReps || time.Since(t0)+time.Since(t0)/time.Duration(len(reps)) <= budget {
		r, err := runRep(fn, seed, false)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
	}
	res := result{Metrics: endToEnd(reps)}
	per := make([]map[string]metric, len(reps))
	for i, r := range reps {
		per[i] = endToEnd(reps[i : i+1])
		res.Attempted += r.stats.attempted
		res.Failed += r.stats.failed
	}
	// Virtual metrics repeat for one seed up to flush and validator
	// scheduling; print every difference rather than hide it in the median.
	for _, k := range virtualMetrics {
		for i := 1; i < len(per); i++ {
			if per[i][k] != per[0][k] {
				fmt.Printf("# virtual metric %s differs between reps of one seed: %v vs %v\n", k, per[0][k].Value, per[i][k].Value)
			}
		}
	}
	printHost(reps)
	fmt.Printf("# reps=%d stop_samples=%d op_samples=%d restores=%d\n",
		len(reps), len(reps[0].stats.stop), len(reps[0].stats.opLat), len(reps[0].stats.ttfo))
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedRun makes pairs of one untraced and one traced rep until the time
// is up (at least one pair). Per-layer metrics come from the traced reps;
// the host-time difference between the two kinds is the tracing overhead,
// and every virtual metric of a traced rep is compared with its untraced
// twin's.
func tracedRun(fn workloadFn, seed int64, budget time.Duration, spanPath string) (result, error) {
	t0 := time.Now()
	var plain, traced []*rep
	for len(plain) < 1 || time.Since(t0)+time.Since(t0)/time.Duration(len(plain)) <= budget {
		u, err := runRep(fn, seed, false)
		if err != nil {
			return result{}, err
		}
		tr, err := runRep(fn, seed, true)
		if err != nil {
			return result{}, err
		}
		plain, traced = append(plain, u), append(traced, tr)
	}
	res := result{Metrics: map[string]metric{}}
	var mismatches, outside int
	var maxDiff float64
	for i := range traced {
		a, b := endToEnd(plain[i:i+1]), endToEnd(traced[i:i+1])
		la, lb := perLayer(plain[i]), perLayer(traced[i])
		for k, v := range la {
			a[k] = v
		}
		for k, v := range lb {
			b[k] = v
		}
		for _, k := range append(virtualMetrics, virtualLayerMetrics...) {
			if a[k] == b[k] {
				continue
			}
			mismatches++
			d := 100 * math.Abs(b[k].Value-a[k].Value) / math.Max(math.Abs(a[k].Value), math.Abs(b[k].Value))
			maxDiff = max(maxDiff, d)
			if d > schedBandPct {
				outside++
			}
			fmt.Printf("# virtual metric %s: %v untraced vs %v traced (%.3f%%)\n", k, a[k].Value, b[k].Value, d)
		}
		for _, r := range []*rep{plain[i], traced[i]} {
			res.Attempted += r.stats.attempted
			res.Failed += r.stats.failed
		}
	}
	per := make([]map[string]metric, len(traced))
	for i, r := range traced {
		per[i] = perLayer(r)
	}
	for k, m := range per[0] {
		vals := make([]float64, len(per))
		for i := range per {
			vals[i] = per[i][k].Value
		}
		res.Metrics[k] = metric{Value: median(vals), Unit: m.Unit}
	}
	hostP, hostT := make([]float64, len(plain)), make([]float64, len(traced))
	for i := range plain {
		hostP[i] = plain[i].stats.winHost.Seconds()
		hostT[i] = traced[i].stats.winHost.Seconds()
	}
	res.Metrics["trace.overhead_pct"] = metric{100 * (median(hostT)/median(hostP) - 1), "%"}
	res.Metrics["trace.virtual_mismatches"] = metric{float64(mismatches), "count"}
	res.Metrics["trace.virtual_max_diff_pct"] = metric{maxDiff, "%"}
	last := traced[len(traced)-1]
	res.Metrics["trace.spans"] = metric{float64(len(last.sp.log)), "count"}
	if err := last.sp.write(spanPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	printHost(plain)
	fmt.Printf("# pairs=%d spans=%s\n", len(traced), spanPath)
	res.Failed += int64(outside)
	res.Correct = res.Failed == 0
	return res, nil
}

// schedBandPct bounds how far a virtual metric may move between two reps
// of one seed. With more than one flush or validator worker the device
// queue sees their submissions in scheduling order, which moves durable
// times, write totals and everything timed after them by up to a few
// percent (GLOSSARY.md, "Run-to-run behaviour"); the band is about twice
// the largest such move measured. A traced rep that moves a virtual metric
// further than that has perturbed the simulation.
const schedBandPct = 10

// virtualMetrics are the end-to-end metrics on the virtual clock.
// restore_settle_us is left out: the validator pool's scheduling sets it.
var virtualMetrics = []string{
	"ops_per_vs", "op_lat_us_p50", "op_lat_us_p99", "stop_us_p50", "stop_us_p90",
	"durable_us_p50", "durable_us_p90", "write_amp", "restore_ttfo_us",
}

var virtualLayerMetrics = []string{
	"apps.apply_vns", "kern.os_vus_per_ckpt", "kern.objects_per_ckpt", "kern.quiesce_vus_per_ckpt",
	"vm.mem_vus_per_ckpt", "vm.dirty_pages_per_ckpt", "sls.flush_bytes_per_ckpt",
	"objstore.data_bytes_per_ckpt", "objstore.meta_bytes_per_ckpt", "objstore.wal_frames",
	"objstore.folds", "objstore.space_amp", "device.writes_per_ckpt", "device.flushes_per_ckpt",
	"sls.restore_meta_vus", "sls.pages_validated_per_restore", "device.reads_per_restore",
	"device.read_bytes_per_restore",
}

// endToEnd summarizes reps of one seed: the median of each per-rep value.
func endToEnd(reps []*rep) map[string]metric {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	med := func(f func(s *repStats) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(&r.stats)
		}
		return median(v)
	}
	return map[string]metric{
		"setup_s":           {med(func(s *repStats) float64 { return s.setup.Seconds() }), "s"},
		"ops_per_vs":        {med(func(s *repStats) float64 { return float64(s.ops) / s.winVirt.Seconds() }), "1/vs"},
		"op_lat_us_p50":     {med(func(s *repStats) float64 { return us(pct(s.opLat, 0.50)) }), "vus"},
		"op_lat_us_p99":     {med(func(s *repStats) float64 { return us(pct(s.opLat, 0.99)) }), "vus"},
		"stop_us_p50":       {med(func(s *repStats) float64 { return us(pct(s.stop, 0.50)) }), "vus"},
		"stop_us_p90":       {med(func(s *repStats) float64 { return us(pct(s.stop, 0.90)) }), "vus"},
		"durable_us_p50":    {med(func(s *repStats) float64 { return us(pct(s.durable, 0.50)) }), "vus"},
		"durable_us_p90":    {med(func(s *repStats) float64 { return us(pct(s.durable, 0.90)) }), "vus"},
		"write_amp":         {med(func(s *repStats) float64 { return float64(s.devBytes) / float64(s.userBytes) }), "ratio"},
		"restore_ttfo_us":   {med(func(s *repStats) float64 { return us(pct(s.ttfo, 0.50)) }), "vus"},
		"restore_settle_us": {med(func(s *repStats) float64 { return us(pct(s.settle, 0.50)) }), "vus"},
		"peak_heap_mib":     {med(func(s *repStats) float64 { return float64(s.peakHeap) / (1 << 20) }), "MiB"},
	}
}

// printHost prints the host-time figures of untraced reps as comment
// lines. They pool their samples (window chunks, checkpoint calls,
// restores) over all reps, so a short stall moves a few samples, not a
// whole rep. They are not among the JSON metrics: host speed on a shared
// machine drifts by more than any useful regression bound (GLOSSARY.md).
func printHost(reps []*rep) {
	var chunks []float64
	var ckpt, restore []int64
	for _, r := range reps {
		chunks = append(chunks, r.stats.chunkRates...)
		ckpt = append(ckpt, r.stats.hostCkpt...)
		restore = append(restore, r.stats.hostRestore...)
	}
	fmt.Printf("# host_ops_per_s %.1f 1/s\n", median(chunks))
	fmt.Printf("# host_ckpt_ms_p50 %.4f ms\n", float64(pct(ckpt, 0.50))/1e6)
	fmt.Printf("# host_restore_ms_p50 %.4f ms\n", float64(pct(restore, 0.50))/1e6)
}

func perLayer(r *rep) map[string]metric {
	s := &r.stats
	ck := float64(len(s.stop))
	rs := float64(len(s.ttfo))
	per := func(v int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / n
	}
	out := map[string]metric{
		"apps.apply_vns":                  {per(s.applyV, float64(s.ops)), "vns"},
		"kern.os_vus_per_ckpt":            {per(s.osTime, ck) / 1e3, "vus"},
		"kern.objects_per_ckpt":           {per(s.objects, ck), "count"},
		"kern.quiesce_vus_per_ckpt":       {per(s.quiesce, ck) / 1e3, "vus"},
		"vm.mem_vus_per_ckpt":             {per(s.memTime, ck) / 1e3, "vus"},
		"vm.dirty_pages_per_ckpt":         {per(s.dirty, ck), "count"},
		"vm.pageins_per_restore":          {per(s.pageins, rs), "count"},
		"sls.encode_ns_per_ckpt":          {per(s.encode, ck), "ns"},
		"sls.write_ns_per_ckpt":           {per(s.write, ck), "ns"},
		"sls.flush_workers":               {float64(s.workers), "count"},
		"sls.queue_depth_max":             {float64(s.queueMax), "count"},
		"sls.flush_bytes_per_ckpt":        {per(s.flushBytes, ck), "B"},
		"sls.barrier_ns":                  {per(s.barrierHost, float64(s.barriers)), "ns"},
		"sls.restore_meta_vus":            {per(s.metaV, rs) / 1e3, "vus"},
		"sls.validate_vus":                {per(s.validateV, rs) / 1e3, "vus"},
		"sls.pages_validated_per_restore": {per(s.pagesValidated, rs), "count"},
		"sls.rollbacks_per_restore":       {per(s.rollbacks, rs), "count"},
		"objstore.data_bytes_per_ckpt":    {per(s.dataBytes, ck), "B"},
		"objstore.meta_bytes_per_ckpt":    {per(s.metaBytes, ck), "B"},
		"objstore.wal_frames":             {float64(s.walFrames), "count"},
		"objstore.folds":                  {float64(s.folds), "count"},
		"objstore.space_amp":              {s.spaceAmp, "ratio"},
		"device.writes_per_ckpt":          {per(s.devWrites, ck), "count"},
		"device.write_bytes_avg":          {per(s.devWriteB, float64(s.devWrites)), "B"},
		"device.flushes_per_ckpt":         {per(s.devFlushes, ck), "count"},
		"device.reads_per_restore":        {per(s.devReads, rs), "count"},
		"device.read_bytes_per_restore":   {per(s.devReadB, rs), "B"},
		"sls.restore_ns":                  {per(s.restoreHost, rs), "ns"},
		"objstore.recover_ns":             {per(s.recoverHost, rs), "ns"},
	}
	if r.sp == nil {
		return out
	}
	self, count, total := r.sp.selfTime()
	for _, l := range layers {
		out["self."+l+"_ms"] = metric{float64(self[l]) / 1e6, "ms"}
	}
	mean := func(n uint8) float64 { return per(total[n], float64(count[n])) }
	out["workload.next_ns"] = metric{mean(spNext), "ns"}
	out["apps.apply_ns"] = metric{mean(spApply), "ns"}
	out["sls.ckpt_ns"] = metric{mean(spCheckpoint), "ns"}
	out["workload.alloc_b_per_op"] = metric{per(s.nextAlloc, float64(s.allocN)), "B"}
	out["apps.alloc_b_per_op"] = metric{per(s.applyAlloc, float64(s.allocN)), "B"}
	for _, st := range []string{"quiesce", "serialize", "writeback", "shadow"} {
		out["vstop."+st+"_us_per_ckpt"] = metric{per(s.vstop[st], ck) / 1e3, "vus"}
	}
	return out
}

// pct is the nearest-rank percentile of v (0 for no samples).
func pct(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
