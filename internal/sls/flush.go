package sls

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// The checkpoint flush pipeline (§5's overlap made concrete): once the
// applications resume against fresh shadows, the frozen memory drains to the
// store through four stages —
//
//	Enumerate  (coordinator)  walk shadow pairs, trapped transients, and
//	                          cold objects into one job per destination
//	                          store object
//	Encode     (worker)       resolve each job's newest page versions
//	                          into one sorted batch
//	Write      (worker)       submit the batch through the store's
//	                          three-phase WritePages path
//	Commit     (coordinator)  install pagers, mark trapped transients
//	                          done, and (in Checkpoint) cut the epoch
//
// Jobs fan out to a bounded worker pool, so one object's encode overlaps
// another's device transfer. The epoch commit happens only after the pool
// drains, preserving external synchrony: nothing is released until the
// superblock that covers every flushed page is durable.
//
// Keying jobs by destination OID gives two properties the serial path
// lacked. First, no two workers ever write the same store object within an
// epoch, so the pipeline needs no cross-worker ordering. Second, each page
// index is written exactly once with its NEWEST version: the serial path
// flushed trapped (older, deeper) shadows after the frozen pair, letting a
// stale version overwrite a page dirtied in both a mem-only interval and
// the interval that followed it.

// flushSource is one object contributing pages to a job. A nil target
// stages the object's own resident pages (the dirty set); a non-nil target
// stages the full image visible from obj down to and including target.
type flushSource struct {
	obj    *vm.Object
	target *vm.Object
}

// flushJob is all flush work destined for one store object this epoch.
// Sources are ordered newest-first; the encoder stages each page index once,
// from the first source that holds it.
type flushJob struct {
	toid    objstore.OID
	install *vm.Object    // persistent root to pager-install once flushed
	sources []flushSource // precedence order: newest version first
	trapped []*vm.Object  // transients to mark done when the job lands
}

// flushPlan is the Enumerate stage's output.
type flushPlan struct {
	jobs  []*flushJob
	index map[objstore.OID]*flushJob
}

func newFlushPlan() *flushPlan {
	return &flushPlan{index: make(map[objstore.OID]*flushJob)}
}

// job returns (creating if needed) the plan's job for toid.
func (pl *flushPlan) job(toid objstore.OID) *flushJob {
	if j, ok := pl.index[toid]; ok {
		return j
	}
	j := &flushJob{toid: toid}
	pl.index[toid] = j
	pl.jobs = append(pl.jobs, j)
	return j
}

// planPairs enumerates the frozen shadow pairs and any trapped transients
// under them. First flush of an object (or CkptFull) stages the full
// visible image; later flushes stage only the frozen dirty set.
func (g *Group) planPairs(pl *flushPlan, pairs []vm.ShadowPair, kind CheckpointKind) {
	o := g.o
	for _, pair := range pairs {
		target := g.persistentRoot(pair.Frozen)
		toid := g.oidFor(target)
		o.Store.Ensure(toid, UTMemObject)
		full := kind == CkptFull || !g.flushed[toid]
		j := pl.job(toid)
		j.install = target
		src := flushSource{obj: pair.Frozen}
		if full {
			src.target = target
		}
		j.sources = append(j.sources, src)
		g.flushed[toid] = true
	}
	// Trapped transients (fork mid-interval, unflushed mem-only shadows):
	// collected top-down so a job's source order stays newest-first — the
	// encoder's first-writer-wins dedup replaces the serial path's
	// "flush bottom-up so newer overwrites" ordering.
	seen := make(map[*vm.Object]bool)
	for _, pair := range pairs {
		for obj := pair.Frozen.Backer(); obj != nil; obj = obj.Backer() {
			if !g.transient[obj] || g.trappedDone[obj] || seen[obj] {
				continue
			}
			seen[obj] = true
			target := g.persistentRoot(obj.Backer())
			if target == nil {
				continue
			}
			toid := g.oidFor(target)
			o.Store.Ensure(toid, UTMemObject)
			j := pl.job(toid)
			j.sources = append(j.sources, flushSource{obj: obj})
			j.trapped = append(j.trapped, obj)
		}
	}
}

// planCold enumerates serialized memory objects no shadow pair covered
// (read-only or excluded regions seen for the first time): their resident
// content flushes once, in full. Jobs are planned in ascending-OID order so
// the submit stream is identical across runs of the same workload — the
// crash-replay harness depends on that determinism.
func (g *Group) planCold(pl *flushPlan, ser *serializer) {
	cold := make([]*vm.Object, 0, len(ser.memOIDs))
	for obj, oid := range ser.memOIDs {
		if !g.flushed[oid] {
			cold = append(cold, obj)
		}
	}
	sort.Slice(cold, func(i, j int) bool { return ser.memOIDs[cold[i]] < ser.memOIDs[cold[j]] })
	for _, obj := range cold {
		oid := ser.memOIDs[obj]
		g.o.Store.Ensure(oid, UTMemObject)
		j := pl.job(oid)
		j.sources = append(j.sources, flushSource{obj: obj, target: obj})
		g.flushed[oid] = true
	}
}

// flushResult aggregates what the pool did.
type flushResult struct {
	bytes    int64
	encode   time.Duration // host time staging, summed over workers
	write    time.Duration // host time submitting, summed over workers
	workers  int
	maxDepth int
}

// runFlush drains the plan through the worker pool and commits the
// bookkeeping. Options.FlushWorkers bounds the pool (0 = GOMAXPROCS,
// 1 = serial). The call returns only when every job has landed or failed;
// the store epoch is NOT cut here — that is the caller's commit step.
func (g *Group) runFlush(pl *flushPlan) (flushResult, error) {
	var res flushResult
	if len(pl.jobs) == 0 {
		return res, nil
	}
	workers := g.Options.FlushWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pl.jobs) {
		workers = len(pl.jobs)
	}
	res.workers = workers
	tr := g.o.tr // nil disables; Span methods no-op on the zero Span

	var (
		bytes, encodeNS, writeNS atomic.Int64
		depth, maxDepth          atomic.Int64
		errMu                    sync.Mutex
		firstErr                 error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}

	jobs := make(chan *flushJob, len(pl.jobs))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				depth.Add(-1)
				if failed() {
					continue // drain remaining jobs after an error
				}
				// Job spans are zero-width in virtual time — encode and
				// submit burn host CPU only — so the host costs ride as
				// args while the virtual timeline stays authoritative.
				jobSpan := tr.Begin(trace.TrackFlush, "flush.job")
				oid := trace.I("oid", int64(j.toid))
				t0 := time.Now()
				writes := encodeJob(j)
				encNS := int64(time.Since(t0))
				encodeNS.Add(encNS)
				if len(writes) == 0 {
					jobSpan.End(oid, trace.I("pages", 0))
					continue
				}
				t0 = time.Now()
				n, err := g.o.Store.WritePages(j.toid, writes)
				wrNS := int64(time.Since(t0))
				writeNS.Add(wrNS)
				bytes.Add(n)
				if err != nil {
					fail(err)
				}
				jobSpan.End(oid, trace.I("pages", int64(len(writes))), trace.I("bytes", n),
					trace.I("encode_host_ns", encNS), trace.I("write_host_ns", wrNS))
			}
		}()
	}
	for _, j := range pl.jobs {
		d := depth.Add(1)
		for {
			m := maxDepth.Load()
			if d <= m || maxDepth.CompareAndSwap(m, d) {
				break
			}
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	res.bytes = bytes.Load()
	res.encode = time.Duration(encodeNS.Load())
	res.write = time.Duration(writeNS.Load())
	res.maxDepth = int(maxDepth.Load())
	if firstErr != nil {
		return res, firstErr
	}

	// Commit-side bookkeeping: flushed objects become store-backed (their
	// clean pages evict through the unified checkpoint/swap path), and
	// trapped transients are immutable and fully captured from here on.
	for _, j := range pl.jobs {
		if j.install != nil {
			g.installPager(j.install, j.toid)
		}
		for _, obj := range j.trapped {
			g.trappedDone[obj] = true
		}
	}
	return res, nil
}

// encodeJob resolves the job's newest page versions into a sorted batch.
// The batch references the frozen frames' data directly — frozen and
// trapped shadows are immutable under COW (a racing application fault
// copies OUT of them, never into them), so the single data copy happens in
// the Write stage, inside the device. Resolved frames are marked clean and
// store-backed; a frame whose page index was already staged from a newer
// source keeps its dirty bit — its content is not what the store holds.
func encodeJob(j *flushJob) []objstore.PageWrite {
	staged := make(map[int64]bool)
	var writes []objstore.PageWrite
	add := func(pg int64, p *mem.Page) {
		staged[pg] = true
		p.Dirty = false
		p.Backed = true
		writes = append(writes, objstore.PageWrite{Pg: pg, Data: p.Data})
	}
	for _, src := range j.sources {
		if src.target != nil {
			// Full image: everything visible from src.obj down to and
			// including target (but not below — pages under the target,
			// e.g. a mapped file's clean pages, restore from their own
			// object).
			n := mem.PagesFor(src.target.Size())
			for pg := int64(0); pg < n; pg++ {
				if staged[pg] {
					continue
				}
				p, owner := src.obj.Lookup(pg)
				if p == nil || !withinChain(src.obj, src.target, owner) {
					continue
				}
				add(pg, p)
			}
		} else {
			src.obj.EachPage(func(pg int64, p *mem.Page) {
				if staged[pg] {
					return
				}
				add(pg, p)
			})
		}
	}
	// Sorted batches give the store sequential block layout per object,
	// which restore's prefetch rewards.
	sort.Slice(writes, func(a, b int) bool { return writes[a].Pg < writes[b].Pg })
	return writes
}

// withinChain reports whether owner lies on the chain top..target inclusive.
func withinChain(top, target, owner *vm.Object) bool {
	for c := top; c != nil; c = c.Backer() {
		if c == owner {
			return true
		}
		if c == target {
			return false
		}
	}
	return false
}
