package main

import (
	"fmt"
	"math/rand"
	"time"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/apps/rocksdb"
	"aurora/internal/workload"
)

// Workload shapes. Sizes follow the paper's Figures 4-6. The timed windows
// give every reported percentile at least ten samples beyond it and are
// whole numbers of host-rate chunks (see GLOSSARY.md).
const (
	period       = 10 * time.Millisecond // the paper's 100 Hz checkpointing
	retainEpochs = 4
	warmup       = 50 * time.Millisecond  // untimed, after the first full checkpoint
	chunk        = 200 * time.Millisecond // host-rate sample; one crash per chunk in tenants-crash

	etcItems  = 60000 // ~29 MiB of 512 B slots
	etcConns  = 576   // Fig 4: 4 load machines x 12 threads x 12 connections
	etcWindow = 1600 * time.Millisecond

	walKeys      = 400000
	walPrefixes  = 2048
	walFoldEvery = 16
	walMemtable  = 512 << 20 // holds the whole run: a full memtable would compact in map order
	walWindow    = 1200 * time.Millisecond

	tenants       = 4
	tenantItems   = 20000
	tenantRate    = 120000.0 // ops/s over all tenants: Fig 5's pegged load
	tenantWindow  = 1000 * time.Millisecond
	crashEvery    = 200 * time.Millisecond
	crashFirstOff = 105 * time.Millisecond // lands mid checkpoint interval
)

type workloadFn func(r *rep) error

var workloads = map[string]workloadFn{
	"etc-saturate":  etcSaturate,
	"prefix-wal":    prefixWAL,
	"tenants-crash": tenantsCrash,
}

// memcachedTenant starts a memcached server of n items in its own group
// and fills every key once with seed-derived values.
func (r *rep) memcachedTenant(name string, n int, gen workload.Generator, rng *rand.Rand) (*tenant, error) {
	s, err := memcached.New(r.m.K, n)
	if err != nil {
		return nil, err
	}
	g, err := r.m.Attach(name, s.Proc)
	if err != nil {
		return nil, err
	}
	g.Period = period
	g.RetainEpochs = retainEpochs
	arena, slots := s.Arena()
	t := &tenant{name: name, g: g, gen: gen, mdl: newModel(n), isMC: true, mc: s, arena: arena, slots: slots}
	r.ts = append(r.ts, t)
	for _, op := range workload.Fill(n, "etc", 300) {
		rng.Read(op.Value)
		if err := t.set(op.Key, op.Value); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// connTable gives the server the Fig 4 descriptor table: one listener plus
// etcConns established TCP connections, all serialized on every checkpoint.
func connTable(r *rep, s *aurora.Proc) error {
	lfd, err := s.Socket(aurora.SockTCP)
	if err != nil {
		return err
	}
	if err := s.Bind(lfd, "10.0.0.1:11211"); err != nil {
		return err
	}
	if err := s.Listen(lfd); err != nil {
		return err
	}
	client := r.m.Spawn("mutilate")
	for i := 0; i < etcConns; i++ {
		cfd, err := client.Socket(aurora.SockTCP)
		if err != nil {
			return err
		}
		if err := client.Bind(cfd, fmt.Sprintf("10.0.0.%d:%d", 2+i/256, 10000+i%256)); err != nil {
			return err
		}
		if err := client.Connect(cfd, "10.0.0.1:11211"); err != nil {
			return err
		}
		if _, err := s.Accept(lfd); err != nil {
			return err
		}
	}
	return nil
}

// baseline takes each tenant's first full checkpoint and waits for it.
func (r *rep) baseline() error {
	for _, t := range r.ts {
		if err := r.checkpoint(t, aurora.CkptFull, false); err != nil {
			return err
		}
	}
	return r.barrier()
}

// closedLoop issues ops back to back on one tenant for dur virtual time;
// an op's latency runs from its issue to its completion, so a checkpoint
// that fires between issue and execution lands in it.
func (r *rep) closedLoop(t *tenant, kind aurora.CheckpointKind, dur time.Duration) error {
	for start := r.now(); r.now()-start < dur; {
		issued := r.now()
		if err := r.periodic(t, kind); err != nil {
			return err
		}
		r.op(t, issued)
	}
	return nil
}

// openLoop serves tenantRate ops/s, due times spread evenly over the
// tenants in round-robin order, for dur virtual time. Latency runs from an
// op's due time, so checkpoint stops and restore outages delay every op
// scheduled behind them. Crashes fire at the given virtual instants.
func (r *rep) openLoop(dur time.Duration, crashes []time.Duration) error {
	start := r.now()
	for j := int64(0); ; j++ {
		due := start + time.Duration(float64(j)*float64(time.Second)/tenantRate)
		if due-start >= dur {
			return nil
		}
		if now := r.now(); now < due {
			r.m.Clock.Advance(due - now)
		}
		if len(crashes) > 0 && r.now() >= crashes[0] {
			crashes = crashes[1:]
			if err := r.crashRestore(); err != nil {
				return err
			}
		}
		for _, t := range r.ts {
			if err := r.periodic(t, aurora.CkptIncremental); err != nil {
				return err
			}
		}
		r.op(r.ts[j%int64(len(r.ts))], due)
	}
}

// etcSaturate: one memcached group with the Fig 4 connection table under
// closed-loop Facebook ETC, checkpointed every 10 ms; then one crash and
// speculative restore of the whole image.
func etcSaturate(r *rep) error {
	h0 := time.Now()
	if err := r.machine(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	t, err := r.memcachedTenant("memcached", etcItems, workload.NewETC(r.seed, etcItems), rng)
	if err != nil {
		return err
	}
	if err := connTable(r, t.mc.Proc); err != nil {
		return err
	}
	if err := r.baseline(); err != nil {
		return err
	}
	r.stats.setup = time.Since(h0)
	r.sampleHeap()

	if err := r.closedLoop(t, aurora.CkptIncremental, warmup); err != nil {
		return err
	}
	v0, w0 := r.beginWindow()
	if err := r.closedLoop(t, aurora.CkptIncremental, etcWindow); err != nil {
		return err
	}
	r.endWindow(v0, w0)
	return r.settleAndRestore(aurora.CkptIncremental)
}

// settleAndRestore ends a closed-loop rep: a last checkpoint and barrier,
// an audit, then a crash and speculative restore checked against the model.
func (r *rep) settleAndRestore(kind aurora.CheckpointKind) error {
	for _, t := range r.ts {
		if err := r.checkpoint(t, kind, false); err != nil {
			return err
		}
	}
	if err := r.barrier(); err != nil {
		return err
	}
	r.audit("end of window")
	if err := r.crashRestore(); err != nil {
		return err
	}
	r.finish()
	return nil
}

// prefixWAL: RocksDB (Aurora build) preloaded with walKeys keys under
// closed-loop Prefix_dist, committing CkptWAL every 10 ms with a fold every
// 16th commit; then one crash and speculative restore.
func prefixWAL(r *rep) error {
	h0 := time.Now()
	if err := r.machine(); err != nil {
		return err
	}
	g := r.m.SLS.CreateGroup("rocksdb")
	g.Period = period
	g.RetainEpochs = retainEpochs
	g.Options.FoldEvery = walFoldEvery
	db, err := rocksdb.Open(r.m.K, rocksdb.Options{Config: rocksdb.ConfigAurora, MemtableCap: walMemtable, Group: g})
	if err != nil {
		return err
	}
	arena, size := db.MemtableArena()
	t := &tenant{
		name: "rocksdb", g: g, mdl: newModel(walKeys), db: db, arena: arena, slots: size,
		gen: workload.NewPrefixDist(r.seed, walPrefixes, walKeys/walPrefixes),
	}
	r.ts = append(r.ts, t)
	rng := rand.New(rand.NewSource(r.seed))
	val := make([]byte, 400)
	for i := 0; i < walKeys; i++ {
		rng.Read(val)
		if err := t.set(fmt.Sprintf("p%06d:k%08d", i%walPrefixes, i/walPrefixes), val); err != nil {
			return err
		}
	}
	if err := r.baseline(); err != nil {
		return err
	}
	r.stats.setup = time.Since(h0)
	r.sampleHeap()

	if err := r.closedLoop(t, aurora.CkptWAL, warmup); err != nil {
		return err
	}
	v0, w0 := r.beginWindow()
	if err := r.closedLoop(t, aurora.CkptWAL, walWindow); err != nil {
		return err
	}
	r.endWindow(v0, w0)
	return r.settleAndRestore(aurora.CkptWAL)
}

// tenantsCrash: four memcached groups under open-loop ETC at a pegged
// total rate, each checkpointed every 10 ms, with the machine crashing and
// restoring all groups speculatively every crashEvery of virtual time.
func tenantsCrash(r *rep) error {
	h0 := time.Now()
	if err := r.machine(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	for i := 0; i < tenants; i++ {
		gen := workload.NewETC(r.seed*tenants+int64(i), tenantItems)
		if _, err := r.memcachedTenant(fmt.Sprintf("mc%d", i), tenantItems, gen, rng); err != nil {
			return err
		}
	}
	if err := r.baseline(); err != nil {
		return err
	}
	r.stats.setup = time.Since(h0)
	r.sampleHeap()

	if err := r.openLoop(warmup, nil); err != nil {
		return err
	}
	v0, w0 := r.beginWindow()
	var crashes []time.Duration
	for at := crashFirstOff; at < tenantWindow; at += crashEvery {
		crashes = append(crashes, v0+at)
	}
	if err := r.openLoop(tenantWindow, crashes); err != nil {
		return err
	}
	r.endWindow(v0, w0)
	if err := r.barrier(); err != nil {
		return err
	}
	r.audit("end of window")
	r.finish()
	return nil
}
