package sls

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// Speculative concurrent restore (PhoenixOS-style validated speculation,
// see PAPERS.md): RestoreGroup(RestoreSpeculative) rebuilds only metadata
// and returns, letting the group execute immediately while every page it
// touches faults in lazily. Trust is re-established in two layers:
//
//   - fault-time checks: each demand fault is hashed against the page sum
//     recorded when it was committed, so corrupt data never reaches the
//     application even transiently (restore.go, storePager.speculate);
//   - the validator sweep: FinishSpeculation walks every restored object
//     across a worker pool shaped like the flush pipeline, confirming the
//     marks fault-time checks could not settle and pre-touching — reading,
//     verifying, installing — every stored page not yet resident, so a
//     validated group converges to the same memory image a serial eager
//     restore would have produced.
//
// The state machine is speculating -> validated | rolled-back. Any
// mismatch rolls the group back: the speculative husk is torn down, a
// restore.rollback flight event and a persistent SpecRecord breadcrumb are
// emitted, and a serial (eager, verified) restore replaces it.

// SpecState is one group's position in the validated-speculation machine.
type SpecState uint8

// Speculation states.
const (
	// SpecNone: the group was not restored speculatively.
	SpecNone SpecState = iota
	// SpecSpeculating: executing ahead of validation; pages it faults in
	// are marked and checked, the full sweep has not completed.
	SpecSpeculating
	// SpecValidated: the sweep confirmed every page against the image.
	SpecValidated
	// SpecRolledBack: a mismatch was found; this husk was discarded and
	// replaced by a serial restore (the replacement group reads SpecNone).
	SpecRolledBack
)

// String names the state for reports and audit findings.
func (s SpecState) String() string {
	switch s {
	case SpecNone:
		return "none"
	case SpecSpeculating:
		return "speculating"
	case SpecValidated:
		return "validated"
	case SpecRolledBack:
		return "rolled-back"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// SpecState returns the group's current speculation state.
func (g *Group) SpecState() SpecState {
	g.specMu.Lock()
	defer g.specMu.Unlock()
	return g.specState
}

// SpecCounts returns pages faulted while speculating and pages the
// validator (fault-time checks plus the sweep) has confirmed.
func (g *Group) SpecCounts() (speculated, validated int64) {
	return g.specPages.Load(), g.specValidated.Load()
}

// SpecMismatch reports the recorded mismatch, if any: the lowest
// (object, page) pair that failed validation.
func (g *Group) SpecMismatch() (oid objstore.OID, pg int64, ok bool) {
	g.specMu.Lock()
	defer g.specMu.Unlock()
	return g.specBadOID, g.specBadPage, g.specBad
}

// recordMismatch notes a failed validation. Concurrent validator workers
// may find several; the lowest (oid, page) wins so the breadcrumb and the
// flight event are deterministic regardless of worker scheduling.
func (g *Group) recordMismatch(oid objstore.OID, pg int64) {
	g.specMu.Lock()
	defer g.specMu.Unlock()
	if g.specBad && (g.specBadOID < oid || (g.specBadOID == oid && g.specBadPage <= pg)) {
		return
	}
	g.specBad = true
	g.specBadOID = oid
	g.specBadPage = pg
}

// EachRestoredObject visits the memory objects the last restore rebuilt,
// in serializer order — the auditor's hook for speculation invariants.
func (g *Group) EachRestoredObject(fn func(oid objstore.OID, obj *vm.Object)) {
	for _, rm := range g.restoredMem {
		fn(rm.oid, rm.obj)
	}
}

// SpecReport summarizes one validator pass over a group.
type SpecReport struct {
	Confirmed int64 // pages confirmed against the image this pass
	Installed int64 // pages pre-touched into memory by the sweep
	Mismatch  bool
	BadOID    objstore.OID
	BadPage   int64
}

// ValidateSpeculation runs the validator sweep serially over the group's
// restored objects: it settles every outstanding speculation mark and
// pre-touches the not-yet-resident remainder of the image. On a mismatch
// it records the damage and returns ErrSpeculation — the group is NOT
// rolled back; call FinishSpeculation (which sweeps, then rolls back on
// any recorded mismatch) to resolve the state machine.
func (g *Group) ValidateSpeculation() (SpecReport, error) {
	var rep SpecReport
	if g.SpecState() != SpecSpeculating {
		return rep, fmt.Errorf("sls: group %q is not speculating (state %s)", g.Name, g.SpecState())
	}
	var firstErr error
	for _, rm := range g.restoredMem {
		confirmed, installed, err := g.o.validateObject(g, rm)
		rep.Confirmed += confirmed
		rep.Installed += installed
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err != nil && !errors.Is(err, ErrSpeculation) {
			break // IO trouble: stop the sweep, keep what validated
		}
	}
	rep.BadOID, rep.BadPage, rep.Mismatch = g.SpecMismatch()
	return rep, firstErr
}

// validateObject confirms one restored memory object. Pass 1 settles the
// speculation marks fault-time checks left behind: marks without a
// committed sum cover zero-fill holes (no data moved off the device —
// nothing to distrust), marks with a sum are re-hashed. Pass 2 pre-touches
// every stored page not yet resident: read, verified against its sum, and
// installed, so the sweep doubles as a background eager restore and a
// validated group ends with the full image in memory.
func (o *Orchestrator) validateObject(g *Group, rm restoredMem) (confirmed, installed int64, err error) {
	src := g.specSrc
	for _, pg := range rm.obj.SpeculatedPages() {
		sum, ok, serr := pageSum(src, rm.oid, pg)
		if serr != nil {
			return confirmed, installed, serr
		}
		if !ok {
			rm.obj.ClearSpeculated(pg)
			g.specValidated.Add(1)
			confirmed++
			continue
		}
		p, resident := rm.obj.ResidentPage(pg)
		if !resident {
			// Evicted since the fault; a refault revalidates it.
			rm.obj.ClearSpeculated(pg)
			continue
		}
		if crc32.ChecksumIEEE(p.Data) != sum {
			g.recordMismatch(rm.oid, pg)
			return confirmed, installed, fmt.Errorf("%w: oid %d page %d", ErrSpeculation, rm.oid, pg)
		}
		rm.obj.ClearSpeculated(pg)
		g.specValidated.Add(1)
		confirmed++
	}

	pm := o.K.VM.PM
	touch := func(pg int64, data []byte) error {
		if _, resident := rm.obj.ResidentPage(pg); resident {
			return nil // faulted in and already validated
		}
		sum, ok, serr := pageSum(src, rm.oid, pg)
		if serr != nil {
			return serr
		}
		if ok && crc32.ChecksumIEEE(data) != sum {
			g.recordMismatch(rm.oid, pg)
			return fmt.Errorf("%w: oid %d page %d (pre-touch)", ErrSpeculation, rm.oid, pg)
		}
		frame, aerr := pm.Alloc()
		if aerr != nil {
			return aerr
		}
		copy(frame.Data, data)
		frame.Backed = true
		rm.obj.InsertPage(pg, frame)
		g.specValidated.Add(1)
		confirmed++
		installed++
		return nil
	}
	if bs, ok := src.(bulkSource); ok {
		_, err = bs.EachPageBulk(rm.oid, touch)
		return confirmed, installed, err
	}
	buf := make([]byte, mem.PageSize)
	for pg, pages := int64(0), mem.PagesFor(rm.size); pg < pages; pg++ {
		found, rerr := src.ReadPage(rm.oid, pg, buf)
		if rerr != nil {
			return confirmed, installed, rerr
		}
		if !found {
			continue
		}
		if err = touch(pg, buf); err != nil {
			return confirmed, installed, err
		}
	}
	return confirmed, installed, nil
}

// FinishSpeculation completes a speculative restore: the validator sweep
// runs across a worker pool (shaped like the flush pipeline), and the
// group transitions to validated — or, on any mismatch, rolls back to a
// serial restore. The returned group is the live one: the original when
// validation succeeds, the serial replacement after a rollback (the stats
// then carry Rollbacks=1 and the serial restore's costs).
func (o *Orchestrator) FinishSpeculation(g *Group) (*Group, RestoreStats, error) {
	gs, sts, err := o.finishSpeculation([]*Group{g})
	if gs == nil {
		return g, RestoreStats{}, err
	}
	return gs[0], sts[0], err
}

// finishSpeculation validates several speculating groups in one shared
// worker pool, then resolves each group's state machine.
func (o *Orchestrator) finishSpeculation(groups []*Group) ([]*Group, []RestoreStats, error) {
	sw := clock.StartStopwatch(o.Clk)
	for _, g := range groups {
		if g.SpecState() != SpecSpeculating {
			return nil, nil, fmt.Errorf("sls: group %q is not speculating (state %s)", g.Name, g.SpecState())
		}
	}

	// One job per restored memory object across every group, drained by a
	// bounded pool exactly like the flush pipeline. A mismatch only dooms
	// its group — the pool keeps draining so sibling groups validate; a
	// non-speculation error (IO trouble) aborts the whole finish.
	type vjob struct {
		g  *Group
		rm restoredMem
	}
	var jobs []vjob
	for _, g := range groups {
		for _, rm := range g.restoredMem {
			jobs = append(jobs, vjob{g, rm})
		}
	}
	workers := groups[0].Options.FlushWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	span := o.tr.Begin(trace.TrackSLS, "spec.validate")

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	jobCh := make(chan vjob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				jspan := o.tr.Begin(trace.TrackFlush, "spec.validate.obj")
				confirmed, installed, err := o.validateObject(j.g, j.rm)
				jspan.End(trace.S("group", j.g.Name), trace.I("oid", int64(j.rm.oid)),
					trace.I("confirmed", confirmed), trace.I("installed", installed))
				if err != nil && !errors.Is(err, ErrSpeculation) {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	span.End(trace.I("groups", int64(len(groups))), trace.I("objects", int64(len(jobs))),
		trace.I("workers", int64(workers)))
	if firstErr != nil {
		return nil, nil, firstErr
	}

	outG := make([]*Group, len(groups))
	outSt := make([]RestoreStats, len(groups))
	var retErr error
	for i, g := range groups {
		pages, validated := g.SpecCounts()
		st := RestoreStats{
			Mode:            RestoreSpeculative,
			Epoch:           g.Epoch(),
			Time:            sw.Elapsed(),
			PagesSpeculated: pages,
			PagesValidated:  validated,
		}
		if _, _, bad := g.SpecMismatch(); !bad {
			g.specMu.Lock()
			g.specState = SpecValidated
			g.specMu.Unlock()
			if fl := o.Store.Flight(); fl != nil {
				fl.Record(int64(o.Clk.Now()), flight.EvSpecValidated,
					int64(g.oid), validated, pages, g.Name)
			}
			o.reg.Counter("sls.spec.validated_pages").Add(validated)
			outG[i], outSt[i] = g, st
			continue
		}
		g2, rst, err := o.rollbackSpeculation(g)
		rst.PagesSpeculated = pages
		rst.PagesValidated = validated
		outG[i], outSt[i] = g2, rst
		if err != nil && retErr == nil {
			retErr = err
		}
	}
	return outG, outSt, retErr
}

// rollbackSpeculation discards a speculative husk whose validation failed
// and replaces it with a serial (eager, verified) restore from the same
// image. The rollback leaves two forensic trails: a restore.rollback
// flight event, and — when restoring a live store — a persistent
// SpecRecord breadcrumb committed with the next checkpoint.
func (o *Orchestrator) rollbackSpeculation(g *Group) (*Group, RestoreStats, error) {
	name, src, cont := g.Name, g.specSrc, g.specContinuing
	badOID, badPg, _ := g.SpecMismatch()
	pages, validated := g.SpecCounts()
	span := o.tr.Begin(trace.TrackSLS, "spec.rollback")
	if fl := o.Store.Flight(); fl != nil {
		fl.Record(int64(o.Clk.Now()), flight.EvSpecRollback, int64(g.oid), int64(badOID), badPg, name)
	}
	o.reg.Counter("sls.spec.rollbacks").Add(1)
	if st, ok := src.(*objstore.Store); ok && cont {
		crumb := SpecRecord{
			Group:     name,
			Epoch:     st.Epoch(),
			Pages:     pages,
			Validated: validated,
			BadOID:    badOID,
			BadPage:   badPg,
		}
		// Best-effort: the breadcrumb must never turn a recoverable
		// rollback into a failed restore.
		_ = st.PutRecord(st.NewOID(), UTSpecRecord, encodeSpecRecord(crumb))
	}

	// Tear down the husk the way Suspend does, minus the checkpoint — the
	// speculative state is exactly what we must NOT persist.
	g.specMu.Lock()
	g.specState = SpecRolledBack
	g.specMu.Unlock()
	for _, p := range g.Procs() {
		p.Exit(0)
	}
	o.Forget(g)

	g2, rst, err := o.RestoreGroup(name, src, RestoreFull, cont)
	rst.Rollbacks = 1
	span.End(trace.S("group", name), trace.I("oid", int64(badOID)), trace.I("page", badPg),
		trace.I("ok", boolInt(err == nil)))
	return g2, rst, err
}

// RestoreGroups restores several groups from one image. The kernel-object
// rebuild of each group runs serially (it is BKL-style work by design);
// under RestoreSpeculative the heavy phase — validation and pre-touch of
// every page — then fans out across one shared worker pool, so
// multi-group restores scale the way the flush pipeline does. Stats are
// returned per group, index-aligned with names.
func (o *Orchestrator) RestoreGroups(names []string, src Source, mode RestoreMode, continuing bool) ([]*Group, []RestoreStats, error) {
	outG := make([]*Group, len(names))
	outSt := make([]RestoreStats, len(names))
	for i, name := range names {
		g, st, err := o.RestoreGroup(name, src, mode, continuing)
		if err != nil {
			return nil, nil, fmt.Errorf("sls: restore group %q: %w", name, err)
		}
		outG[i], outSt[i] = g, st
	}
	if mode != RestoreSpeculative {
		return outG, outSt, nil
	}
	gs, sts, err := o.finishSpeculation(outG)
	if err != nil {
		return outG, outSt, err
	}
	for i := range gs {
		// Keep the metadata-phase breakdown (time-to-first-op, procs,
		// objects) from the restore; fold in the validation outcome.
		outG[i] = gs[i]
		outSt[i].PagesSpeculated = sts[i].PagesSpeculated
		outSt[i].PagesValidated = sts[i].PagesValidated
		outSt[i].Rollbacks = sts[i].Rollbacks
		outSt[i].Time += sts[i].Time
	}
	return outG, outSt, nil
}

// SpecRecord is the persistent breadcrumb of one speculation rollback —
// enough for post-mortem forensics (`sls inspect`, the audit battery) to
// reconstruct what was speculated and where trust broke.
type SpecRecord struct {
	Group     string         `json:"group"`
	Epoch     objstore.Epoch `json:"epoch"`
	Pages     int64          `json:"pages_speculated"`
	Validated int64          `json:"pages_validated"`
	BadOID    objstore.OID   `json:"bad_oid"`
	BadPage   int64          `json:"bad_page"`
}

// specRecordVersion guards the breadcrumb's wire format.
const specRecordVersion = 1

// encodeSpecRecord serializes the breadcrumb (sealed with a CRC like
// every other record).
func encodeSpecRecord(r SpecRecord) []byte {
	e := rec.NewEncoder()
	e.U8(specRecordVersion)
	e.Str(r.Group)
	e.U64(uint64(r.Epoch))
	e.I64(r.Pages)
	e.I64(r.Validated)
	e.U64(uint64(r.BadOID))
	e.I64(r.BadPage)
	return e.Seal()
}

// DecodeSpecRecord parses a rollback breadcrumb. It must survive
// arbitrary bytes (the store only guarantees the seal, not the shape) —
// FuzzSpecRecord holds it to that.
func DecodeSpecRecord(raw []byte) (SpecRecord, error) {
	var r SpecRecord
	d, err := rec.NewDecoder(raw)
	if err != nil {
		return r, err
	}
	if v := d.U8(); d.Err() == nil && v != specRecordVersion {
		return r, fmt.Errorf("sls: spec record version %d (want %d)", v, specRecordVersion)
	}
	r.Group = d.Str()
	r.Epoch = objstore.Epoch(d.U64())
	r.Pages = d.I64()
	r.Validated = d.I64()
	r.BadOID = objstore.OID(d.U64())
	r.BadPage = d.I64()
	if err := d.Err(); err != nil {
		return SpecRecord{}, err
	}
	return r, nil
}

// SpecRollbackRecords lists every persisted rollback breadcrumb in the
// store, in OID order. Undecodable records are skipped: breadcrumbs are
// forensics, not load-bearing state.
func (o *Orchestrator) SpecRollbackRecords() []SpecRecord {
	var out []SpecRecord
	for _, oid := range o.Store.Objects() {
		ut, err := o.Store.UType(oid)
		if err != nil || ut != UTSpecRecord {
			continue
		}
		raw, err := o.Store.GetRecord(oid)
		if err != nil {
			continue
		}
		r, err := DecodeSpecRecord(raw)
		if err != nil {
			continue
		}
		out = append(out, r)
	}
	return out
}
