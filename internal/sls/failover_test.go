package sls

// Failover correctness edges: the bugfix sweep behind the fleet work. A
// coordinator promotes standbys programmatically, with no operator in the
// loop to notice a half-shipped delta or a dying standby — so these paths
// must be airtight: failover mid-ship restores strictly the last committed
// base and retires the pending session, a standby dying mid-restore leaves
// no wedged group behind, a second failover is a clean error, and migrating
// into a dead machine leaves the source group fully alive.

import (
	"errors"
	"testing"
	"time"

	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// TestFailoverMidShipRestoresCommittedBase is the regression test for the
// Replica.Failover pending-ship bug: fail over while a ship is stuck
// mid-transfer on a lossy wire. The standby must come up at the last
// COMMITTED epoch, the pending session must be dead on both ends, and no
// later Sync/Resume may land the dead primary's delta on the promoted
// standby.
func TestFailoverMidShipRestoresCommittedBase(t *testing.T) {
	src, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	app, err := startReplApp(src)
	if err != nil {
		t.Fatal(err)
	}
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), net.Plan{}, net.Plan{}),
		src.clk, replConfig())

	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.write(3, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := app.append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}

	// Snapshot the model at the committed base: this is everything the
	// standby is allowed to know.
	committedModel := make(map[int64]byte, len(app.model))
	for k, v := range app.model {
		committedModel[k] = v
	}
	committedJour := append([][]byte(nil), app.jour...)
	committedBase := rep.Base()

	// Dirty more state, then cut the wire so the ship dies mid-transfer.
	if err := app.write(3, 0xBB); err != nil {
		t.Fatal(err)
	}
	if err := app.write(9, 0xCC); err != nil {
		t.Fatal(err)
	}
	if err := app.append([]byte("never-shipped")); err != nil {
		t.Fatal(err)
	}
	conn.Pipe().Cut(time.Hour)
	err = rep.Sync()
	if !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("sync over cut wire: err = %v, want retries exhausted", err)
	}
	if !rep.Pending() {
		t.Fatal("failed sync left nothing pending")
	}
	pendingEpoch := uint64(app.g.Epoch())

	// Heal the wire BEFORE failing over: the hazard is precisely that a
	// healed wire lets the pending transfer complete later.
	src.clk.Advance(2 * time.Hour)

	g2, _, err := rep.Failover(RestoreFull)
	if err != nil {
		t.Fatalf("failover with pending ship: %v", err)
	}
	if rep.Pending() {
		t.Fatal("failover kept the pending ship")
	}
	if !rep.FailedOver() {
		t.Fatal("failover did not retire the replica")
	}
	if rep.Base() != committedBase {
		t.Fatalf("failover moved the base: %d, committed was %d", rep.Base(), committedBase)
	}
	if _, _, ok := conn.SessionProgress(pendingEpoch); ok {
		t.Fatalf("receiver still holds a session for pending epoch %d", pendingEpoch)
	}

	readImage := func(g *Group) *replImage {
		t.Helper()
		img := &replImage{mem: make([]byte, workloadPages*vm.PageSize)}
		if err := g.Procs()[0].ReadMem(app.va, img.mem); err != nil {
			t.Fatal(err)
		}
		j, err := g.OpenJournal("wal")
		if err != nil {
			t.Fatal(err)
		}
		ents, err := j.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			img.jour = append(img.jour, append([]byte(nil), e.Payload...))
		}
		return img
	}
	img := readImage(g2)
	if err := img.checkModel(committedModel, committedJour); err != nil {
		t.Fatalf("promoted standby is not the committed base: %v", err)
	}
	if img.mem[3*vm.PageSize] != 0xAA {
		t.Fatalf("page 3 = %#x, want committed 0xAA (0xBB would be the uncommitted delta)", img.mem[3*vm.PageSize])
	}

	// The replica is retired: every later operation is a clean error and
	// the promoted standby's state does not move.
	if err := rep.Resume(); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("resume after failover: err = %v, want ErrFailedOver", err)
	}
	if err := rep.Sync(); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("sync after failover: err = %v, want ErrFailedOver", err)
	}
	if _, _, err := rep.Failover(RestoreFull); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("double failover: err = %v, want ErrFailedOver", err)
	}
	if after := readImage(g2); after.mem[3*vm.PageSize] != 0xAA {
		t.Fatalf("post-failover operations moved standby state: page 3 = %#x", after.mem[3*vm.PageSize])
	}
}

// TestDoubleFailoverCleanError: promoting the same standby twice must fail
// cleanly — a second RestoreGroup would stack a duplicate live group under
// the same name.
func TestDoubleFailoverCleanError(t *testing.T) {
	src, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	app, err := startReplApp(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.write(0, 0x11); err != nil {
		t.Fatal(err)
	}
	rep, err := app.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.Failover(RestoreFull); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.Failover(RestoreFull); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("double failover: err = %v, want ErrFailedOver", err)
	}
	// Exactly one live group of that name on the standby.
	live := 0
	for _, g := range dst.o.Groups() {
		if g.Name == "app" {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("standby has %d live groups named app, want 1", live)
	}
}

// failingSource wraps a restore Source and dies after a fixed number of
// record reads — the standby's own device going away mid-restore.
type failingSource struct {
	src   Source
	after int
	reads int
}

var errSourceDied = errors.New("standby device died mid-restore")

func (f *failingSource) GetRecord(oid objstore.OID) ([]byte, error) {
	f.reads++
	if f.reads > f.after {
		return nil, errSourceDied
	}
	return f.src.GetRecord(oid)
}
func (f *failingSource) ReadPage(oid objstore.OID, pg int64, buf []byte) (bool, error) {
	return f.src.ReadPage(oid, pg, buf)
}
func (f *failingSource) HasPage(oid objstore.OID, pg int64) (bool, error) {
	return f.src.HasPage(oid, pg)
}
func (f *failingSource) Size(oid objstore.OID) (int64, error) { return f.src.Size(oid) }
func (f *failingSource) Exists(oid objstore.OID) bool         { return f.src.Exists(oid) }

// TestFailoverStandbyDiesMidRestore: a restore that dies partway must not
// wedge the group name — the half-built group is torn down, and a retry
// against the healthy store succeeds with full fidelity.
func TestFailoverStandbyDiesMidRestore(t *testing.T) {
	src, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	app, err := startReplApp(src)
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.append([]byte("entry-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := app.g.ReplicateTo(dst.o); err != nil {
		t.Fatal(err)
	}

	// Die at every record-read depth the restore has: each index fails a
	// different stage (manifest walk, group record, proc, file, ...).
	for after := 1; ; after++ {
		fs := &failingSource{src: dst.store, after: after}
		g, _, err := dst.o.RestoreGroup("app", fs, RestoreFull, true)
		if err == nil {
			// Deep enough that the whole restore went through: the sweep
			// is done. This last restore is live; drop it for the retry
			// check below.
			for _, p := range g.Procs() {
				p.Exit(0)
			}
			dst.o.Forget(g)
			if after == 1 {
				t.Fatal("failingSource never fired")
			}
			break
		}
		if !errors.Is(err, errSourceDied) {
			t.Fatalf("after=%d: err = %v, want the injected source death", after, err)
		}
		if g != nil {
			t.Fatalf("after=%d: failed restore returned a non-nil group", after)
		}
		if _, ok := dst.o.GroupByName("app"); ok {
			t.Fatalf("after=%d: failed restore left a wedged group registered", after)
		}
	}

	// The retry against the healthy store restores the full image.
	g2, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true)
	if err != nil {
		t.Fatalf("retry after mid-restore deaths: %v", err)
	}
	buf := make([]byte, 1)
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := g2.Procs()[0].ReadMem(app.va+uint64(pg)*vm.PageSize, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(1+pg) {
			t.Fatalf("page %d = %#x after retry, want %#x", pg, buf[0], byte(1+pg))
		}
	}
}

// TestMigrateToDeadMachine: a migration whose wire is dead must return a
// clean error and leave the source group fully operational — checkpointing,
// writable, and still migratable once a live destination appears.
func TestMigrateToDeadMachine(t *testing.T) {
	src, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	app, err := startReplApp(src)
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 4; pg++ {
		if err := app.write(pg, byte(0x21+pg)); err != nil {
			t.Fatal(err)
		}
	}

	// The destination is dead: every transmission vanishes for an hour.
	cfg := net.Config{Window: 4, FrameData: 4 << 10, MaxRetries: 3}
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(),
		net.Plan{Partitions: []net.Partition{{From: 0, Until: time.Hour}}}, net.Plan{}),
		src.clk, cfg)
	work := func() error { return app.write(1, 0x77) }
	if _, _, err := app.g.MigrateVia(dst.o, 2, work, conn); !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("migrate to dead machine: err = %v, want retries exhausted", err)
	}

	// The source group survived: still registered, writable, checkpointable.
	if _, ok := src.o.GroupByName("app"); !ok {
		t.Fatal("failed migrate unregistered the source group")
	}
	if len(app.g.Procs()) != 1 {
		t.Fatalf("failed migrate exited source procs: %d left", len(app.g.Procs()))
	}
	if err := app.write(2, 0x99); err != nil {
		t.Fatalf("source group not writable after failed migrate: %v", err)
	}
	if _, err := app.g.Checkpoint(CkptIncremental); err != nil {
		t.Fatalf("source group not checkpointable after failed migrate: %v", err)
	}

	// Once the partition lifts, the same group migrates cleanly.
	src.clk.Advance(2 * time.Hour)
	g2, st, err := app.g.MigrateVia(dst.o, 2, work, conn)
	if err != nil {
		t.Fatalf("migrate after heal: %v", err)
	}
	if st.Rounds < 2 {
		t.Fatalf("healed migrate rounds = %d, want >= 2", st.Rounds)
	}
	buf := make([]byte, 1)
	if err := g2.Procs()[0].ReadMem(app.va+2*vm.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x99 {
		t.Fatalf("migrated page 2 = %#x, want 0x99", buf[0])
	}
	if _, ok := src.o.GroupByName("app"); ok {
		t.Fatal("completed migrate left the group registered on the source")
	}
}
