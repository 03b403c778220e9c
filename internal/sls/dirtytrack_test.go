package sls

import (
	"bytes"
	"sort"
	"testing"

	"aurora/internal/kern"
	"aurora/internal/objstore"
)

// dirtyFixture is one process holding every dirty-tracked object kind: a
// vnode description, a pipe, an in-group UNIX socket pair (plus its
// listener), a TCP listener, a kqueue, and a pty.
type dirtyFixture struct {
	p                  *kern.Proc
	g                  *Group
	file               int
	pipeR, pipeW       int
	unixL, unixA, unix int // listener, accepted end, connecting end
	tcp                int
	kq                 int
	ptyM, ptyS         int
}

func newDirtyFixture(t *testing.T, w *world) *dirtyFixture {
	t.Helper()
	f := &dirtyFixture{p: w.k.NewProc("app"), g: w.o.CreateGroup("app")}
	if err := f.g.Attach(f.p); err != nil {
		t.Fatal(err)
	}
	p := f.p
	must := func(fd int, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}
	f.file = must(p.Open("/data", kern.ORead|kern.OWrite, true))
	must(p.Write(f.file, []byte("hello dirty tracking")))
	var err error
	if f.pipeR, f.pipeW, err = p.Pipe(); err != nil {
		t.Fatal(err)
	}
	must(p.Write(f.pipeW, []byte("piped")))
	f.unixL = must(p.Socket(kern.KindSocketUnix))
	if err := p.Bind(f.unixL, "/run/app.sock"); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(f.unixL); err != nil {
		t.Fatal(err)
	}
	f.unix = must(p.Socket(kern.KindSocketUnix))
	if err := p.Connect(f.unix, "/run/app.sock"); err != nil {
		t.Fatal(err)
	}
	f.unixA = must(p.Accept(f.unixL))
	f.tcp = must(p.Socket(kern.KindSocketTCP))
	f.kq = must(p.Kqueue())
	if err := p.KeventAdd(f.kq, kern.Kevent{Ident: 1, Filter: kern.FilterUser}); err != nil {
		t.Fatal(err)
	}
	if f.ptyM, f.ptyS, err = p.OpenPTY(); err != nil {
		t.Fatal(err)
	}
	must(p.Write(f.ptyM, []byte("tty")))
	return f
}

// trackedReachable enumerates, independently of the serializer, every
// dirty-tracked object reachable from the group's descriptor tables:
// descriptions, the objects behind them, in-group socket peers, and
// descriptors in flight inside socket buffers.
func trackedReachable(g *Group) int {
	seen := make(map[any]bool)
	var visitFile func(f *kern.File)
	var visitSocket func(s *kern.Socket)
	visitSocket = func(s *kern.Socket) {
		if seen[s] {
			return
		}
		seen[s] = true
		if peer := s.Peer(); peer != nil && peer.OwnerGroup == g.ID {
			visitSocket(peer)
		}
		for _, f := range s.InFlightFiles() {
			visitFile(f)
		}
	}
	visitFile = func(f *kern.File) {
		if seen[f] {
			return
		}
		seen[f] = true
		if pipe, _, ok := kern.PipeInfo(f); ok {
			seen[pipe] = true
		}
		if s, ok := kern.SocketOf(f); ok {
			visitSocket(s)
		}
		if kq, ok := kern.KqueueOf(f); ok {
			seen[kq] = true
		}
		if pty, _, ok := kern.PTYInfo(f); ok {
			seen[pty] = true
		}
	}
	for _, p := range g.Procs() {
		p.FDs.Each(func(_ int, f *kern.File) { visitFile(f) })
	}
	return len(seen)
}

// liveRecords encodes every tracked object the group's last checkpoint
// recorded, by OID — what the image must restore to.
func liveRecords(g *Group) map[objstore.OID][]byte {
	out := make(map[objstore.OID][]byte, len(g.recorded))
	for oid, r := range g.recorded {
		_, out[oid] = g.recordOf(r.obj)
	}
	return out
}

// restoredRecords encodes every tracked object a restore rebuilt, by the
// OID it was restored from.
func restoredRecords(g *Group) map[objstore.OID][]byte {
	out := make(map[objstore.OID][]byte)
	for key, oid := range g.oidOf {
		if obj, ok := key.(tracked); ok {
			_, out[oid] = g.recordOf(obj)
		}
	}
	return out
}

func sameRecords(t *testing.T, mode string, live, restored map[objstore.OID][]byte) {
	t.Helper()
	oids := make([]objstore.OID, 0, len(live))
	for oid := range live {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		got, ok := restored[oid]
		if !ok {
			t.Errorf("%s restore: object %d missing", mode, oid)
			continue
		}
		if !bytes.Equal(got, live[oid]) {
			t.Errorf("%s restore: object %d differs from the live one:\n live     %x\n restored %x", mode, oid, live[oid], got)
		}
	}
	if len(restored) != len(live) {
		t.Errorf("%s restore rebuilt %d tracked objects, live group has %d", mode, len(restored), len(live))
	}
}

// TestDirtyTrackingMutators drives every mutator of a dirty-tracked kernel
// object once: mutate, checkpoint, crash, then restore both serially and
// speculatively and require every restored object to equal the live one.
// A mutator that forgot its generation bump would leave the checkpoint
// keeping the stale record, and the restored object would differ. A second
// checkpoint with no mutation must then find every tracked object clean.
func TestDirtyTrackingMutators(t *testing.T) {
	buf := make([]byte, 64)
	rows := []struct {
		name   string
		mutate func(t *testing.T, f *dirtyFixture) error
	}{
		{"lseek", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Lseek(f.file, 3)
			return err
		}},
		{"vnode write advances offset", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Write(f.file, []byte("more"))
			return err
		}},
		{"vnode read advances offset", func(t *testing.T, f *dirtyFixture) error {
			if _, err := f.p.Lseek(f.file, 0); err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			_, err := f.p.Read(f.file, buf[:5])
			return err
		}},
		{"fcntl flags", func(t *testing.T, f *dirtyFixture) error {
			return f.p.SetFlags(f.pipeR, kern.ORead|kern.ONonblock)
		}},
		{"socket send and seq", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Write(f.unix, []byte("ping"))
			return err
		}},
		{"socket recv", func(t *testing.T, f *dirtyFixture) error {
			if _, err := f.p.Write(f.unix, []byte("ping")); err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			_, err := f.p.Read(f.unixA, buf)
			return err
		}},
		{"bind", func(t *testing.T, f *dirtyFixture) error {
			return f.p.Bind(f.tcp, "10.0.0.1:80")
		}},
		{"listen", func(t *testing.T, f *dirtyFixture) error {
			if err := f.p.Bind(f.tcp, "10.0.0.1:80"); err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			return f.p.Listen(f.tcp)
		}},
		{"connect", func(t *testing.T, f *dirtyFixture) error {
			fd, err := f.p.Socket(kern.KindSocketUnix)
			if err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			return f.p.Connect(fd, "/run/app.sock")
		}},
		{"accept", func(t *testing.T, f *dirtyFixture) error {
			fd, err := f.p.Socket(kern.KindSocketUnix)
			if err != nil {
				return err
			}
			if err := f.p.Connect(fd, "/run/app.sock"); err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			_, err = f.p.Accept(f.unixL)
			return err
		}},
		{"setsockopt", func(t *testing.T, f *dirtyFixture) error {
			return f.p.SetSockOpt(f.unixA, 0x5a5a)
		}},
		{"sls_fdctl disables ES", func(t *testing.T, f *dirtyFixture) error {
			return f.g.FdCtl(f.p, f.unix, true)
		}},
		{"pipe write", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Write(f.pipeW, []byte("more"))
			return err
		}},
		{"pipe read", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Read(f.pipeR, buf[:2])
			return err
		}},
		{"pipe dup and close drop a refcount", func(t *testing.T, f *dirtyFixture) error {
			dup, err := f.p.Dup(f.pipeW)
			if err != nil {
				return err
			}
			if err := f.p.Close(f.pipeW); err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			return f.p.Close(dup) // last write-end reference
		}},
		{"kevent add", func(t *testing.T, f *dirtyFixture) error {
			return f.p.KeventAdd(f.kq, kern.Kevent{Ident: 2, Filter: kern.FilterRead, UData: 9})
		}},
		{"kevent delete", func(t *testing.T, f *dirtyFixture) error {
			return f.p.KeventDelete(f.kq, 1, kern.FilterUser)
		}},
		{"pty write", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Write(f.ptyS, []byte("echo"))
			return err
		}},
		{"pty read", func(t *testing.T, f *dirtyFixture) error {
			_, err := f.p.Read(f.ptyS, buf[:2])
			return err
		}},
		{"termios", func(t *testing.T, f *dirtyFixture) error {
			var tio [64]byte
			tio[0], tio[63] = 0x1b, 0x7f
			return f.p.SetTermios(f.ptyM, tio)
		}},
		{"peer close", func(t *testing.T, f *dirtyFixture) error {
			return f.p.Close(f.unixA)
		}},
		{"SCM_RIGHTS send puts a file in flight", func(t *testing.T, f *dirtyFixture) error {
			return f.p.SendFDs(f.unix, []byte("fd"), []int{f.file})
		}},
		{"SCM_RIGHTS receive installs the file", func(t *testing.T, f *dirtyFixture) error {
			if err := f.p.SendFDs(f.unix, []byte("fd"), []int{f.file}); err != nil {
				return err
			}
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				return err
			}
			_, _, err := f.p.RecvFDs(f.unixA, buf)
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newWorld(t)
			f := newDirtyFixture(t, w)
			if _, err := f.g.Checkpoint(CkptIncremental); err != nil {
				t.Fatal(err)
			}
			if err := row.mutate(t, f); err != nil {
				t.Fatal(err)
			}
			st, err := f.g.Checkpoint(CkptIncremental)
			if err != nil {
				t.Fatal(err)
			}
			if total := trackedReachable(f.g); st.CleanObjects >= total {
				t.Errorf("mutation left all %d tracked objects clean", total)
			}
			live := liveRecords(f.g)

			for _, mode := range []RestoreMode{RestoreFull, RestoreSpeculative} {
				w2 := w.crash(t)
				g2, _, err := w2.o.RestoreGroup("app", w2.store, mode, true)
				if err != nil {
					t.Fatal(err)
				}
				if mode == RestoreSpeculative {
					if g2, _, err = w2.o.FinishSpeculation(g2); err != nil {
						t.Fatal(err)
					}
				}
				name := "serial"
				if mode == RestoreSpeculative {
					name = "speculative"
				}
				sameRecords(t, name, live, restoredRecords(g2))
			}

			idle, err := f.g.Checkpoint(CkptIncremental)
			if err != nil {
				t.Fatal(err)
			}
			if want := trackedReachable(f.g); idle.CleanObjects != want {
				t.Fatalf("idle checkpoint: %d clean objects, want all %d tracked objects", idle.CleanObjects, want)
			}
		})
	}
}
