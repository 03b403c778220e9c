package kern

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ObjKind tags the kind of kernel object behind a descriptor; it doubles as
// the user-type tag of the corresponding on-disk object.
type ObjKind uint16

// Kernel object kinds.
const (
	KindVnode ObjKind = 0x10 + iota
	KindPipe
	KindSocketUnix
	KindSocketUDP
	KindSocketTCP
	KindShm
	KindKqueue
	KindPTY
	KindDevice
)

func (k ObjKind) String() string {
	switch k {
	case KindVnode:
		return "vnode"
	case KindPipe:
		return "pipe"
	case KindSocketUnix:
		return "unix-socket"
	case KindSocketUDP:
		return "udp-socket"
	case KindSocketTCP:
		return "tcp-socket"
	case KindShm:
		return "shm"
	case KindKqueue:
		return "kqueue"
	case KindPTY:
		return "pty"
	case KindDevice:
		return "device"
	default:
		return fmt.Sprintf("ObjKind(%#x)", uint16(k))
	}
}

// File flags.
const (
	ORead = 1 << iota
	OWrite
	ONonblock
	OAppend
)

// objGen is a checkpointable object's generation word. Every mutation of
// state the object's checkpoint record captures bumps it — under the
// object's lock, or the kernel lock for objects that have none — so the
// checkpoint can tell an object whose last record is still valid from a
// dirty one by one load, without re-encoding it. The word is atomic
// because its readers (the checkpoint, the auditor) do not take the
// mutating object's lock.
type objGen struct{ n atomic.Uint64 }

func (g *objGen) bump() { g.n.Add(1) }

// Gen returns the object's current generation.
func (g *objGen) Gen() uint64 { return g.n.Load() }

// FileImpl is the object behind an open-file description.
type FileImpl interface {
	Kind() ObjKind
	// Read/Write operate at f.Offset where meaningful (vnodes); stream
	// objects ignore it.
	Read(f *File, p []byte) (int, error)
	Write(f *File, p []byte) (int, error)
	// CloseLast runs when the last descriptor reference drops.
	CloseLast()
}

// File is an open-file description: the object fork and dup share, carrying
// the offset and flags. Two processes with the same File see each other's
// offset changes; two Files over the same vnode do not (§5.1's example).
//
// Offset and Flags are read freely but written only through the kernel
// (Lseek, SetFlags, the read/write paths), which keeps the generation in
// step with them.
type File struct {
	objGen
	mu     sync.Mutex
	refs   int32
	Offset int64
	Flags  int
	Impl   FileImpl
}

// NewFile wraps an implementation in a description with one reference.
func NewFile(impl FileImpl, flags int) *File {
	return &File{refs: 1, Flags: flags, Impl: impl}
}

// Ref takes a descriptor reference.
func (f *File) Ref() {
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
}

// Unref drops a reference, closing the implementation on the last one.
func (f *File) Unref() {
	f.mu.Lock()
	f.refs--
	last := f.refs == 0
	f.mu.Unlock()
	if last {
		f.Impl.CloseLast()
	}
}

// setFlags replaces the status flags (fcntl F_SETFL).
func (f *File) setFlags(flags int) {
	f.mu.Lock()
	f.Flags = flags
	f.bump()
	f.mu.Unlock()
}

// setOffset moves the file offset. Callers hold the kernel lock; the
// description lock orders the offset write with its generation bump.
func (f *File) setOffset(off int64) {
	f.mu.Lock()
	f.Offset = off
	f.bump()
	f.mu.Unlock()
}

// Refs returns the current reference count (diagnostics and checkpointing).
func (f *File) Refs() int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refs
}

// FDTable maps small integers to open-file descriptions.
type FDTable struct {
	mu    sync.Mutex
	slots []*File
}

// NewFDTable returns an empty table.
func NewFDTable() *FDTable { return &FDTable{} }

// Install places a description in the lowest free slot.
func (t *FDTable) Install(f *File) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.slots {
		if s == nil {
			t.slots[i] = f
			return i
		}
	}
	t.slots = append(t.slots, f)
	return len(t.slots) - 1
}

// InstallAt places a description at a specific slot (restore path),
// growing the table as needed. Any existing description is replaced
// without closing (restore builds fresh tables).
func (t *FDTable) InstallAt(fd int, f *File) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.slots) <= fd {
		t.slots = append(t.slots, nil)
	}
	t.slots[fd] = f
}

// Get resolves a descriptor.
func (t *FDTable) Get(fd int) (*File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd < 0 || fd >= len(t.slots) || t.slots[fd] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return t.slots[fd], nil
}

// Close removes a descriptor, dropping its reference.
func (t *FDTable) Close(fd int) error {
	t.mu.Lock()
	if fd < 0 || fd >= len(t.slots) || t.slots[fd] == nil {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	f := t.slots[fd]
	t.slots[fd] = nil
	t.mu.Unlock()
	f.Unref()
	return nil
}

// Dup duplicates a descriptor: both slots share the description (offset
// included).
func (t *FDTable) Dup(fd int) (int, error) {
	f, err := t.Get(fd)
	if err != nil {
		return -1, err
	}
	f.Ref()
	return t.Install(f), nil
}

// Clone copies the table for fork: every slot shares its description.
func (t *FDTable) Clone() *FDTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := &FDTable{slots: make([]*File, len(t.slots))}
	for i, f := range t.slots {
		if f != nil {
			f.Ref()
			nt.slots[i] = f
		}
	}
	return nt
}

// CloseAll drops every descriptor (process exit).
func (t *FDTable) CloseAll() {
	t.mu.Lock()
	slots := t.slots
	t.slots = nil
	t.mu.Unlock()
	for _, f := range slots {
		if f != nil {
			f.Unref()
		}
	}
}

// Each visits every open descriptor in slot order.
func (t *FDTable) Each(fn func(fd int, f *File)) {
	t.mu.Lock()
	slots := make([]*File, len(t.slots))
	copy(slots, t.slots)
	t.mu.Unlock()
	for i, f := range slots {
		if f != nil {
			fn(i, f)
		}
	}
}

// Len counts open descriptors.
func (t *FDTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, f := range t.slots {
		if f != nil {
			n++
		}
	}
	return n
}

// Descriptor-level syscalls on Proc.

// Close closes a descriptor.
func (p *Proc) Close(fd int) error {
	return p.k.syscall(func() error { return p.FDs.Close(fd) })
}

// Dup duplicates a descriptor sharing the description.
func (p *Proc) Dup(fd int) (int, error) {
	var nfd int
	err := p.k.syscall(func() error {
		var err error
		nfd, err = p.FDs.Dup(fd)
		return err
	})
	return nfd, err
}

// Read reads from a descriptor.
func (p *Proc) Read(fd int, buf []byte) (int, error) {
	var n int
	err := p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		n, err = f.Impl.Read(f, buf)
		return err
	})
	return n, err
}

// Write writes to a descriptor.
func (p *Proc) Write(fd int, buf []byte) (int, error) {
	var n int
	err := p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		n, err = f.Impl.Write(f, buf)
		return err
	})
	return n, err
}

// Lseek sets the descriptor offset.
func (p *Proc) Lseek(fd int, off int64) (int64, error) {
	var out int64
	err := p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		f.setOffset(off)
		out = off
		return nil
	})
	return out, err
}

// SetFlags replaces a descriptor's status flags — fcntl(F_SETFL). Every
// descriptor sharing the description sees the change.
func (p *Proc) SetFlags(fd int, flags int) error {
	return p.k.syscall(func() error {
		f, err := p.FDs.Get(fd)
		if err != nil {
			return err
		}
		f.setFlags(flags)
		return nil
	})
}
