// Package mem implements the simulated physical memory layer.
//
// Go's runtime owns the real address space, so "physical memory" in this
// reproduction is explicit: a Page is a 4 KiB frame with the per-page state
// the Aurora mechanisms depend on (dirty and referenced bits, a wired count,
// and queue membership for the paging policy). All application data lives in
// frames allocated from a PhysMem, and is only reached through the simulated
// MMU in internal/vm — that is what makes dirty-set tracking meaningful.
package mem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the frame size, matching the x86-64 base page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// ErrNoMemory is returned when PhysMem cannot satisfy an allocation.
var ErrNoMemory = errors.New("mem: out of physical memory")

// Queue identifies which paging queue a frame is on.
type Queue uint8

// Paging queues, mirroring the FreeBSD page daemon's structure.
const (
	QueueNone     Queue = iota // not on any queue (wired or transient)
	QueueActive                // recently referenced
	QueueInactive              // eviction candidates, possibly dirty
	QueueLaundry               // dirty pages awaiting writeback
)

func (q Queue) String() string {
	switch q {
	case QueueNone:
		return "none"
	case QueueActive:
		return "active"
	case QueueInactive:
		return "inactive"
	case QueueLaundry:
		return "laundry"
	default:
		return fmt.Sprintf("Queue(%d)", uint8(q))
	}
}

// Page is one physical frame. A Page is owned by at most one VM object at a
// time; the owning object's lock serializes access to the mutable fields, so
// Page itself carries no lock.
type Page struct {
	Data []byte // always PageSize long

	// Dirty is set when the frame is modified through the MMU and cleared
	// when the frame is written to stable storage.
	Dirty bool
	// Referenced is set on access and cleared by the page daemon's scan.
	Referenced bool
	// Wired counts reasons the frame must stay resident (e.g. an in-flight
	// checkpoint flush).
	Wired int
	// Clean pages already captured by a checkpoint can be reclaimed
	// without IO; Backed records the on-store location is valid.
	Backed bool

	queue Queue
	// gen counts events that may leave a translation of this frame stale:
	// a copy-on-write fault copying it up into a shadow (the copy hides it
	// from every view through that shadow), and a Free (the frame may be
	// reused for other data). Page tables record it at install time.
	gen atomic.Uint64
}

// Queue reports which paging queue the page occupies.
func (p *Page) Queue() Queue { return p.queue }

// Gen returns the frame's generation.
func (p *Page) Gen() uint64 { return p.gen.Load() }

// Supersede bumps the frame's generation: translations installed before
// the call no longer vouch for it and must be revalidated before use.
func (p *Page) Supersede() { p.gen.Add(1) }

// Copy copies src's contents into p and marks p dirty.
func (p *Page) Copy(src *Page) {
	copy(p.Data, src.Data)
	p.Dirty = true
	p.Backed = false
}

// Zero clears the frame contents.
func (p *Page) Zero() {
	for i := range p.Data {
		p.Data[i] = 0
	}
}

// Stats summarizes a PhysMem's occupancy.
type Stats struct {
	TotalPages    int64
	FreePages     int64
	ActivePages   int64
	InactivePages int64
	LaundryPages  int64
	WiredPages    int64
}

// PhysMem is the physical frame allocator. It enforces a capacity so the
// paging policy (memory overcommitment, §6) has real pressure to respond to.
type PhysMem struct {
	mu       sync.Mutex
	capacity int64 // max frames; 0 means unlimited
	used     int64
	free     []*Page // recycled frames

	queues map[Queue]map[*Page]struct{}
	wired  int64
}

// New returns a PhysMem with capacity totalBytes (rounded down to whole
// pages). A totalBytes of 0 means unlimited.
func New(totalBytes int64) *PhysMem {
	pm := &PhysMem{
		capacity: totalBytes / PageSize,
		queues: map[Queue]map[*Page]struct{}{
			QueueActive:   make(map[*Page]struct{}),
			QueueInactive: make(map[*Page]struct{}),
			QueueLaundry:  make(map[*Page]struct{}),
		},
	}
	return pm
}

// Alloc returns a zeroed frame, or ErrNoMemory when at capacity.
func (pm *PhysMem) Alloc() (*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.capacity > 0 && pm.used >= pm.capacity {
		return nil, ErrNoMemory
	}
	pm.used++
	if n := len(pm.free); n > 0 {
		p := pm.free[n-1]
		pm.free = pm.free[:n-1]
		p.Zero()
		p.Dirty = false
		p.Referenced = false
		p.Wired = 0
		p.Backed = false
		p.queue = QueueNone
		return p, nil
	}
	return &Page{Data: make([]byte, PageSize)}, nil
}

// MustAlloc is Alloc for callers that treat exhaustion as a program error.
func (pm *PhysMem) MustAlloc() *Page {
	p, err := pm.Alloc()
	if err != nil {
		panic(err)
	}
	return p
}

// Free returns a frame to the allocator. The frame must not be on a queue.
func (pm *PhysMem) Free(p *Page) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if p.queue != QueueNone {
		delete(pm.queues[p.queue], p)
		p.queue = QueueNone
	}
	if p.Wired > 0 {
		pm.wired--
		p.Wired = 0
	}
	p.Supersede()
	pm.used--
	pm.free = append(pm.free, p)
}

// Enqueue moves a frame onto q (or off all queues for QueueNone).
func (pm *PhysMem) Enqueue(p *Page, q Queue) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if p.queue == q {
		return
	}
	if p.queue != QueueNone {
		delete(pm.queues[p.queue], p)
	}
	p.queue = q
	if q != QueueNone {
		pm.queues[q][p] = struct{}{}
	}
}

// Wire pins a frame in memory.
func (pm *PhysMem) Wire(p *Page) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if p.Wired == 0 {
		pm.wired++
		if p.queue != QueueNone {
			delete(pm.queues[p.queue], p)
			p.queue = QueueNone
		}
	}
	p.Wired++
}

// Unwire releases one pin. It panics if the frame is not wired.
func (pm *PhysMem) Unwire(p *Page) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if p.Wired <= 0 {
		panic("mem: unwire of unwired page")
	}
	p.Wired--
	if p.Wired == 0 {
		pm.wired--
	}
}

// ScanQueue returns up to max pages from queue q, preferring clean pages
// when preferClean is set. It is the page daemon's selection primitive.
func (pm *PhysMem) ScanQueue(q Queue, max int, preferClean bool) []*Page {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var clean, dirty []*Page
	for p := range pm.queues[q] {
		if p.Dirty {
			dirty = append(dirty, p)
		} else {
			clean = append(clean, p)
		}
		if len(clean) >= max && !preferClean {
			break
		}
		if len(clean)+len(dirty) >= 4*max {
			break
		}
	}
	out := clean
	if !preferClean {
		out = append(out, dirty...)
	} else if len(out) < max {
		out = append(out, dirty...)
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Pressure reports the fraction of capacity in use, in [0,1]. With no
// capacity limit it reports 0.
func (pm *PhysMem) Pressure() float64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.capacity == 0 {
		return 0
	}
	return float64(pm.used) / float64(pm.capacity)
}

// Stats returns an occupancy snapshot.
func (pm *PhysMem) Stats() Stats {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return Stats{
		TotalPages:    pm.capacity,
		FreePages:     pm.capacity - pm.used,
		ActivePages:   int64(len(pm.queues[QueueActive])),
		InactivePages: int64(len(pm.queues[QueueInactive])),
		LaundryPages:  int64(len(pm.queues[QueueLaundry])),
		WiredPages:    pm.wired,
	}
}

// Used reports the number of allocated frames.
func (pm *PhysMem) Used() int64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.used
}

// PagesFor returns how many frames span n bytes.
func PagesFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}
