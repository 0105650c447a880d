package mmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrOutOfMemory is returned when no physical frames are free.
var ErrOutOfMemory = errors.New("mmu: out of physical memory")

// ErrBadFrame is returned for operations on frames that were never
// allocated or are out of range.
var ErrBadFrame = errors.New("mmu: bad frame")

// PhysMem is the simulated physical memory: an array of frames with a
// free list. Frame contents are byte-addressable through Read/Write,
// which the machine uses after a successful translation.
type PhysMem struct {
	mu       sync.Mutex
	frames   [][]byte
	free     []uint64
	refcount []int // shared pages carry a reference count

	// nodes is each frame's home NUMA node, NoNode when untagged.
	// Atomic (not under mu) so the access hot path can consult a
	// frame's home without taking the physical-memory lock.
	nodes []atomic.Int32
}

// NoNode marks a frame with no home NUMA node: accesses to it are
// never charged as remote, whatever the machine topology.
const NoNode int32 = -1

// NewPhysMem builds a physical memory of nframes frames.
func NewPhysMem(nframes int) *PhysMem {
	p := &PhysMem{
		frames:   make([][]byte, nframes),
		free:     make([]uint64, 0, nframes),
		refcount: make([]int, nframes),
		nodes:    make([]atomic.Int32, nframes),
	}
	// Push frames so that low frame numbers are handed out first,
	// keeping experiment output stable across runs.
	for i := nframes - 1; i >= 0; i-- {
		p.free = append(p.free, uint64(i))
		p.nodes[i].Store(NoNode)
	}
	return p
}

// FreeFrames reports how many frames are currently unallocated.
//
//paralint:ignore deadexport mem's, shm's, core's and vmm's tests compare it before and after teardown: no leaked frames
func (p *PhysMem) FreeFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// AllocFrame takes a zeroed frame off the free list. The frame starts
// with a reference count of one.
func (p *PhysMem) AllocFrame() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return 0, ErrOutOfMemory
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.frames[f] = make([]byte, PageSize)
	p.refcount[f] = 1
	// A recycled frame must not inherit the previous owner's home
	// node: it starts untagged until a placement policy claims it.
	p.nodes[f].Store(NoNode)
	return f, nil
}

// SetFrameNode tags a live frame with its home NUMA node (first-touch
// or explicit placement). Tagging an out-of-range frame is an error;
// re-tagging moves the home, which only placement policies should do.
func (p *PhysMem) SetFrameNode(frame uint64, node int32) error {
	if frame >= uint64(len(p.frames)) {
		return fmt.Errorf("%w: %d", ErrBadFrame, frame)
	}
	p.nodes[frame].Store(node)
	return nil
}

// FrameNode reports a frame's home NUMA node, NoNode if untagged or
// out of range.
//
//paramecium:hotpath
func (p *PhysMem) FrameNode(frame uint64) int32 {
	if frame >= uint64(len(p.nodes)) {
		return NoNode
	}
	return p.nodes[frame].Load()
}

// Ref increments the reference count of a live frame (page sharing).
func (p *PhysMem) Ref(frame uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkLive(frame); err != nil {
		return err
	}
	p.refcount[frame]++
	return nil
}

// Unref decrements the reference count, freeing the frame when it hits
// zero. It reports whether the frame was actually released.
func (p *PhysMem) Unref(frame uint64) (released bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkLive(frame); err != nil {
		return false, err
	}
	p.refcount[frame]--
	if p.refcount[frame] > 0 {
		return false, nil
	}
	p.frames[frame] = nil
	p.refcount[frame] = 0
	p.free = append(p.free, frame)
	return true, nil
}

// RefCount reports the reference count of a frame (0 if free).
func (p *PhysMem) RefCount(frame uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if frame >= uint64(len(p.frames)) {
		return 0
	}
	return p.refcount[frame]
}

func (p *PhysMem) checkLive(frame uint64) error {
	if frame >= uint64(len(p.frames)) || p.frames[frame] == nil {
		return fmt.Errorf("%w: %d", ErrBadFrame, frame)
	}
	return nil
}

// Read copies bytes starting at physical address pa into buf. The read
// must not cross a frame boundary into an unallocated frame.
func (p *PhysMem) Read(pa PAddr, buf []byte) error {
	return p.access(pa, buf, false)
}

// Write copies buf into physical memory starting at pa.
func (p *PhysMem) Write(pa PAddr, buf []byte) error {
	return p.access(pa, buf, true)
}

func (p *PhysMem) access(pa PAddr, buf []byte, write bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	off := uint64(pa) & (PageSize - 1)
	frame := pa.Frame()
	for len(buf) > 0 {
		if err := p.checkLive(frame); err != nil {
			return err
		}
		n := PageSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		dst := p.frames[frame][off : off+n]
		if write {
			copy(dst, buf[:n])
		} else {
			copy(buf[:n], dst)
		}
		buf = buf[n:]
		off = 0
		frame++
	}
	return nil
}

// FramePayload exposes the raw contents of a frame for device DMA. The
// returned slice aliases the frame; callers must treat it as owned by
// the device for the duration of the transfer.
func (p *PhysMem) FramePayload(frame uint64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkLive(frame); err != nil {
		return nil, err
	}
	return p.frames[frame], nil
}
