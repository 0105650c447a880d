package mmu

import (
	"fmt"
	"math/bits"
)

// tlb is a fully associative, ASID-tagged translation look-aside buffer
// with FIFO replacement. FIFO (rather than LRU) keeps the replacement
// behaviour trivially deterministic, which matters for reproducible
// experiment output.
//
// It is shaped like the hardware it models: newTLB allocates a fixed
// array of entry slots and a fixed array of bucket heads, and nothing
// allocates after that. The (ctx, vpn) index is a chained hash over
// slot indices with about two buckets per slot, hashed by integer
// multiplication. The FIFO order is a doubly linked list threaded
// through the live slots, oldest first, and the empty slots form a free
// list. Invalidating an entry unlinks it from the FIFO, so an entry
// that is invalidated and inserted again queues behind every older
// entry, exactly like a fresh one.
//
// Each virtual CPU owns one tlb; the owning cpu's mutex guards every
// access, so the counters here are plain integers.
type tlb struct {
	entries []tlbEntry // size slots, live or free
	buckets []int32    // first slot of each hash chain, or nilSlot
	shift   uint       // 64 - log2(len(buckets))
	oldest  int32      // FIFO head: the next slot to evict
	newest  int32      // FIFO tail: the slot inserted last
	free    int32      // free list head, linked through next
	live    int
	hits    uint64
	misses  uint64
	flushes uint64
	// shootdowns counts cross-CPU invalidations RECEIVED: entries this
	// TLB actually held that a Map/Unmap/Protect initiated on another
	// CPU had to shoot down (one IPI each in the cost model).
	shootdowns uint64
}

// tlbEntry is one slot. Its links are slot indices, nilSlot for none.
type tlbEntry struct {
	vpn   uint64
	frame uint64
	ctx   ContextID
	chain int32 // next slot in the same hash bucket
	prev  int32 // FIFO neighbour toward the oldest
	next  int32 // FIFO neighbour toward the newest; free-list link when empty
	perm  Perm
}

// nilSlot terminates every slot list.
const nilSlot int32 = -1

// maxTLBSize bounds a TLB so that its 2*size bucket heads are still
// indexable by int32.
const maxTLBSize = 1 << 29

func newTLB(size int) *tlb {
	if size <= 0 || size > maxTLBSize {
		panic(fmt.Sprintf("mmu: TLB size %d out of range [1, %d]", size, maxTLBSize))
	}
	logBuckets := bits.Len(uint(2*size - 1)) // 2^logBuckets >= 2*size
	t := &tlb{
		entries: make([]tlbEntry, size),
		buckets: make([]int32, 1<<logBuckets),
		shift:   uint(64 - logBuckets),
	}
	t.clear()
	return t
}

// clear empties every slot: no chains, no FIFO, all slots free.
func (t *tlb) clear() {
	for i := range t.buckets {
		t.buckets[i] = nilSlot
	}
	for i := range t.entries {
		t.entries[i].next = int32(i) + 1
	}
	t.entries[len(t.entries)-1].next = nilSlot
	t.free = 0
	t.oldest, t.newest = nilSlot, nilSlot
	t.live = 0
}

// bucket hashes a key to its chain by multiplicative hashing: the top
// bits of the product mix every bit of the context and page number.
func (t *tlb) bucket(ctx ContextID, vpn uint64) *int32 {
	h := (vpn + uint64(ctx)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return &t.buckets[h>>t.shift]
}

// find returns the slot holding the key, or nilSlot.
func (t *tlb) find(ctx ContextID, vpn uint64) int32 {
	i := *t.bucket(ctx, vpn)
	for i != nilSlot {
		e := &t.entries[i]
		if e.vpn == vpn && e.ctx == ctx {
			return i
		}
		i = e.chain
	}
	return nilSlot
}

// lookup is the hardware probe: it counts a hit or a miss and returns
// the cached frame and permissions by value.
func (t *tlb) lookup(ctx ContextID, vpn uint64) (frame uint64, perm Perm, ok bool) {
	i := t.find(ctx, vpn)
	if i == nilSlot {
		t.misses++
		return 0, 0, false
	}
	t.hits++
	e := &t.entries[i]
	return e.frame, e.perm, true
}

// insert caches a translation. A key already present is updated in
// place and keeps its FIFO position; a new key takes a free slot,
// evicting the oldest entry when none is free.
func (t *tlb) insert(ctx ContextID, vpn, frame uint64, perm Perm) {
	if i := t.find(ctx, vpn); i != nilSlot {
		t.entries[i].frame, t.entries[i].perm = frame, perm
		return
	}
	if t.free == nilSlot {
		t.remove(t.oldest)
	}
	i := t.free
	e := &t.entries[i]
	t.free = e.next
	head := t.bucket(ctx, vpn)
	*e = tlbEntry{vpn: vpn, frame: frame, ctx: ctx, chain: *head, prev: t.newest, next: nilSlot, perm: perm}
	*head = i
	if t.newest == nilSlot {
		t.oldest = i
	} else {
		t.entries[t.newest].next = i
	}
	t.newest = i
	t.live++
}

// remove unlinks a live slot from its hash chain and the FIFO and
// returns it to the free list.
func (t *tlb) remove(i int32) {
	e := &t.entries[i]
	link := t.bucket(e.ctx, e.vpn)
	for *link != i {
		link = &t.entries[*link].chain
	}
	*link = e.chain
	if e.prev == nilSlot {
		t.oldest = e.next
	} else {
		t.entries[e.prev].next = e.next
	}
	if e.next == nilSlot {
		t.newest = e.prev
	} else {
		t.entries[e.next].prev = e.prev
	}
	e.next = t.free
	t.free = i
	t.live--
}

// invalidate drops the entry for the page, if any, without touching
// the hit/miss counters (an invalidation probe, not a lookup), and
// reports whether the TLB held it.
func (t *tlb) invalidate(ctx ContextID, vpn uint64) bool {
	i := t.find(ctx, vpn)
	if i == nilSlot {
		return false
	}
	t.remove(i)
	return true
}

// invalidateContext removes every entry tagged with ctx and reports how
// many were held, so context teardown can tell which CPUs actually need
// an invalidation IPI.
func (t *tlb) invalidateContext(ctx ContextID) int {
	n := 0
	for i := t.oldest; i != nilSlot; {
		next := t.entries[i].next
		if t.entries[i].ctx == ctx {
			t.remove(i)
			n++
		}
		i = next
	}
	return n
}

func (t *tlb) flush() {
	t.clear()
	t.flushes++
}
