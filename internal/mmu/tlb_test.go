package mmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium/internal/clock"
)

// tlbModel is the reference TLB: a slice in FIFO order, oldest first.
// Invalidation removes the entry, so a re-inserted key queues behind
// every older one.
type tlbModel struct {
	size         int
	fifo         []tlbEntry // only ctx, vpn, frame and perm are used
	hits, misses uint64
}

func (m *tlbModel) find(ctx ContextID, vpn uint64) int {
	for i, e := range m.fifo {
		if e.ctx == ctx && e.vpn == vpn {
			return i
		}
	}
	return -1
}

func (m *tlbModel) lookup(ctx ContextID, vpn uint64) (uint64, Perm, bool) {
	i := m.find(ctx, vpn)
	if i < 0 {
		m.misses++
		return 0, 0, false
	}
	m.hits++
	return m.fifo[i].frame, m.fifo[i].perm, true
}

func (m *tlbModel) insert(ctx ContextID, vpn, frame uint64, perm Perm) {
	if i := m.find(ctx, vpn); i >= 0 {
		m.fifo[i].frame, m.fifo[i].perm = frame, perm
		return
	}
	if len(m.fifo) == m.size {
		m.fifo = m.fifo[1:]
	}
	m.fifo = append(m.fifo, tlbEntry{ctx: ctx, vpn: vpn, frame: frame, perm: perm})
}

func (m *tlbModel) invalidate(ctx ContextID, vpn uint64) bool {
	i := m.find(ctx, vpn)
	if i < 0 {
		return false
	}
	m.fifo = append(m.fifo[:i:i], m.fifo[i+1:]...)
	return true
}

func (m *tlbModel) invalidateContext(ctx ContextID) int {
	kept := m.fifo[:0:0]
	for _, e := range m.fifo {
		if e.ctx != ctx {
			kept = append(kept, e)
		}
	}
	n := len(m.fifo) - len(kept)
	m.fifo = kept
	return n
}

// fifoOrder lists the TLB's live keys oldest first, checking the
// list's back links, every chain and the free list on the way.
func fifoOrder(t *testing.T, tl *tlb) []string {
	t.Helper()
	var out []string
	prev := nilSlot
	for i := tl.oldest; i != nilSlot; i = tl.entries[i].next {
		e := &tl.entries[i]
		if e.prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, e.prev, prev)
		}
		if tl.find(e.ctx, e.vpn) != i {
			t.Fatalf("slot %d (%d/%d) not reachable through its hash chain", i, e.ctx, e.vpn)
		}
		out = append(out, fmt.Sprintf("%d/%d", e.ctx, e.vpn))
		prev = i
	}
	if prev != tl.newest {
		t.Fatalf("newest = %d, list ends at %d", tl.newest, prev)
	}
	free := 0
	for i := tl.free; i != nilSlot; i = tl.entries[i].next {
		free++
	}
	if len(out) != tl.live || tl.live+free != len(tl.entries) {
		t.Fatalf("%d listed, live = %d, %d free of %d slots", len(out), tl.live, free, len(tl.entries))
	}
	return out
}

func modelOrder(m *tlbModel) []string {
	var out []string
	for _, e := range m.fifo {
		out = append(out, fmt.Sprintf("%d/%d", e.ctx, e.vpn))
	}
	return out
}

// TestTLBMatchesReferenceModel replays seeded random operation
// sequences against the TLB and the reference model in lock step,
// comparing every result, the counters and the replacement order after
// every step.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, size := range []int{1, 4, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				r := clock.NewRand(seed)
				tl := newTLB(size)
				m := &tlbModel{size: size}
				// A key space a little larger than the TLB, so inserts
				// evict and lookups both hit and miss.
				ctxs, pages := 3, size+2
				key := func() (ContextID, uint64) {
					return ContextID(r.Intn(ctxs)), uint64(r.Intn(pages))
				}
				for step := 0; step < 4000; step++ {
					op := r.Intn(100)
					switch {
					case op < 40:
						ctx, vpn := key()
						f, p, ok := tl.lookup(ctx, vpn)
						mf, mp, mok := m.lookup(ctx, vpn)
						if f != mf || p != mp || ok != mok {
							t.Fatalf("step %d: lookup(%d, %d) = %d %v %v, model %d %v %v", step, ctx, vpn, f, p, ok, mf, mp, mok)
						}
					case op < 75:
						ctx, vpn := key()
						frame, perm := r.Uint64()%1024, Perm(r.Intn(8))
						tl.insert(ctx, vpn, frame, perm)
						m.insert(ctx, vpn, frame, perm)
					case op < 90:
						ctx, vpn := key()
						if got, want := tl.invalidate(ctx, vpn), m.invalidate(ctx, vpn); got != want {
							t.Fatalf("step %d: invalidate(%d, %d) = %v, model %v", step, ctx, vpn, got, want)
						}
					case op < 97:
						ctx := ContextID(r.Intn(ctxs))
						if got, want := tl.invalidateContext(ctx), m.invalidateContext(ctx); got != want {
							t.Fatalf("step %d: invalidateContext(%d) = %d, model %d", step, ctx, got, want)
						}
					default:
						tl.flush()
						m.fifo = nil
					}
					if tl.hits != m.hits || tl.misses != m.misses || tl.live != len(m.fifo) {
						t.Fatalf("step %d: hits/misses/live = %d/%d/%d, model %d/%d/%d",
							step, tl.hits, tl.misses, tl.live, m.hits, m.misses, len(m.fifo))
					}
					if got, want := fmt.Sprint(fifoOrder(t, tl)), fmt.Sprint(modelOrder(m)); got != want {
						t.Fatalf("step %d: FIFO %s, model %s", step, got, want)
					}
				}
			})
		}
	}
}

// TestTLBReinsertQueuesAsNew pins the replacement policy for an entry
// that is invalidated and inserted again: it queues as a fresh entry,
// so the next eviction takes the older entry, not the re-inserted one.
func TestTLBReinsertQueuesAsNew(t *testing.T) {
	tl := newTLB(2)
	tl.insert(1, 0xA, 1, PermRead)
	tl.insert(1, 0xB, 2, PermRead)
	tl.invalidate(1, 0xA)
	tl.insert(1, 0xA, 3, PermRead)
	tl.insert(1, 0xC, 4, PermRead) // full: evicts the oldest, B
	for _, c := range []struct {
		vpn uint64
		hit bool
	}{{0xA, true}, {0xB, false}, {0xC, true}} {
		if _, _, ok := tl.lookup(1, c.vpn); ok != c.hit {
			t.Fatalf("lookup %#x hit = %v, want %v", c.vpn, ok, c.hit)
		}
	}
	if tl.hits != 2 || tl.misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", tl.hits, tl.misses)
	}
}

// TestTLBRefillDoesNotAllocate: after newTLB, inserts, evictions,
// lookups and invalidations allocate nothing.
func TestTLBRefillDoesNotAllocate(t *testing.T) {
	tl := newTLB(DefaultTLBSize)
	vpn := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 2*DefaultTLBSize; i++ {
			vpn++
			tl.insert(1, vpn, vpn, PermRead)
			tl.lookup(1, vpn)
		}
		tl.invalidate(1, vpn)
		tl.invalidateContext(1)
		tl.flush()
	})
	if allocs != 0 {
		t.Fatalf("allocs per run = %v, want 0", allocs)
	}
}

// TestDestroyDuringTranslateAndCrossSwitch races context teardown
// against translation and cross-switches on every CPU (run it under
// -race). Once DestroyContextFrom has returned, TranslateOn must report
// FaultBadContext and CrossSwitchOn ErrNoContext for that context, and
// no CPU's TLB may hold an entry for it.
func TestDestroyDuringTranslateAndCrossSwitch(t *testing.T) {
	const ncpu, nctx, pages = 4, 16, 8
	m, _ := newMultiMMU(t, Config{CPUs: ncpu, TLBSize: 16})
	ids := make([]ContextID, nctx)
	for i := range ids {
		ids[i] = m.NewContext()
		for p := 0; p < pages; p++ {
			if err := m.MapOn(BootCPU, ids[i], VAddr(p*PageSize), uint64(p+1), PermRead); err != nil {
				t.Fatal(err)
			}
		}
	}
	var destroyed [nctx]atomic.Bool
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, ncpu)
	for c := 0; c < ncpu; c++ {
		wg.Add(1)
		go func(cpu CPUID) {
			defer wg.Done()
			r := clock.NewRand(uint64(cpu) + 1)
			for !stop.Load() {
				i := r.Intn(nctx)
				// Read the flag first: if the destroy had returned
				// by then, the call below starts after it.
				dead := destroyed[i].Load()
				va := VAddr(r.Intn(pages) * PageSize)
				_, f := m.TranslateOn(cpu, ids[i], va, AccessRead)
				err := m.CrossSwitchOn(cpu, ids[i])
				switch {
				case dead && f.Kind != FaultBadContext:
					errs <- fmt.Errorf("CPU %d: translate in destroyed context %d: fault %v", cpu, ids[i], f.Kind)
					return
				case dead && !errors.Is(err, ErrNoContext):
					errs <- fmt.Errorf("CPU %d: cross-switch to destroyed context %d: %v", cpu, ids[i], err)
					return
				case f.Kind != FaultNone && f.Kind != FaultBadContext:
					errs <- fmt.Errorf("CPU %d: translate in context %d: fault %v", cpu, ids[i], f.Kind)
					return
				}
			}
		}(CPUID(c))
	}
	for i := range ids {
		for n := 0; n < 200; n++ { // let the workers fill the TLBs
			if _, f := m.TranslateOn(0, ids[i], 0, AccessRead); f.Kind != FaultNone {
				t.Fatalf("context %d before destroy: fault %v", ids[i], f.Kind)
			}
		}
		if err := m.DestroyContextFrom(CPUID(i%ncpu), ids[i]); err != nil {
			t.Fatal(err)
		}
		destroyed[i].Store(true)
		if m.HasContext(ids[i]) {
			t.Fatalf("context %d live after destroy", ids[i])
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range m.cpus {
		cs := &m.cpus[c]
		cs.mu.Lock()
		live := cs.tlb.live
		cs.mu.Unlock()
		if live != 0 {
			t.Fatalf("CPU %d: %d TLB entries survive the destruction of every context they named", c, live)
		}
	}
}
