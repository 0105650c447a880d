package proxy

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

// liveFrames counts the factory's live slab frames (odd state word) —
// zero between calls, or frames have leaked.
func liveFrames(f *Factory) int {
	p := f.frames.slots.Load()
	if p == nil {
		return 0
	}
	total := 0
	for _, s := range *p {
		if s.state.Load()&1 == 1 {
			total++
		}
	}
	return total
}

// TestGroupedBatchCrossesPerTarget pins the multi-target vectoring
// contract at the meter: a grouped batch alternating two proxies pays
// the crossing bill — trap, fault decode, context-switch pair — once
// per DISTINCT target (and the per-entry decode once per entry),
// where the same interleave in-order pays the full bill per entry.
// Per-target execution order and the scatter of results to original
// entry slots are asserted alongside.
func TestGroupedBatchCrossesPerTarget(t *testing.T) {
	f, svc, m := setup()
	clientCtx := svc.NewDomain()
	const targets = 2
	const size = 16
	ps := make([]*Proxy, targets)
	ns := make([]*atomic.Int64, targets)
	incs := make([]obj.MethodHandle, targets)
	for i := range ps {
		target, n := newBatchTarget(m.Meter)
		p, err := f.New(clientCtx, svc.NewDomain(), target)
		if err != nil {
			t.Fatal(err)
		}
		iv, _ := p.Iface("test.batch.v1")
		inc, err := iv.Resolve("inc")
		if err != nil {
			t.Fatal(err)
		}
		ps[i], ns[i], incs[i] = p, n, inc
	}

	b := obj.NewBatch(size)
	b.SetMode(obj.Grouped)
	before := m.Meter.Snapshot()
	for i := 0; i < size; i++ {
		if err := b.Add(incs[i%targets]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	after := m.Meter.Snapshot()

	if got := after[clock.OpTrapEnter] - before[clock.OpTrapEnter]; got != targets {
		t.Fatalf("trap entries = %d, want %d (one per distinct target)", got, targets)
	}
	if got := after[clock.OpPageFault] - before[clock.OpPageFault]; got != targets {
		t.Fatalf("page faults = %d, want %d", got, targets)
	}
	if got := after[clock.OpCtxSwitch] - before[clock.OpCtxSwitch]; got != 2*targets {
		t.Fatalf("context switches = %d, want %d (one pair per target)", got, 2*targets)
	}
	if got := after[clock.OpBatchEntry] - before[clock.OpBatchEntry]; got != size {
		t.Fatalf("batch-entry decodes = %d, want %d (amortization never skips decode)", got, size)
	}
	if b.Crossings() != targets {
		t.Fatalf("batch crossings = %d, want %d", b.Crossings(), targets)
	}
	for i, p := range ps {
		if p.Crossings() != 1 {
			t.Fatalf("proxy %d crossings = %d, want 1", i, p.Crossings())
		}
		if p.Calls() != size/targets {
			t.Fatalf("proxy %d calls = %d, want %d", i, p.Calls(), size/targets)
		}
		if ns[i].Load() != size/targets {
			t.Fatalf("target %d counter = %d, want %d", i, ns[i].Load(), size/targets)
		}
	}
	// Entry i is the (i/targets)'th call on target i%targets; the
	// counter result pins per-target order, its slot pins the scatter.
	for i := 0; i < size; i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if res[0].(int64) != int64(i/targets+1) {
			t.Fatalf("entry %d result = %v, want %d (per-target order, scattered home)",
				i, res[0], i/targets+1)
		}
	}

	// The same interleave in the default in-order mode: a full
	// crossing per entry — the cliff grouped mode exists to fix.
	b.Reset()
	b.SetMode(obj.InOrder)
	before = m.Meter.Snapshot()
	for i := 0; i < size; i++ {
		if err := b.Add(incs[i%targets]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	after = m.Meter.Snapshot()
	if got := after[clock.OpTrapEnter] - before[clock.OpTrapEnter]; got != size {
		t.Fatalf("in-order trap entries = %d, want %d (one per entry)", got, size)
	}
	for i, p := range ps {
		if p.Crossings() != 1+size/targets {
			t.Fatalf("proxy %d crossings = %d after in-order rerun, want %d",
				i, p.Crossings(), 1+size/targets)
		}
	}
	if n := liveFrames(f); n != 0 {
		t.Fatalf("%d call frames still registered after the batches", n)
	}
}

// TestGroupedBatchDestroyedTargetFailsOnlyItsPartition: with one of
// two targets' domains destroyed, a grouped batch fails that target's
// partition — every entry, "target domain gone" — and still runs the
// surviving target's partition to completion; Run surfaces the dead
// partition's group error.
func TestGroupedBatchDestroyedTargetFailsOnlyItsPartition(t *testing.T) {
	f, svc, m := setup()
	clientCtx := svc.NewDomain()
	liveTarget, liveN := newBatchTarget(m.Meter)
	pLive, err := f.New(clientCtx, svc.NewDomain(), liveTarget)
	if err != nil {
		t.Fatal(err)
	}
	deadCtx := svc.NewDomain()
	deadTarget, deadN := newBatchTarget(m.Meter)
	pDead, err := f.New(clientCtx, deadCtx, deadTarget)
	if err != nil {
		t.Fatal(err)
	}
	ivL, _ := pLive.Iface("test.batch.v1")
	incLive, _ := ivL.Resolve("inc")
	ivD, _ := pDead.Iface("test.batch.v1")
	incDead, _ := ivD.Resolve("inc")
	if err := svc.DestroyDomain(deadCtx); err != nil {
		t.Fatal(err)
	}

	const size = 8
	b := obj.NewBatch(size)
	b.SetMode(obj.Grouped)
	for i := 0; i < size; i++ {
		h := incLive
		if i%2 == 1 {
			h = incDead
		}
		if err := b.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Run(); err == nil {
		t.Fatal("no group error from the destroyed target's partition")
	}
	for i := 0; i < size; i++ {
		_, err := b.Results(i)
		if i%2 == 0 {
			if err != nil {
				t.Fatalf("surviving entry %d: %v", i, err)
			}
		} else if err == nil {
			t.Fatalf("entry %d into the destroyed domain carried no error", i)
		}
	}
	if liveN.Load() != size/2 {
		t.Fatalf("surviving counter = %d, want %d", liveN.Load(), size/2)
	}
	if deadN.Load() != 0 {
		t.Fatalf("dead counter = %d, want 0", deadN.Load())
	}
	if n := liveFrames(f); n != 0 {
		t.Fatalf("%d call frames still registered", n)
	}
}

// TestGroupedDestroyMidRunRace: two goroutines run grouped batches
// against overlapping target sets ({A,B} and {B,C}) while C's domain
// is torn down mid-storm. Partitions on surviving targets must keep
// completing, the condemned partition must fail whole — within one
// run C's entries either all succeeded or all failed, never split —
// and when the storm ends no call frame is left registered. Run with
// -race.
func TestGroupedDestroyMidRunRace(t *testing.T) {
	f, svc, m := setup()
	names := []string{"A", "B", "C"}
	proxies := make([]*Proxy, len(names))
	incs := make([]obj.MethodHandle, len(names))
	counters := make([]*atomic.Int64, len(names))
	ctxC := svc.NewDomain()
	for i := range names {
		serverCtx := svc.NewDomain()
		if i == 2 {
			serverCtx = ctxC
		}
		target, n := newBatchTarget(m.Meter)
		p, err := f.New(svc.NewDomain(), serverCtx, target)
		if err != nil {
			t.Fatal(err)
		}
		iv, _ := p.Iface("test.batch.v1")
		inc, err := iv.Resolve("inc")
		if err != nil {
			t.Fatal(err)
		}
		proxies[i], incs[i], counters[i] = p, inc, n
	}

	const size = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	// worker alternates entries between its two targets in grouped
	// mode; sawClosed reports whether target hb ever failed.
	worker := func(ha, hb obj.MethodHandle, bCanClose bool) {
		defer wg.Done()
		<-start
		b := obj.NewBatch(size)
		b.SetMode(obj.Grouped)
		for !stop.Load() {
			b.Reset()
			for i := 0; i < size; i++ {
				h := ha
				if i%2 == 1 {
					h = hb
				}
				if err := b.Add(h); err != nil {
					t.Error(err)
					return
				}
			}
			err := b.Run()
			bOK, bFailed := 0, 0
			for i := 0; i < size; i++ {
				_, entryErr := b.Results(i)
				if i%2 == 0 {
					// The ha partition is never condemned: it must
					// complete on every run.
					if entryErr != nil {
						t.Errorf("surviving partition entry %d failed: %v", i, entryErr)
						return
					}
					continue
				}
				switch {
				case entryErr == nil:
					bOK++
				case errors.Is(entryErr, ErrClosed) && bCanClose:
					bFailed++
				default:
					t.Errorf("entry %d error = %v", i, entryErr)
					return
				}
			}
			if bOK != 0 && bFailed != 0 {
				t.Errorf("condemned partition split: %d succeeded, %d failed in one run", bOK, bFailed)
				return
			}
			if err != nil && !(errors.Is(err, ErrClosed) && bCanClose) {
				t.Errorf("group error = %v", err)
				return
			}
		}
	}
	wg.Add(2)
	go worker(incs[0], incs[1], false) // {A, B}
	go worker(incs[1], incs[2], true)  // {B, C}
	close(start)

	// Let both goroutines make progress on every target, then condemn
	// C underneath the storm.
	for counters[0].Load() < size || counters[2].Load() < size {
		runtime.Gosched()
	}
	f.CloseTarget(ctxC)
	// CloseTarget has quiesced C: its counter is frozen even though
	// the storm is still running against A and B.
	frozen := counters[2].Load()
	for counters[0].Load() < 4*size || counters[1].Load() < 4*size {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if got := counters[2].Load(); got != frozen {
		t.Fatalf("condemned target's counter moved after CloseTarget: %d -> %d", frozen, got)
	}
	if !proxies[2].Closed() {
		t.Fatal("CloseTarget left C's proxy open")
	}
	if n := liveFrames(f); n != 0 {
		t.Fatalf("%d call frames still registered after the storm", n)
	}
}
