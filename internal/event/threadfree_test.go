package event

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/threads"
)

// TestThreadFreeProtoRunsInline: a thread-free proto handler runs in
// its binding's context before RaiseIRQOn returns, starts no carrier
// goroutine, and is charged and counted exactly as an inline
// thread-taking proto handler in the same context.
func TestThreadFreeProtoRunsInline(t *testing.T) {
	deliver := func(free bool) (cycles uint64, st Stats, seen mmu.ContextID, goroutines int) {
		s, m, sched := newService()
		userCtx := m.MMU.NewContext()
		var err error
		if free {
			err = s.RegisterThreadFreeIRQOn(2, "rx", userCtx, DispatchProto, mmu.BootCPU, func(hw.TrapFrame) {
				seen = m.MMU.CurrentOn(mmu.BootCPU)
			})
		} else {
			err = s.RegisterIRQOn(2, "rx", userCtx, DispatchProto, mmu.BootCPU, func(_ hw.TrapFrame, th *threads.Thread) {
				if th != nil {
					seen = m.MMU.CurrentOn(mmu.BootCPU)
				}
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		w := m.Meter.Clock.StartWatch()
		if err := m.RaiseIRQOn(2, mmu.BootCPU); err != nil {
			t.Fatal(err)
		}
		cycles = w.Elapsed()
		goroutines = runtime.NumGoroutine() - before
		st, _ = s.IRQStats(2)
		if n := m.Meter.Count(clock.OpProtoThread); n != 1 {
			t.Fatalf("free=%v: %d proto-thread charges, want 1", free, n)
		}
		if n := m.Meter.Count(clock.OpThreadCreate); n != 0 {
			t.Fatalf("free=%v: %d thread creations", free, n)
		}
		if live := sched.LiveCount(); live != 0 {
			t.Fatalf("free=%v: LiveCount = %d", free, live)
		}
		sched.Shutdown()
		return cycles, st, seen, goroutines
	}
	freeCycles, freeStats, freeSeen, freeG := deliver(true)
	carrierCycles, carrierStats, _, _ := deliver(false)
	if freeSeen == mmu.KernelContext || freeSeen == 0 {
		t.Fatalf("thread-free handler ran in context %d, not its binding's", freeSeen)
	}
	if freeCycles != carrierCycles {
		t.Fatalf("thread-free delivery cost %d cycles, carrier delivery %d", freeCycles, carrierCycles)
	}
	if freeStats.Delivered != 1 || freeStats.Inline != 1 || freeStats.Promoted != 0 || freeStats.Dispatch != DispatchProto {
		t.Fatalf("thread-free stats = %+v", freeStats)
	}
	if carrierStats.Inline != freeStats.Inline {
		t.Fatalf("carrier stats = %+v, thread-free %+v", carrierStats, freeStats)
	}
	if freeG > 0 {
		t.Fatalf("thread-free delivery started %d goroutines", freeG)
	}
}

// TestThreadFreeRawAndEager: raw dispatch runs a thread-free handler
// with no thread charge at all, and eager dispatch still creates and
// charges a thread for every event.
func TestThreadFreeRawAndEager(t *testing.T) {
	s, m, sched := newService()
	var raw, eager int
	if err := s.RegisterThreadFreeIRQOn(1, "raw", mmu.KernelContext, DispatchRaw, mmu.BootCPU, func(hw.TrapFrame) { raw++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterThreadFreeIRQOn(2, "eager", mmu.KernelContext, DispatchEager, mmu.BootCPU, func(hw.TrapFrame) { eager++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(1, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if raw != 1 || m.Meter.Count(clock.OpProtoThread) != 0 || m.Meter.Count(clock.OpThreadCreate) != 0 {
		t.Fatalf("raw ran %d times, %d proto charges, %d creations", raw,
			m.Meter.Count(clock.OpProtoThread), m.Meter.Count(clock.OpThreadCreate))
	}
	if err := m.RaiseIRQOn(2, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if eager != 0 {
		t.Fatal("eager handler ran before its thread was scheduled")
	}
	sched.RunUntilIdle()
	if eager != 1 || m.Meter.Count(clock.OpThreadCreate) != 1 {
		t.Fatalf("eager ran %d times with %d thread creations", eager, m.Meter.Count(clock.OpThreadCreate))
	}
	if err := s.RegisterThreadFreeIRQOn(3, "nil", mmu.KernelContext, DispatchProto, mmu.BootCPU, nil); err == nil {
		t.Fatal("nil thread-free handler accepted")
	}
	if err := s.RegisterThreadFreeIRQOn(3, "bad", mmu.KernelContext, DispatchProto, 5, func(hw.TrapFrame) {}); err == nil {
		t.Fatal("thread-free binding to a missing CPU accepted")
	}
}

// TestThreadFreeDeliveriesKeepThreadIDs: a thread-free delivery
// consumes one thread ID, as a carrier delivery does, so the IDs of
// every later thread are the same whichever form the handler took.
func TestThreadFreeDeliveriesKeepThreadIDs(t *testing.T) {
	s, m, sched := newService()
	var promotedID uint64
	if err := s.RegisterThreadFreeIRQOn(1, "free", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(hw.TrapFrame) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterIRQOn(2, "yield", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(_ hw.TrapFrame, th *threads.Thread) {
		promotedID = th.ID()
		th.Yield()
	}); err != nil {
		t.Fatal(err)
	}
	first := sched.Spawn("first", func(*threads.Thread) {})
	const n = 5
	for i := 0; i < n; i++ {
		if err := m.RaiseIRQOn(1, mmu.BootCPU); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RaiseIRQOn(2, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	last := sched.Spawn("last", func(*threads.Thread) {})
	sched.RunUntilIdle()
	if promotedID != first.ID()+n+1 {
		t.Fatalf("promoted thread has ID %d after %d thread-free deliveries from %d, want %d",
			promotedID, n, first.ID(), first.ID()+n+1)
	}
	if last.ID() != promotedID+1 {
		t.Fatalf("next spawn has ID %d, want %d", last.ID(), promotedID+1)
	}
	if live := sched.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle", live)
	}
}

// TestProtoStatsBalanceUnderConcurrentDelivery: with deliveries racing
// on four CPUs, thread-free and carrier bindings side by side and a
// blocking handler promoted on every other delivery, no snapshot
// shows more outcomes than deliveries, and once idle every proto
// delivery is counted exactly once as inline or promoted.
func TestProtoStatsBalanceUnderConcurrentDelivery(t *testing.T) {
	const ncpu, perLine = 4, 100
	s, m, sched := newMultiService(ncpu)
	var finished atomic.Int64
	for line := hw.IRQLine(0); line < ncpu; line++ {
		var err error
		if line%2 == 0 {
			err = s.RegisterThreadFreeIRQOn(line, "free", mmu.KernelContext, DispatchProto, mmu.CPUID(line), func(hw.TrapFrame) {
				finished.Add(1)
			})
		} else {
			n := 0 // deliveries on one CPU serialize
			err = s.RegisterIRQOn(line, "carrier", mmu.KernelContext, DispatchProto, mmu.CPUID(line), func(_ hw.TrapFrame, th *threads.Thread) {
				n++
				if n%2 == 0 {
					th.Yield()
				}
				finished.Add(1)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var raisers sync.WaitGroup
	for line := hw.IRQLine(0); line < ncpu; line++ {
		raisers.Add(1)
		go func(line hw.IRQLine) {
			defer raisers.Done()
			for i := 0; i < perLine; i++ {
				if err := m.RaiseIRQOn(line, mmu.CPUID(line)); err != nil {
					t.Error(err)
					return
				}
			}
		}(line)
	}
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for line := hw.IRQLine(0); line < ncpu; line++ {
				if st, _ := s.IRQStats(line); st.Inline+st.Promoted > st.Delivered {
					t.Errorf("line %d snapshot %+v shows more outcomes than deliveries", line, st)
					return
				}
			}
		}
	}()
	for finished.Load() < ncpu*perLine {
		sched.RunUntilIdle()
	}
	raisers.Wait()
	sched.RunUntilIdle()
	close(stop)
	snapper.Wait()
	for line := hw.IRQLine(0); line < ncpu; line++ {
		st, _ := s.IRQStats(line)
		if st.Delivered != perLine || st.Inline+st.Promoted != st.Delivered {
			t.Fatalf("line %d stats = %+v, want %d delivered, each inline or promoted", line, st, perLine)
		}
		wantPromoted := uint64(0)
		if line%2 == 1 {
			wantPromoted = perLine / 2
		}
		if st.Promoted != wantPromoted {
			t.Fatalf("line %d promoted %d, want %d", line, st.Promoted, wantPromoted)
		}
	}
	if live := sched.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle", live)
	}
	sched.Shutdown()
}

// TestThreadFreeCarrierShutdownStress interleaves, on one CPU,
// thread-free proto deliveries, carrier proto deliveries (one binding
// blocks on a held mutex and is promoted mid-burst) and Shutdown
// releasing idle carriers, while the scheduler runs the promoted
// threads. Every delivery consumes exactly one thread ID, no two
// threads share one, no thread stays live, and after a last Shutdown
// no carrier goroutine is left.
func TestThreadFreeCarrierShutdownStress(t *testing.T) {
	const bursts, perBurst = 20, 12
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	goroutines := runtime.NumGoroutine()

	s, m, sched := newService()
	mtx := threads.NewMutex(sched)
	var (
		finished atomic.Int64
		idMu     sync.Mutex
		ids      = map[uint64]bool{}
	)
	record := func(th *threads.Thread) {
		idMu.Lock()
		if ids[th.ID()] {
			t.Errorf("thread ID %d handed out twice", th.ID())
		}
		ids[th.ID()] = true
		idMu.Unlock()
	}
	if err := s.RegisterThreadFreeIRQOn(1, "free", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(hw.TrapFrame) {
		finished.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterIRQOn(2, "carrier", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(_ hw.TrapFrame, th *threads.Thread) {
		record(th)
		finished.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterIRQOn(3, "blocker", mmu.KernelContext, DispatchProto, mmu.BootCPU, func(_ hw.TrapFrame, th *threads.Thread) {
		record(th)
		mtx.Lock(th) // promoted whenever the holder has the mutex
		mtx.Unlock(th)
		finished.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	// The holder takes the mutex at the start of each burst and gives
	// it back halfway through, so the blocker's deliveries in the
	// first half are promoted and those after it run inline.
	spawned := 0
	var raisers, background sync.WaitGroup
	for b := 0; b < bursts; b++ {
		rel := make(chan struct{})
		held := make(chan struct{})
		sched.Spawn("holder", func(th *threads.Thread) {
			mtx.Lock(th)
			close(held)
			for {
				select {
				case <-rel:
					mtx.Unlock(th)
					return
				default:
					th.Yield()
				}
			}
		})
		spawned++
		background.Add(1)
		go func() {
			defer background.Done()
			sched.RunUntilIdle()
		}()
		<-held
		for _, line := range []hw.IRQLine{1, 2, 3} {
			raisers.Add(1)
			go func(line hw.IRQLine) {
				defer raisers.Done()
				for i := 0; i < perBurst; i++ {
					if i == perBurst/2 && line == 3 {
						close(rel)
					}
					if err := m.RaiseIRQOn(line, mmu.BootCPU); err != nil {
						t.Error(err)
						return
					}
				}
			}(line)
		}
		background.Add(1)
		go func() {
			defer background.Done()
			sched.Shutdown()
		}()
		raisers.Wait()
		want := int64((b + 1) * 3 * perBurst)
		for finished.Load() < want {
			sched.RunUntilIdle()
		}
		background.Wait()
		sched.Shutdown()
	}
	sched.RunUntilIdle()
	sched.Shutdown()

	if live := sched.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle", live)
	}
	for line := hw.IRQLine(1); line <= 3; line++ {
		if st, _ := s.IRQStats(line); st.Delivered != bursts*perBurst || st.Inline+st.Promoted != st.Delivered {
			t.Fatalf("line %d stats = %+v", line, st)
		}
	}
	if st, _ := s.IRQStats(3); st.Promoted < bursts*perBurst/2 {
		t.Fatalf("blocker stats = %+v, want every delivery before the release promoted", st)
	}
	deliveries := 3 * bursts * perBurst
	next := sched.Spawn("next", func(*threads.Thread) {})
	if want := uint64(spawned + deliveries + 1); next.ID() != want {
		t.Fatalf("next thread ID %d, want %d: %d spawns and %d deliveries each consume one",
			next.ID(), want, spawned, deliveries)
	}
	sched.RunUntilIdle()
	sched.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before the stress", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
