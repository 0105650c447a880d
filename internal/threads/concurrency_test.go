package threads

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
)

// TestConcurrentSpawn: thread creation may come from any host
// goroutine (the concurrent invocation plane promotes proto-threads
// from parallel fault handlers), so Spawn must be safe to call
// concurrently and every spawned thread must run exactly once.
func TestConcurrentSpawn(t *testing.T) {
	s := NewScheduler(clock.NewMeter(clock.DefaultCosts()))
	const spawners = 8
	const each = 25
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Spawn("worker", func(*Thread) { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	s.RunUntilIdle()
	if got := ran.Load(); got != spawners*each {
		t.Fatalf("%d threads ran, want %d", got, spawners*each)
	}
	if live := s.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle, want 0", live)
	}
}

// TestConcurrentPopUpProto: proto-thread pop-ups from parallel event
// sources. Non-blocking handlers must all complete inline with no
// promotions charged.
func TestConcurrentPopUpProto(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	s := NewScheduler(meter)
	const dispatchers = 8
	const each = 25
	var ran atomic.Int64
	var inline atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < dispatchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if s.PopUpProtoOn(mmu.NoCPU, "popup", func(*Thread) { ran.Add(1) }) == nil {
					inline.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	s.RunUntilIdle()
	if got := ran.Load(); got != dispatchers*each {
		t.Fatalf("%d handlers ran, want %d", got, dispatchers*each)
	}
	if got := inline.Load(); got != dispatchers*each {
		t.Fatalf("%d handlers completed inline, want all %d", got, dispatchers*each)
	}
	if promoted := meter.Count(clock.OpPromote); promoted != 0 {
		t.Fatalf("%d promotions charged for non-blocking handlers", promoted)
	}
}

// TestProtoCarrierStress: inline and promoting proto handlers popped
// up concurrently on four CPUs — one dispatcher per CPU, the way the
// event service serializes deliveries per CPU — while the scheduler
// runs the promoted ones. Every carrier that last ran an inline body
// must be back on the free list (none leaks), the free list holds no
// more carriers than pop-ups ever ran at once, a carrier whose thread
// was promoted is never handed another body, and every thread leaves
// the live count.
func TestProtoCarrierStress(t *testing.T) {
	const ncpu = 4
	const each = 200
	s, meter := newSchedN(ncpu)
	var (
		mu       sync.Mutex
		retired  = map[*Thread]bool{} // carriers whose thread was promoted
		lastUse  = map[*Thread]bool{} // carrier -> last body ran inline
		reused   int
		finished atomic.Int64
	)
	enter := func(th *Thread, inline bool) {
		mu.Lock()
		if retired[th] {
			reused++
		}
		lastUse[th] = inline
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for cpu := 0; cpu < ncpu; cpu++ {
		wg.Add(1)
		go func(cpu mmu.CPUID) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%3 != 0 {
					if th := s.PopUpProtoOn(cpu, "inline", func(th *Thread) {
						enter(th, true)
						finished.Add(1)
					}); th != nil {
						t.Error("non-blocking handler was promoted")
					}
					continue
				}
				th := s.PopUpProtoOn(cpu, "promote", func(th *Thread) {
					enter(th, false)
					th.Yield()
					finished.Add(1)
				})
				if th == nil {
					t.Error("yielding handler completed inline")
					continue
				}
				mu.Lock()
				retired[th] = true
				mu.Unlock()
			}
		}(mmu.CPUID(cpu))
	}
	// Pump concurrently with the pop-ups, as interrupts arrive while
	// promoted handlers run.
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for finished.Load() < ncpu*each {
			s.RunUntilIdle()
		}
	}()
	wg.Wait()
	<-pumped
	s.RunUntilIdle()

	if reused != 0 {
		t.Fatalf("%d pop-ups ran on the carrier of a promoted thread", reused)
	}
	if live := s.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle, want 0", live)
	}
	promotions := uint64(ncpu * ((each + 2) / 3))
	if got := meter.Count(clock.OpPromote); got != promotions {
		t.Fatalf("%d promotions charged, want %d", got, promotions)
	}
	s.mu.Lock()
	idle := append([]*Thread(nil), s.carriers...)
	s.mu.Unlock()
	if len(idle) > ncpu {
		t.Fatalf("%d idle carriers for %d concurrent dispatchers", len(idle), ncpu)
	}
	onList := map[*Thread]bool{}
	for _, c := range idle {
		if !lastUse[c] {
			t.Fatal("free list holds a carrier whose last body was promoted")
		}
		onList[c] = true
	}
	for c, inline := range lastUse {
		if inline && !onList[c] {
			t.Fatal("a carrier that completed inline never returned to the free list")
		}
	}
	s.Shutdown()
	s.mu.Lock()
	n := len(s.carriers)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d carriers still idle after Shutdown", n)
	}
}

// TestPopUpInlineBesideCarriers: thread-free pop-ups racing carrier
// pop-ups (a third of them promoted) and Shutdown on four CPUs. Every
// pop-up is charged once and consumes exactly one thread ID, and no
// thread or idle carrier is left.
func TestPopUpInlineBesideCarriers(t *testing.T) {
	const ncpu, each = 4, 150
	s, meter := newSchedN(ncpu)
	var (
		finished atomic.Int64
		wg       sync.WaitGroup
	)
	for cpu := 0; cpu < ncpu; cpu++ {
		wg.Add(1)
		go func(cpu mmu.CPUID) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch i % 3 {
				case 0:
					s.PopUpInline()
					finished.Add(1)
				case 1:
					s.PopUpProtoOn(cpu, "inline", func(*Thread) { finished.Add(1) })
				case 2:
					s.PopUpProtoOn(cpu, "promote", func(th *Thread) {
						th.Yield()
						finished.Add(1)
					})
				}
				if i%50 == 0 {
					s.Shutdown()
				}
			}
		}(mmu.CPUID(cpu))
	}
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for finished.Load() < ncpu*each {
			s.RunUntilIdle()
		}
	}()
	wg.Wait()
	<-pumped
	s.RunUntilIdle()

	if live := s.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle, want 0", live)
	}
	if got := meter.Count(clock.OpProtoThread); got != ncpu*each {
		t.Fatalf("%d proto-thread charges, want %d", got, ncpu*each)
	}
	if next := s.Spawn("next", func(*Thread) {}); next.ID() != ncpu*each+1 {
		t.Fatalf("next thread ID %d after %d pop-ups, want %d", next.ID(), ncpu*each, ncpu*each+1)
	}
	s.RunUntilIdle()
	s.Shutdown()
	s.mu.Lock()
	n := len(s.carriers)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d carriers still idle after Shutdown", n)
	}
}

// TestDroppedSchedulerReleasesCarriers: an embedding that drops a
// scheduler without Shutdown strands no carrier goroutine. A parked
// carrier references only its channels, so the scheduler is collected
// and its cleanup releases the carrier.
func TestDroppedSchedulerReleasesCarriers(t *testing.T) {
	// Let earlier tests' dropped schedulers release their carriers
	// first, so the count below is this test's own.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	before := runtime.NumGoroutine()
	func() {
		s, _ := newSchedN(2)
		for cpu := mmu.CPUID(0); cpu < 2; cpu++ {
			if s.PopUpProtoOn(cpu, "irq", func(*Thread) {}) != nil {
				t.Fatal("non-blocking handler was promoted")
			}
		}
		s.mu.Lock()
		idle := len(s.carriers)
		s.mu.Unlock()
		if idle == 0 {
			t.Fatal("no carrier parked after a pop-up")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the scheduler existed", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
