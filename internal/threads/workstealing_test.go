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

func newSchedN(n int) (*Scheduler, *clock.Meter) {
	meter := clock.NewMeter(clock.DefaultCosts())
	return NewSchedulerCPUs(meter, n), meter
}

// TestMultiCPUDispatchCompletesAll: every spawned thread runs to
// completion under the parallel dispatch loops, and the dispatch count
// stays exact (one per run segment) no matter how threads migrate.
func TestMultiCPUDispatchCompletesAll(t *testing.T) {
	s, _ := newSchedN(4)
	const threads = 200
	var ran atomic.Int64
	for i := 0; i < threads; i++ {
		s.Spawn("w", func(th *Thread) {
			th.Yield()
			th.Yield()
			ran.Add(1)
		})
	}
	got := s.RunUntilIdle()
	if ran.Load() != threads {
		t.Fatalf("%d threads ran, want %d", ran.Load(), threads)
	}
	// Each thread has three run segments (two yields): the dispatch
	// count is exact even when segments execute on different CPUs.
	if want := threads * 3; got != want {
		t.Fatalf("dispatches = %d, want %d", got, want)
	}
	if s.LiveCount() != 0 {
		t.Fatalf("live = %d", s.LiveCount())
	}
	if s.ReadyCount() != 0 {
		t.Fatalf("ready = %d", s.ReadyCount())
	}
}

// TestSpawnOnPlacesOnAffineQueue: SpawnOn queues the thread on the
// requested CPU's local deque.
func TestSpawnOnPlacesOnAffineQueue(t *testing.T) {
	s, _ := newSchedN(4)
	th := s.SpawnOn(2, "affine", func(*Thread) {})
	s.cpus[2].mu.Lock()
	n := len(s.cpus[2].q)
	s.cpus[2].mu.Unlock()
	if n != 1 {
		t.Fatalf("CPU 2 queue holds %d threads, want 1", n)
	}
	if th.LastCPU() != 2 {
		t.Fatalf("affinity = %d, want 2", th.LastCPU())
	}
	s.RunUntilIdle()
	<-th.Done()
}

// TestStealTakesHalfFromTail: a thief takes half the victim's deque
// from the back — the newest thread to run immediately, the rest onto
// its own queue — while the owner keeps the front half in FIFO order.
func TestStealTakesHalfFromTail(t *testing.T) {
	s, _ := newSchedN(2)
	var ths []*Thread
	for i := 0; i < 4; i++ {
		ths = append(ths, s.SpawnOn(0, "victim-work", func(*Thread) {}))
	}
	stolen := s.stealFor(1, clock.NewRand(1))
	if stolen == nil {
		t.Fatal("nothing stolen from a 4-deep victim queue")
	}
	if stolen != ths[3] {
		t.Fatalf("stole thread %d, want the newest (%d)", stolen.ID(), ths[3].ID())
	}
	if s.Steals() != 1 {
		t.Fatalf("steal operations = %d, want 1", s.Steals())
	}
	if s.StolenThreads() != 2 {
		t.Fatalf("stolen threads = %d, want 2 (half of 4)", s.StolenThreads())
	}
	// The other half of the batch landed on the thief's queue, oldest
	// first; the victim keeps its front half in order.
	if got := s.pop(1); got != ths[2] {
		t.Fatalf("thief queue holds %v, want %d", got, ths[2].ID())
	}
	if popped := s.pop(0); popped != ths[0] {
		t.Fatalf("owner popped %v, want the oldest (%d)", popped, ths[0].ID())
	}
	// Put everything back so the run can drain it.
	s.mu.Lock()
	s.ready(stolen)
	s.ready(ths[0])
	s.ready(ths[2])
	s.mu.Unlock()
	s.RunUntilIdle()
	for _, th := range ths {
		<-th.Done()
	}
}

// TestStealHalfRebalancesBurst: a burst of pop-up work concentrated on
// one CPU — the shape a hot interrupt line produces — spreads across
// the topology in far fewer steal operations than threads, because
// each operation migrates half a deque. With one-at-a-time stealing
// the operation count would equal the migrated-thread count.
func TestStealHalfRebalancesBurst(t *testing.T) {
	s, _ := newSchedN(4)
	const burst = 64
	var ran atomic.Int64
	for i := 0; i < burst; i++ {
		// Every thread is affined to CPU 0, exactly like pop-up threads
		// of an interrupt bound there; the body is long enough that the
		// other CPUs must steal to help.
		s.PopUpEagerOn(0, "burst", func(th *Thread) {
			th.Yield()
			ran.Add(1)
		})
	}
	s.RunUntilIdle()
	if ran.Load() != burst {
		t.Fatalf("%d ran, want %d", ran.Load(), burst)
	}
	ops, moved := s.Steals(), s.StolenThreads()
	if ops == 0 || moved == 0 {
		t.Fatal("a 64-thread burst on one CPU of four triggered no stealing")
	}
	if moved <= ops {
		t.Fatalf("stolen threads (%d) <= steal operations (%d): stealing one at a time, not half-deques", moved, ops)
	}
}

// TestPersistentDispatchersReused: the parallel run spawns one host
// dispatcher per CPU once; repeated scheduler pumps reuse the parked
// pool instead of spawning per call.
func TestPersistentDispatchersReused(t *testing.T) {
	s, _ := newSchedN(4)
	const pumps = 10
	var ran atomic.Int64
	for p := 0; p < pumps; p++ {
		for i := 0; i < 8; i++ {
			s.Spawn("w", func(th *Thread) {
				th.Yield()
				ran.Add(1)
			})
		}
		if got := s.RunUntilIdle(); got != 8*2 {
			t.Fatalf("pump %d: dispatches = %d, want 16", p, got)
		}
	}
	if ran.Load() != pumps*8 {
		t.Fatalf("%d ran, want %d", ran.Load(), pumps*8)
	}
	if got := s.DispatcherSpawns(); got != 4 {
		t.Fatalf("dispatcher spawns = %d over %d pumps, want one per CPU (4)", got, pumps)
	}
}

// TestShutdownReleasesPoolAndRespawns: Shutdown retires the parked
// dispatcher pool (no goroutines stranded for the process lifetime);
// the scheduler stays usable and the next pump spawns a fresh pool.
func TestShutdownReleasesPoolAndRespawns(t *testing.T) {
	s, _ := newSchedN(2)
	run := func() {
		var ran atomic.Int64
		for i := 0; i < 4; i++ {
			s.Spawn("w", func(*Thread) { ran.Add(1) })
		}
		s.RunUntilIdle()
		if ran.Load() != 4 {
			t.Fatalf("%d ran, want 4", ran.Load())
		}
	}
	run()
	if got := s.DispatcherSpawns(); got != 2 {
		t.Fatalf("spawns = %d, want 2", got)
	}
	before := runtime.NumGoroutine()
	s.Shutdown()
	// The two parked workers must exit; give the runtime a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before-2 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > before-2 {
		t.Fatalf("goroutines = %d after Shutdown, want <= %d", got, before-2)
	}
	s.Shutdown() // idempotent
	run()        // respawns a fresh pool
	if got := s.DispatcherSpawns(); got != 4 {
		t.Fatalf("spawns = %d after respawn, want 4", got)
	}
	s.Shutdown()
}

// TestIdleCPUsParkAndWakeUnderHandoff: with far more CPUs than
// runnable threads, idle CPUs must park — and every blocking handoff
// between the two workers must wake one back up without losing the
// wakeup. Completion of the full ping-pong is the liveness proof.
func TestIdleCPUsParkAndWakeUnderHandoff(t *testing.T) {
	s, _ := newSchedN(4)
	const rounds = 500
	ping, err := NewQueue(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	pong, err := NewQueue(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	s.Spawn("ping", func(th *Thread) {
		for i := 0; i < rounds; i++ {
			ping.Push(th, i)
			sum += pong.Pop(th).(int)
		}
	})
	s.Spawn("pong", func(th *Thread) {
		for i := 0; i < rounds; i++ {
			v := ping.Pop(th).(int)
			pong.Push(th, v*2)
		}
	})
	s.RunUntilIdle()
	if want := rounds * (rounds - 1); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if s.Parks() == 0 {
		t.Fatal("no CPU ever parked with 4 CPUs and 2 runnable threads")
	}
}

// TestMultiCPUSleepersAdvanceClock: when every CPU idles and threads
// sleep on the virtual clock, the last parking CPU advances time and
// the sleepers wake — no wall-clock delay, no hang.
func TestMultiCPUSleepersAdvanceClock(t *testing.T) {
	s, meter := newSchedN(4)
	start := meter.Clock.Now()
	var woke atomic.Int64
	s.Spawn("short", func(th *Thread) {
		th.Sleep(100)
		woke.Add(1)
	})
	s.Spawn("long", func(th *Thread) {
		th.Sleep(500)
		woke.Add(1)
	})
	s.RunUntilIdle()
	if woke.Load() != 2 {
		t.Fatalf("woke = %d, want 2", woke.Load())
	}
	if meter.Clock.Now() < start+500 {
		t.Fatalf("clock = %d, want >= %d", meter.Clock.Now(), start+500)
	}
}

// TestMultiCPUConcurrentSpawn: spawns racing the parallel dispatch
// loops from many host goroutines all complete exactly once.
func TestMultiCPUConcurrentSpawn(t *testing.T) {
	s, _ := newSchedN(4)
	const spawners = 8
	const each = 50
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Spawn("w", func(th *Thread) {
					th.Yield()
					ran.Add(1)
				})
			}
		}()
	}
	wg.Wait()
	s.RunUntilIdle()
	if got := ran.Load(); got != spawners*each {
		t.Fatalf("%d ran, want %d", got, spawners*each)
	}
	if s.LiveCount() != 0 {
		t.Fatalf("live = %d", s.LiveCount())
	}
}

// TestMultiCPUProtoPromotion: a proto-thread promoted while the
// parallel loops are quiescent is picked up by the next run.
func TestMultiCPUProtoPromotion(t *testing.T) {
	s, meter := newSchedN(2)
	th := s.PopUpProtoOn(mmu.NoCPU, "irq", func(t2 *Thread) {
		t2.Yield()
	})
	if th == nil {
		t.Fatal("yielding proto-thread reported inline completion")
	}
	if !th.Promoted() {
		t.Fatal("yielding proto-thread not promoted")
	}
	if meter.Count(clock.OpPromote) != 1 {
		t.Fatal("promotion not charged")
	}
	s.RunUntilIdle()
	<-th.Done()
}
