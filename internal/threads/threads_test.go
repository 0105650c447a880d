package threads

import (
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
)

func newSched() (*Scheduler, *clock.Meter) {
	meter := clock.NewMeter(clock.DefaultCosts())
	return NewScheduler(meter), meter
}

func TestSpawnRunsFunction(t *testing.T) {
	s, meter := newSched()
	ran := false
	th := s.Spawn("worker", func(*Thread) { ran = true })
	if got := s.RunUntilIdle(); got != 1 {
		t.Fatalf("dispatches = %d", got)
	}
	if !ran {
		t.Fatal("function did not run")
	}
	<-th.Done()
	if th.State() != StateDone {
		t.Fatalf("state = %v", th.State())
	}
	if meter.Count(clock.OpThreadCreate) != 1 {
		t.Fatal("thread creation not charged")
	}
	if s.LiveCount() != 0 {
		t.Fatalf("live = %d", s.LiveCount())
	}
}

func TestYieldRoundRobin(t *testing.T) {
	s, _ := newSched()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("w", func(th *Thread) {
			order = append(order, i)
			th.Yield()
			order = append(order, i+10)
		})
	}
	s.RunUntilIdle()
	want := []int{0, 1, 2, 10, 11, 12}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	inCritical := 0
	maxInCritical := 0
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(th *Thread) {
			m.Lock(th)
			inCritical++
			if inCritical > maxInCritical {
				maxInCritical = inCritical
			}
			th.Yield() // try to let others overlap
			inCritical--
			if err := m.Unlock(th); err != nil {
				t.Errorf("unlock: %v", err)
			}
		})
	}
	s.RunUntilIdle()
	if maxInCritical != 1 {
		t.Fatalf("max threads in critical section = %d", maxInCritical)
	}
	if m.Holder() != nil {
		t.Fatal("mutex still held")
	}
}

func TestMutexFairHandoff(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	var order []string
	s.Spawn("a", func(th *Thread) {
		m.Lock(th)
		th.Yield() // b and c queue up on the mutex
		th.Yield()
		order = append(order, "a")
		m.Unlock(th)
	})
	s.Spawn("b", func(th *Thread) {
		m.Lock(th)
		order = append(order, "b")
		m.Unlock(th)
	})
	s.Spawn("c", func(th *Thread) {
		m.Lock(th)
		order = append(order, "c")
		m.Unlock(th)
	})
	s.RunUntilIdle()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestMutexUnlockByNonOwner(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	var errA, errB error
	s.Spawn("a", func(th *Thread) {
		m.Lock(th)
		th.Yield()
		errA = m.Unlock(th)
	})
	s.Spawn("b", func(th *Thread) {
		errB = m.Unlock(th) // does not own it
	})
	s.RunUntilIdle()
	if errA != nil {
		t.Fatalf("owner unlock: %v", errA)
	}
	if errB != ErrNotOwner {
		t.Fatalf("non-owner unlock: %v", errB)
	}
}

func TestTryLock(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	var got []bool
	s.Spawn("a", func(th *Thread) {
		got = append(got, m.TryLock(th)) // true
		got = append(got, m.TryLock(th)) // false, already held
		m.Unlock(th)
		got = append(got, m.TryLock(th)) // true again
		m.Unlock(th)
	})
	s.RunUntilIdle()
	if len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Fatalf("TryLock results = %v", got)
	}
}

func TestCondWaitSignal(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	c := NewCond(m)
	ready := false
	var consumed []int
	s.Spawn("consumer", func(th *Thread) {
		m.Lock(th)
		for !ready {
			if err := c.Wait(th); err != nil {
				t.Errorf("wait: %v", err)
			}
		}
		consumed = append(consumed, 1)
		m.Unlock(th)
	})
	s.Spawn("producer", func(th *Thread) {
		m.Lock(th)
		ready = true
		c.Signal()
		m.Unlock(th)
	})
	s.RunUntilIdle()
	if len(consumed) != 1 {
		t.Fatalf("consumed = %v", consumed)
	}
}

func TestCondWaitRequiresMutex(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	c := NewCond(m)
	var err error
	s.Spawn("w", func(th *Thread) {
		err = c.Wait(th) // without holding m
	})
	s.RunUntilIdle()
	if err != ErrNotOwner {
		t.Fatalf("err = %v", err)
	}
}

func TestCondBroadcast(t *testing.T) {
	s, _ := newSched()
	m := NewMutex(s)
	c := NewCond(m)
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(th *Thread) {
			m.Lock(th)
			c.Wait(th)
			woken++
			m.Unlock(th)
		})
	}
	s.Spawn("caster", func(th *Thread) {
		m.Lock(th)
		c.Broadcast()
		m.Unlock(th)
	})
	s.RunUntilIdle()
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestSemaphore(t *testing.T) {
	s, _ := newSched()
	sem := NewSemaphore(s, 2)
	active, peak := 0, 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(th *Thread) {
			sem.P(th)
			active++
			if active > peak {
				peak = active
			}
			th.Yield()
			active--
			sem.V()
		})
	}
	s.RunUntilIdle()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if sem.Count() != 2 {
		t.Fatalf("final count = %d", sem.Count())
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	s, _ := newSched()
	q, err := NewQueue(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	s.Spawn("producer", func(th *Thread) {
		for i := 0; i < 5; i++ {
			q.Push(th, i) // blocks when full
		}
	})
	s.Spawn("consumer", func(th *Thread) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(th).(int))
		}
	})
	s.RunUntilIdle()
	if len(got) != 5 {
		t.Fatalf("got = %v", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v (order broken)", got)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue len = %d", q.Len())
	}
}

func TestQueueTryPush(t *testing.T) {
	s, _ := newSched()
	q, _ := NewQueue(s, 1)
	if !q.TryPush(1) {
		t.Fatal("push to empty failed")
	}
	if q.TryPush(2) {
		t.Fatal("push to full succeeded")
	}
	if _, err := NewQueue(s, 0); err != ErrQueueSize {
		t.Fatalf("zero capacity: %v", err)
	}
}

func TestPopUpProtoRunsToCompletionInline(t *testing.T) {
	s, meter := newSched()
	ran := false
	th := s.PopUpProtoOn(mmu.NoCPU, "irq", func(*Thread) { ran = true })
	if th != nil || !ran {
		t.Fatalf("promoted=%v ran=%v", th != nil, ran)
	}
	if meter.Count(clock.OpThreadCreate) != 0 || meter.Count(clock.OpPromote) != 0 {
		t.Fatal("proto path charged a thread creation")
	}
	if meter.Count(clock.OpProtoThread) != 1 {
		t.Fatal("proto-thread cost not charged")
	}
	if s.LiveCount() != 0 {
		t.Fatalf("live = %d", s.LiveCount())
	}
}

// TestPopUpInlineAccounting: a thread-free pop-up charges exactly what
// an inline proto-thread does, consumes one thread ID and leaves the
// live count alone.
func TestPopUpInlineAccounting(t *testing.T) {
	s, meter := newSched()
	first := s.Spawn("first", func(*Thread) {})
	live := s.LiveCount()
	w := meter.Clock.StartWatch()
	s.PopUpInline()
	inline := w.Elapsed()
	if got := s.LiveCount(); got != live {
		t.Fatalf("LiveCount %d -> %d across a thread-free pop-up", live, got)
	}
	w = meter.Clock.StartWatch()
	if s.PopUpProtoOn(mmu.NoCPU, "irq", func(*Thread) {}) != nil {
		t.Fatal("non-blocking pop-up was promoted")
	}
	if proto := w.Elapsed(); proto != inline {
		t.Fatalf("thread-free pop-up cost %d cycles, inline proto-thread %d", inline, proto)
	}
	if meter.Count(clock.OpProtoThread) != 2 || meter.Count(clock.OpThreadCreate) != 1 {
		t.Fatalf("%d proto-thread charges and %d creations, want 2 and 1",
			meter.Count(clock.OpProtoThread), meter.Count(clock.OpThreadCreate))
	}
	if next := s.Spawn("next", func(*Thread) {}); next.ID() != first.ID()+3 {
		t.Fatalf("next ID %d, want %d", next.ID(), first.ID()+3)
	}
	s.RunUntilIdle()
}

func TestPopUpProtoPromotesOnBlock(t *testing.T) {
	s, meter := newSched()
	m := NewMutex(s)
	q, _ := NewQueue(s, 1)
	// holder grabs the mutex and parks on the queue, simulating a
	// thread that owns a resource when the interrupt arrives.
	s.Spawn("holder", func(th *Thread) {
		m.Lock(th)
		q.Pop(th)
		m.Unlock(th)
	})
	s.RunUntilIdle()

	handlerDone := false
	th := s.PopUpProtoOn(mmu.NoCPU, "irq", func(t2 *Thread) {
		m.Lock(t2) // blocks: holder owns it -> promotion
		handlerDone = true
		m.Unlock(t2)
	})
	if th == nil {
		t.Fatal("blocking handler reported inline completion")
	}
	if !th.Promoted() {
		t.Fatal("blocked proto-thread not promoted")
	}
	if meter.Count(clock.OpPromote) != 1 || meter.Count(clock.OpThreadCreate) != 2 {
		t.Fatalf("promotion accounting: promote=%d create=%d",
			meter.Count(clock.OpPromote), meter.Count(clock.OpThreadCreate))
	}
	if handlerDone {
		t.Fatal("handler finished before mutex released")
	}
	// Unblock the holder; it releases the mutex, handing it to the
	// promoted thread.
	if !q.TryPush(struct{}{}) {
		t.Fatal("TryPush failed")
	}
	s.RunUntilIdle()
	<-th.Done()
	if !handlerDone {
		t.Fatal("promoted handler never completed")
	}
}

func TestPopUpProtoPromotesOnYield(t *testing.T) {
	s, meter := newSched()
	th := s.PopUpProtoOn(mmu.NoCPU, "irq", func(t2 *Thread) {
		t2.Yield() // "about to be rescheduled" -> promotion
	})
	if th == nil {
		t.Fatal("yielding handler reported inline completion")
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

func TestPopUpProtoPromotesOnSleep(t *testing.T) {
	s, _ := newSched()
	th := s.PopUpProtoOn(mmu.NoCPU, "irq", func(t2 *Thread) {
		t2.Sleep(100)
	})
	if th == nil || !th.Promoted() {
		t.Fatal("sleeping proto-thread not promoted")
	}
	s.RunUntilIdle()
	<-th.Done()
}

func TestPopUpEagerAlwaysCreatesThread(t *testing.T) {
	s, meter := newSched()
	ran := false
	s.PopUpEagerOn(mmu.NoCPU, "irq", func(*Thread) { ran = true })
	if meter.Count(clock.OpThreadCreate) != 1 {
		t.Fatal("eager pop-up did not create a thread")
	}
	if ran {
		t.Fatal("eager pop-up ran before scheduling")
	}
	s.RunUntilIdle()
	if !ran {
		t.Fatal("eager pop-up never ran")
	}
}

func TestProtoCheaperThanEagerForNonBlocking(t *testing.T) {
	// The core claim of the proto-thread design: when handlers run to
	// completion, the proto path costs far less virtual time.
	sE, meterE := newSched()
	w := sE.Meter().Clock.StartWatch()
	for i := 0; i < 100; i++ {
		sE.PopUpEagerOn(mmu.NoCPU, "irq", func(*Thread) {})
	}
	sE.RunUntilIdle()
	eager := w.Elapsed()
	_ = meterE

	sP, _ := newSched()
	w2 := sP.Meter().Clock.StartWatch()
	for i := 0; i < 100; i++ {
		sP.PopUpProtoOn(mmu.NoCPU, "irq", func(*Thread) {})
	}
	sP.RunUntilIdle()
	proto := w2.Elapsed()

	if proto*5 > eager {
		t.Fatalf("proto path (%d cycles) not clearly cheaper than eager (%d)", proto, eager)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s, meter := newSched()
	start := meter.Clock.Now()
	var wakeTimes []uint64
	s.Spawn("short", func(th *Thread) {
		th.Sleep(100)
		wakeTimes = append(wakeTimes, meter.Clock.Now())
	})
	s.Spawn("long", func(th *Thread) {
		th.Sleep(500)
		wakeTimes = append(wakeTimes, meter.Clock.Now())
	})
	s.RunUntilIdle()
	if len(wakeTimes) != 2 {
		t.Fatalf("wakeTimes = %v", wakeTimes)
	}
	if wakeTimes[0] > wakeTimes[1] {
		t.Fatal("short sleeper woke after long sleeper")
	}
	if meter.Clock.Now() < start+500 {
		t.Fatalf("clock = %d, want >= %d", meter.Clock.Now(), start+500)
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateReady: "ready", StateRunning: "running", StateBlocked: "blocked",
		StateSleeping: "sleeping", StateDone: "done",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d = %q", st, st.String())
		}
	}
	if State(99).String() != "state(99)" {
		t.Error("unknown state string")
	}
}

func TestThreadIdentity(t *testing.T) {
	s, _ := newSched()
	a := s.Spawn("alpha", func(*Thread) {})
	b := s.Spawn("beta", func(*Thread) {})
	if a.ID() == b.ID() {
		t.Fatal("duplicate thread IDs")
	}
	if a.Name() != "alpha" || b.Name() != "beta" {
		t.Fatal("names wrong")
	}
	s.RunUntilIdle()
}

func TestReadyCount(t *testing.T) {
	s, _ := newSched()
	s.Spawn("a", func(*Thread) {})
	s.Spawn("b", func(*Thread) {})
	if got := s.ReadyCount(); got != 2 {
		t.Fatalf("ready = %d", got)
	}
	s.RunUntilIdle()
	if got := s.ReadyCount(); got != 0 {
		t.Fatalf("ready after idle = %d", got)
	}
}
