// Package threads is the Paramecium thread package: an ordinary
// component living *outside* the nucleus that turns processor events
// into pop-up threads.
//
// The centrepiece is the proto-thread optimization from Section 3 of
// the paper: "for efficiency reasons, we delay the actual creation of
// the pop-up thread by creating a proto-thread. Only when the
// proto-thread is about to block or be rescheduled do we turn it into
// a real thread. This allows us to provide fast interrupt processing
// of user code with proper thread semantics."
//
// Threads are cooperative: at most one simulated thread runs per
// virtual CPU (one CPU, scheduled round-robin, unless the scheduler is
// built with NewSchedulerCPUs, which dispatches work-stealing across
// per-CPU run queues). Each simulated thread is backed by a host
// goroutine exchanging a baton with a dispatcher; all costs (thread
// creation, promotion, scheduling decisions) are charged in virtual
// cycles, so the host goroutine machinery does not pollute the
// experiments.
package threads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/mmu"
)

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	StateReady State = iota
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Thread is a simulated thread. The function run by the thread
// receives the *Thread and must use it for all blocking operations
// (Yield, Sleep, Mutex.Lock, Cond.Wait).
type Thread struct {
	id    uint64
	name  string
	sched *Scheduler

	// cpu is the virtual CPU the thread last ran on (its affinity for
	// requeueing), or NoCPU before the first dispatch. Stealing
	// rewrites it at the next dispatch.
	cpu atomic.Int32

	// node is the NUMA node first placement should rotate within —
	// the spawner's node for Thread.Spawn siblings — or -1 when the
	// thread has no placement hint. Meaningless once cpu is set.
	node atomic.Int32

	// mu guards the mutable fields below; the scheduler's own lock
	// orders cross-thread transitions.
	mu       sync.Mutex
	state    State
	proto    bool // started as a proto-thread
	promoted bool // proto-thread has been turned into a real thread

	// Baton protocol:
	//   resume <- : scheduler tells the thread to run.
	//   parked <- : thread tells the scheduler it stopped running.
	// For proto-threads the first stop is reported on protoDone
	// instead of parked (the dispatcher, not the scheduler, waits).
	resume    chan struct{}
	parked    chan struct{}
	protoDone chan bool // true = ran to completion, false = promoted

	// run hands a proto-thread carrier its next pop-up, whose body is
	// body; nil for threads made by Spawn.
	run  chan *Thread
	body func(*Thread)

	done chan struct{} // closed when the thread finishes
}

// ID returns the thread identifier.
func (t *Thread) ID() uint64 { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// State reports the current scheduling state.
func (t *Thread) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// LastCPU reports the virtual CPU the thread last ran on, or mmu.NoCPU
// if it has not been dispatched yet. The identity is the machine's
// own: scheduler CPU k is hw.Machine.CPUByID(k), so the value indexes
// per-CPU TLB and trap state directly.
func (t *Thread) LastCPU() mmu.CPUID { return mmu.CPUID(t.cpu.Load()) }

// Spawn creates an unaffined sibling thread placed near the spawner:
// with a NUMA topology the child's first placement rotates across the
// CPUs of the spawner's node (spilling cross-node only through work
// stealing); without one it falls back to the scheduler's flat
// round-robin. The full thread-creation cost is charged immediately.
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	return t.sched.spawnNear(mmu.CPUID(t.cpu.Load()), name, fn)
}

// Promoted reports whether this thread began life as a proto-thread
// and was promoted to a real thread.
func (t *Thread) Promoted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.promoted
}

// Done returns a channel closed when the thread finishes. Intended for
// the host-side test harness, not for simulated code. A proto-thread
// that completes inline never closes it: PopUpProtoOn hands out only
// promoted threads.
func (t *Thread) Done() <-chan struct{} { return t.done }

func (t *Thread) setState(s State) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}

// stop reports "I stopped running" before a block, yield or sleep to
// whoever is waiting: the scheduler (parked) or, for a not-yet-promoted
// proto-thread, the event dispatcher (protoDone) — which is the moment
// the proto-thread becomes a real thread.
func (t *Thread) stop() {
	t.mu.Lock()
	first := t.proto && !t.promoted
	if first {
		t.promoted = true
	}
	t.mu.Unlock()
	if first {
		t.protoDone <- false
		return
	}
	t.parked <- struct{}{}
}

// Yield voluntarily gives up the processor; the thread goes to the
// back of the ready queue. A proto-thread that yields is promoted (it
// is "about to be rescheduled").
func (t *Thread) Yield() {
	s := t.sched
	s.mu.Lock()
	wasProto := t.proto && !t.promoted
	if wasProto {
		s.chargePromotion()
	}
	t.setState(StateReady)
	s.ready(t)
	s.mu.Unlock()
	t.stop()
	<-t.resume
	t.setState(StateRunning)
}

// Sleep blocks the thread for the given number of virtual cycles. The
// scheduler advances the clock when all threads are sleeping, so
// virtual sleeps complete without wall-clock delay.
func (t *Thread) Sleep(cycles uint64) {
	s := t.sched
	s.mu.Lock()
	if t.proto && !t.promoted {
		s.chargePromotion()
	}
	t.setState(StateSleeping)
	deadline := s.meter.Clock.Now() + cycles
	s.sleepers = append(s.sleepers, sleeper{t: t, deadline: deadline})
	s.mu.Unlock()
	t.stop()
	<-t.resume
	t.setState(StateRunning)
}

// block parks the thread after registering it with a wait queue; the
// registration runs under the scheduler lock so wakeups cannot be
// lost. Used by the synchronization primitives.
func (t *Thread) block(register func()) {
	t.sched.mu.Lock()
	t.blockLocked(register)
}

// blockLocked is block for callers already holding the scheduler lock;
// it releases the lock before parking. A proto-thread blocking for the
// first time is promoted here.
func (t *Thread) blockLocked(register func()) {
	s := t.sched
	if t.proto && !t.promoted {
		s.chargePromotion()
	}
	t.setState(StateBlocked)
	if register != nil {
		register()
	}
	s.mu.Unlock()
	t.stop()
	<-t.resume
	t.setState(StateRunning)
}
