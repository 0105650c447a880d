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
)

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	StateReady State = iota
	StateRunning
	StateBlocked
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
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Thread is a simulated thread. The function run by the thread
// receives the *Thread and must use it for all blocking operations
// (Yield, Mutex.Lock, Queue.Pop).
type Thread struct {
	id    uint64
	name  string
	sched *Scheduler

	// cpu is the virtual CPU the thread last ran on (its affinity for
	// requeueing), or NoCPU before the first dispatch. Stealing
	// rewrites it at the next dispatch.
	cpu atomic.Int32

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
//
//paralint:ignore deadexport event's TestThreadFreeDeliveriesKeepThreadIDs pins that a thread-free pop-up consumes one ID, so later thread IDs do not depend on the handler form
func (t *Thread) ID() uint64 { return t.id }

func (t *Thread) setState(s State) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}

// stop reports "I stopped running" before a block or yield to
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
//
//paralint:ignore deadexport event's concurrent-delivery tests promote pop-ups through it to pin no leaked proto-thread carriers and Delivered == Inline + Promoted
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

// blockLocked parks the thread after registering it with a wait queue.
// The caller holds the scheduler lock, so wakeups cannot be lost; it is
// released before parking. A proto-thread blocking for the first time
// is promoted here.
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
