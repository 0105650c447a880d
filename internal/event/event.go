// Package event implements the nucleus' processor event management
// service: "All processor events (traps and interrupts) are handled by
// this service. Components can register call-backs which are called
// every time a specified processor event occurs. A call-back consists
// of a context, and the address of a call-back function." This
// service binds the interrupts; the one trap the kernel handles, the
// page fault, is bound on the machine by the memory service.
//
// Events are "usually redirected to the thread system to turn them
// into pop-up threads"; the service supports three dispatch policies
// so the experiments can compare them:
//
//   - DispatchRaw: the call-back runs directly on the interrupt
//     context. Fastest, but the handler must never block.
//   - DispatchProto: the call-back runs as a proto-thread, promoted to
//     a real thread only if it blocks (the paper's design).
//   - DispatchEager: a full pop-up thread is created for every event
//     (the baseline the proto-thread optimization beats).
//
// A call-back comes in two forms. A Handler is given its thread and
// may block on it; under DispatchProto it runs on a carrier goroutine
// that can become the promoted thread's stack. A ThreadFreeHandler is
// given no thread, so it cannot block (every blocking primitive of
// the thread package takes the blocking *threads.Thread); under
// DispatchProto it runs directly on the delivering goroutine, charged
// and numbered as a proto-thread, with no carrier handoff. Under raw
// and eager dispatch both forms behave alike.
package event

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/threads"
)

// Dispatch selects how a registered call-back is executed.
type Dispatch int

// Dispatch policies.
const (
	DispatchRaw Dispatch = iota
	DispatchProto
	DispatchEager
)

func (d Dispatch) String() string {
	switch d {
	case DispatchRaw:
		return "raw"
	case DispatchProto:
		return "proto"
	case DispatchEager:
		return "eager"
	}
	return fmt.Sprintf("dispatch(%d)", int(d))
}

// Handler is an event call-back that takes its thread. The frame is
// the handler's own copy. For thread dispatches t is the
// (proto-)thread the handler runs on; for DispatchRaw t is nil and the
// handler must not block. A proto handler that completes inline must
// not keep t: its carrier serves the next pop-up. A handler that never
// uses t should be a ThreadFreeHandler, which proto dispatch runs
// without a carrier.
type Handler func(frame hw.TrapFrame, t *threads.Thread)

// ThreadFreeHandler is an event call-back that is given no thread and
// therefore cannot block. Register it with RegisterThreadFreeIRQOn.
type ThreadFreeHandler func(frame hw.TrapFrame)

// ErrBound is returned when registering over an existing binding.
var ErrBound = errors.New("event: event already bound")

// ErrNotBound is returned when unregistering a free event.
var ErrNotBound = errors.New("event: event not bound")

// binding is one registered call-back.
type binding struct {
	ctx      mmu.ContextID
	cpu      mmu.CPUID // CPU the call-back is routed to
	dispatch Dispatch
	handler  Handler
	free     ThreadFreeHandler // set only for a thread-free binding
	name     string

	// popUp is the proto-thread body, built once at registration so
	// a delivery allocates no closure. deliver stores each delivery's
	// trap frame in frame under the CPU's delivery lock, and popUp
	// passes the handler a copy before the handler can block, so the
	// next delivery may overwrite it.
	popUp func(*threads.Thread)
	frame hw.TrapFrame

	// The counters are atomics so a delivery takes no binding lock.
	// deliver bumps delivered before the outcome, and IRQStats reads
	// the outcomes first, so a snapshot never shows more outcomes than
	// deliveries.
	delivered atomic.Uint64
	promoted  atomic.Uint64
	inline    atomic.Uint64 // proto-threads that completed without promotion
}

// Stats is a snapshot of a binding's delivery counters.
type Stats struct {
	Name      string
	Dispatch  Dispatch
	Delivered uint64
	Promoted  uint64
	Inline    uint64
}

// Service is the processor event management service.
type Service struct {
	machine *hw.Machine
	sched   *threads.Scheduler

	mu   sync.Mutex
	irqs map[hw.IRQLine]*binding

	// deliveryMu serializes deliveries per virtual CPU: a CPU runs one
	// handler at a time, exactly as hardware delivers with interrupts
	// masked, so the switch/restore pairs on one CPU's context register
	// can never interleave. Consequence (also hardware-faithful): a
	// handler must not synchronously raise an event routed to its own
	// CPU — that is spinning with interrupts off. Raise it on another
	// CPU or defer it to a thread.
	deliveryMu []sync.Mutex
}

// New builds the service over a machine and a thread scheduler.
func New(machine *hw.Machine, sched *threads.Scheduler) *Service {
	return &Service{
		machine:    machine,
		sched:      sched,
		irqs:       make(map[hw.IRQLine]*binding),
		deliveryMu: make([]sync.Mutex, machine.NumCPUs()),
	}
}

// RegisterIRQOn binds an interrupt line to a call-back running in ctx
// under the given dispatch policy, routed to the given CPU: raw and
// proto deliveries enter the call-back's context on that CPU's
// register (so cross-context delivery charges land on it), and pop-up
// threads — proto promotions and eager threads alike — are queued on
// that CPU's run queue. Concurrent interrupts bound to distinct CPUs
// dispatch and run genuinely in parallel; deliveries to one CPU
// serialize, as hardware does with interrupts masked.
func (s *Service) RegisterIRQOn(line hw.IRQLine, name string, ctx mmu.ContextID, d Dispatch, cpu mmu.CPUID, h Handler) error {
	if h == nil {
		return errors.New("event: nil handler")
	}
	b := &binding{ctx: ctx, cpu: cpu, dispatch: d, handler: h, name: name}
	b.popUp = func(t *threads.Thread) { b.handler(b.frame, t) }
	return s.registerIRQ(line, b)
}

// RegisterThreadFreeIRQOn is RegisterIRQOn for a call-back that takes
// no thread. Under DispatchProto it runs inline on the delivering
// goroutine: a handler with no thread cannot block, so it can never
// need the stack of its own that a carrier exists to provide. It is
// still charged, counted and numbered as an inline proto-thread. Raw
// dispatch runs it as RegisterIRQOn would; eager dispatch still
// creates and charges a thread for every event.
func (s *Service) RegisterThreadFreeIRQOn(line hw.IRQLine, name string, ctx mmu.ContextID, d Dispatch, cpu mmu.CPUID, h ThreadFreeHandler) error {
	if h == nil {
		return errors.New("event: nil handler")
	}
	b := &binding{ctx: ctx, cpu: cpu, dispatch: d, free: h, name: name}
	b.handler = func(f hw.TrapFrame, _ *threads.Thread) { h(f) }
	return s.registerIRQ(line, b)
}

func (s *Service) registerIRQ(line hw.IRQLine, b *binding) error {
	if b.cpu < 0 || int(b.cpu) >= s.machine.NumCPUs() {
		return fmt.Errorf("event: no CPU %d (machine has %d)", b.cpu, s.machine.NumCPUs())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.irqs[line]; dup {
		return fmt.Errorf("%w: irq %d", ErrBound, line)
	}
	if _, err := s.machine.SetIRQHandler(line, func(f hw.TrapFrame) bool {
		s.deliver(b, f)
		return true
	}); err != nil {
		return err
	}
	s.irqs[line] = b
	return nil
}

// UnregisterIRQ removes an interrupt binding.
func (s *Service) UnregisterIRQ(line hw.IRQLine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.irqs[line]; !ok {
		return fmt.Errorf("%w: irq %d", ErrNotBound, line)
	}
	if _, err := s.machine.SetIRQHandler(line, nil); err != nil {
		return err
	}
	delete(s.irqs, line)
	return nil
}

// deliver runs one interrupt call-back under its dispatch policy,
// routed to the binding's CPU. The synchronous dispatches (raw, and
// proto up to its promotion point) hold the CPU's delivery lock for
// the handler's duration, so their register use never interleaves. An
// eager pop-up runs WITHOUT the delivery lock (a real thread may
// block, and holding the CPU's delivery slot across a block could
// deadlock it): see deliverEager for the resulting — and
// deliberately weaker — multi-CPU guarantee.
//
//paramecium:hotpath
func (s *Service) deliver(b *binding, f hw.TrapFrame) {
	b.delivered.Add(1)

	switch b.dispatch {
	case DispatchRaw:
		s.deliveryMu[b.cpu].Lock()
		s.retarget(b, &f)
		prev := s.enterContext(b.cpu, b.ctx)
		b.handler(f, nil)
		s.leaveContext(b.cpu, b.ctx, prev)
		s.deliveryMu[b.cpu].Unlock()
	case DispatchProto:
		s.deliveryMu[b.cpu].Lock()
		s.retarget(b, &f)
		prev := s.enterContext(b.cpu, b.ctx)
		inline := true
		if b.free != nil {
			// No thread, so no way to block: the proto-thread runs to
			// completion right here, on the interrupted goroutine.
			s.sched.PopUpInline()
			b.free(f)
		} else {
			// The promotion path keeps the binding's CPU: a handler
			// that blocks continues as a real thread on b.cpu's run
			// queue. The delivery lock is NOT held by that
			// continuation — only the inline portion (which by
			// construction ends at the first block) runs under it, and
			// that portion is where b.popUp copies the frame out of
			// the binding.
			b.frame = f
			inline = s.sched.PopUpProtoOn(b.cpu, b.name, b.popUp) == nil
		}
		s.leaveContext(b.cpu, b.ctx, prev)
		s.deliveryMu[b.cpu].Unlock()
		if inline {
			b.inline.Add(1)
		} else {
			b.promoted.Add(1)
		}
	case DispatchEager:
		s.deliverEager(b, f)
	}
}

// deliverEager queues an eager pop-up thread for one delivery. It is
// its own function because the thread body keeps a copy of the frame:
// only this path moves a frame to the heap.
//
// The thread runs under the scheduler later, queued on the binding's
// CPU. Its body enters the binding's context exactly as the other
// policies do, but WITHOUT the CPU's delivery lock: an eager pop-up is
// a real thread that may block or yield, and holding the delivery slot
// across a block could deadlock the CPU. On a single-CPU scheduler
// bodies run one at a time, so the switch/restore pairs cannot
// interleave; on a multiprocessor scheduler, concurrent eager handlers
// bound to one CPU may interleave their courtesy register use —
// handlers needing exact context isolation use raw or proto dispatch.
// Scheduler CPU k and machine CPU k are one identity (the thread's own
// Load/Store charge b.cpu's TLB), but eager bodies still share the
// context register by design: context isolation is what the raw/proto
// delivery locks are for.
func (s *Service) deliverEager(b *binding, f hw.TrapFrame) {
	s.deliveryMu[b.cpu].Lock()
	s.retarget(b, &f)
	s.deliveryMu[b.cpu].Unlock()
	s.sched.PopUpEagerOn(b.cpu, b.name, func(t *threads.Thread) {
		prev := s.enterContext(b.cpu, b.ctx)
		defer s.leaveContext(b.cpu, b.ctx, prev)
		b.handler(f, t)
	})
}

// retarget points a routed delivery's frame at the binding's CPU. Ctx
// is re-read under the CPU's delivery lock so it is the context that
// is genuinely current on frame.CPU at delivery time — never a context
// that was only ever current on the arrival CPU, and never another
// delivery's transient handler context.
func (s *Service) retarget(b *binding, f *hw.TrapFrame) {
	if b.cpu != f.CPU {
		f.CPU = b.cpu
		f.Ctx = s.machine.MMU.CurrentOn(b.cpu)
	}
}

// enterContext switches one CPU's MMU register to the call-back's
// context if needed and returns the context to restore with
// leaveContext. Delivering an event into another protection domain
// costs two context switches — exactly the cost a user-level handler
// pays over a kernel-resident one — and the charges (plus any
// flush-on-switch TLB loss) land on the delivering CPU alone.
func (s *Service) enterContext(cpu mmu.CPUID, ctx mmu.ContextID) (prev mmu.ContextID) {
	prev = s.machine.MMU.CurrentOn(cpu)
	if ctx != prev {
		// Switch errors mean the context died; the event is delivered
		// in the current context rather than dropped.
		if err := s.machine.MMU.SwitchOn(cpu, ctx); err != nil {
			return ctx
		}
	}
	return prev
}

// leaveContext undoes enterContext: it switches cpu back to prev when
// the call-back's context ctx was actually entered.
func (s *Service) leaveContext(cpu mmu.CPUID, ctx, prev mmu.ContextID) {
	if prev != ctx {
		_ = s.machine.MMU.SwitchOn(cpu, prev)
	}
}

// IRQStats reports the counters of an interrupt binding.
func (s *Service) IRQStats(line hw.IRQLine) (Stats, bool) {
	s.mu.Lock()
	b, ok := s.irqs[line]
	s.mu.Unlock()
	if !ok {
		return Stats{}, false
	}
	promoted, inline := b.promoted.Load(), b.inline.Load()
	return Stats{
		Name:      b.name,
		Dispatch:  b.dispatch,
		Delivered: b.delivered.Load(),
		Promoted:  promoted,
		Inline:    inline,
	}, true
}
