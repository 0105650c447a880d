// Package hw simulates the machine Paramecium runs on: N virtual CPUs
// (Config.CPUs; one by default) with trap and interrupt vectors, an MMU
// (package mmu) with per-CPU context registers and TLBs, physical
// memory, I/O spaces and a small set of devices.
//
// The machine is deliberately not an instruction-set simulator.
// Components execute as Go code (or as PVM bytecode, package sandbox),
// but every access to *simulated memory* goes through LoadOn/StoreOn
// and therefore through the MMU, and every privileged transition (trap,
// interrupt, context switch) is charged on the shared cycle meter. This
// is exactly the level of detail the paper's arguments live at: counts
// of protection-boundary crossings, faults and run-time checks.
package hw

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/probe"
)

// TrapVector identifies a synchronous processor event (trap).
type TrapVector int

// The trap vectors the nucleus knows about.
const (
	TrapPageFault TrapVector = iota
	TrapSyscall
	TrapDivZero
	TrapIllegal
	TrapBreakpoint
)

func (v TrapVector) String() string {
	switch v {
	case TrapPageFault:
		return "page-fault"
	case TrapSyscall:
		return "syscall"
	case TrapDivZero:
		return "div-zero"
	case TrapIllegal:
		return "illegal"
	case TrapBreakpoint:
		return "breakpoint"
	}
	return fmt.Sprintf("trap(%d)", int(v))
}

// IRQLine identifies an interrupt source.
type IRQLine int

// NumIRQLines is the number of interrupt lines on the simulated machine.
const NumIRQLines = 16

// TrapFrame carries the state delivered with a trap or interrupt.
type TrapFrame struct {
	Vector TrapVector
	IRQ    IRQLine
	Ctx    mmu.ContextID
	Access mmu.Access // shares Ctx's word, keeping the frame at 56 bytes
	Addr   mmu.VAddr  // faulting address, if any
	Arg    uint64     // syscall number or device-specific argument
	// Token is a caller-supplied tag threaded from TouchTagged through
	// to the fault handler. Reentrant handlers (the cross-domain proxy)
	// key per-call state on it so concurrent faults on one page find
	// their own call frames. Zero means "untagged access".
	Token uint64
	// CPU is the virtual CPU the trap or interrupt was delivered on.
	// Handlers that switch contexts or charge TLB traffic use it to
	// operate on the right per-CPU MMU state.
	CPU mmu.CPUID
}

// TrapHandler handles a trap or interrupt. The handler for a page fault
// returns true if the fault was resolved and the access should be
// retried. The frame travels by value: delivery allocates nothing, and
// a handler (or a pop-up thread outliving it) owns its copy.
type TrapHandler func(TrapFrame) bool

// ErrNoHandler is returned when an event fires with no registered
// handler. On real hardware this would be a fatal watchdog reset.
var ErrNoHandler = errors.New("hw: no handler for event")

// ErrBadIRQ is returned for out-of-range interrupt lines.
var ErrBadIRQ = errors.New("hw: bad IRQ line")

// Machine is the simulated computer.
type Machine struct {
	Meter *clock.Meter
	MMU   *mmu.MMU
	Phys  *mmu.PhysMem

	// cpus are the machine's virtual processors; cpuRR round-robins
	// lease acquisition so concurrent callers spread across them.
	cpus  []*CPU
	cpuRR atomic.Uint64

	// topo is the validated NUMA shape, nil on the default single-node
	// machine (in which case no access is ever charged as remote).
	topo *Topology

	// traps is the trap vector table, an immutable map published by
	// pointer: SetTrapHandler copies it on write under mu, and RaiseTrap
	// reads it with one atomic load and no lock. Vectors are installed
	// at boot, so the copy costs nothing per trap.
	traps atomic.Pointer[map[TrapVector]TrapHandler]

	// mu guards the IRQ handler table and I/O spaces, and serializes
	// trap table writers. Trap delivery never takes it; interrupt
	// delivery takes it shared.
	mu       sync.RWMutex
	irqTable [NumIRQLines]TrapHandler
	iospaces map[string]*IORegion

	// stats, atomic: counted on the concurrent interrupt and lease
	// paths.
	irqsDropped  atomic.Uint64
	sharedLeases atomic.Uint64
}

// Config controls machine construction.
type Config struct {
	PhysFrames int        // number of physical frames (0 => 4096)
	MMU        mmu.Config // MMU configuration
	Costs      *clock.CostModel
	// CPUs is the virtual CPU count (0 => 1). It overrides MMU.CPUs:
	// the machine and its MMU always agree on the topology.
	CPUs int
	// Topology is the optional NUMA shape. When set it determines the
	// CPU count (Nodes × CPUsPerNode, overriding CPUs) and enables
	// remote-frame-access charging; a malformed topology panics at
	// construction. Nil is the classic flat machine.
	Topology *Topology
}

// New builds a machine.
func New(cfg Config) *Machine {
	frames := cfg.PhysFrames
	if frames <= 0 {
		frames = 4096
	}
	costs := clock.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	var topo *Topology
	if cfg.Topology != nil {
		var err error
		if topo, err = cfg.Topology.validate(); err != nil {
			panic(err)
		}
	}
	ncpu := cfg.CPUs
	if topo != nil {
		ncpu = topo.NumCPUs()
	}
	if ncpu <= 0 {
		ncpu = cfg.MMU.CPUs
	}
	if ncpu <= 0 {
		ncpu = 1
	}
	mmuCfg := cfg.MMU
	mmuCfg.CPUs = ncpu
	meter := clock.NewMeter(costs)
	m := &Machine{
		Meter:    meter,
		MMU:      mmu.New(meter, mmuCfg),
		Phys:     mmu.NewPhysMem(frames),
		topo:     topo,
		iospaces: make(map[string]*IORegion),
	}
	m.traps.Store(&map[TrapVector]TrapHandler{})
	m.cpus = make([]*CPU, ncpu)
	for i := range m.cpus {
		m.cpus[i] = &CPU{id: mmu.CPUID(i), m: m}
	}
	return m
}

// SetTrapHandler installs the handler for a trap vector, returning the
// previous handler (nil if none). Passing a nil handler uninstalls.
func (m *Machine) SetTrapHandler(v TrapVector, h TrapHandler) TrapHandler {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.traps.Load()
	next := maps.Clone(old)
	if h == nil {
		delete(next, v)
	} else {
		next[v] = h
	}
	m.traps.Store(&next)
	return old[v]
}

// SetIRQHandler installs the handler for an interrupt line.
func (m *Machine) SetIRQHandler(line IRQLine, h TrapHandler) (TrapHandler, error) {
	if line < 0 || line >= NumIRQLines {
		return nil, fmt.Errorf("%w: %d", ErrBadIRQ, line)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.irqTable[line]
	m.irqTable[line] = h
	return prev, nil
}

// RaiseTrap delivers a synchronous trap, charging trap entry and exit.
// It returns the handler's verdict (meaningful for page faults) or
// ErrNoHandler.
func (m *Machine) RaiseTrap(frame TrapFrame) (bool, error) {
	if frame.CPU < 0 || int(frame.CPU) >= len(m.cpus) {
		// Rejected up front: handlers index per-CPU state (delivery
		// locks, context registers) by frame.CPU and would panic on a
		// CPU the machine does not have.
		return false, fmt.Errorf("hw: no CPU %d (machine has %d)", frame.CPU, len(m.cpus))
	}
	h := (*m.traps.Load())[frame.Vector]
	// The trapping context pays for both protection-boundary legs.
	m.Meter.ChargeFor(uint32(frame.Ctx), clock.OpTrapEnter)
	defer m.Meter.ChargeFor(uint32(frame.Ctx), clock.OpTrapExit)
	if probe.Enabled() {
		m.Meter.Emit(int(frame.CPU), probe.KindTrap, uint32(frame.Ctx), uint64(frame.Vector), uint64(frame.Arg))
	}
	if h == nil {
		return false, fmt.Errorf("%w: trap %v", ErrNoHandler, frame.Vector)
	}
	return h(frame), nil
}

// RaiseIRQOn delivers an interrupt on the given line to one CPU: the
// trap frame carries that CPU's ID and active context, so the handler
// runs against the interrupted CPU's MMU state. Delivery only reads the
// handler table, under the shared lock, so concurrent interrupts
// dispatch in parallel. An unhandled line drops the interrupt and
// counts it.
func (m *Machine) RaiseIRQOn(line IRQLine, cpu mmu.CPUID) error {
	if line < 0 || line >= NumIRQLines {
		return fmt.Errorf("%w: %d", ErrBadIRQ, line)
	}
	if cpu < 0 || int(cpu) >= len(m.cpus) {
		return fmt.Errorf("hw: no CPU %d (machine has %d)", cpu, len(m.cpus))
	}
	m.mu.RLock()
	h := m.irqTable[line]
	m.mu.RUnlock()
	if h == nil {
		m.irqsDropped.Add(1)
		return fmt.Errorf("%w: irq %d", ErrNoHandler, line)
	}
	m.cpus[cpu].irqs.Add(1)
	m.Meter.ChargeFor(clock.KernelDomain, clock.OpInterrupt)
	h(TrapFrame{Vector: -1, IRQ: line, Ctx: m.MMU.CurrentOn(cpu), CPU: cpu})
	return nil
}

// LoadOn reads len(buf) bytes of simulated memory at va in context ctx
// through the named CPU's MMU state, so the access populates (and its
// misses charge) that CPU's TLB. Page faults are delivered as traps; if
// the page-fault handler reports the fault resolved, the access is
// retried (once per page). Code with no dispatched CPU passes
// mmu.BootCPU.
func (m *Machine) LoadOn(cpu mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, buf []byte) error {
	return m.accessOn(cpu, ctx, va, buf, mmu.AccessRead)
}

// StoreOn writes buf to simulated memory at va in context ctx through
// the named CPU's MMU state.
func (m *Machine) StoreOn(cpu mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, buf []byte) error {
	return m.accessOn(cpu, ctx, va, buf, mmu.AccessWrite)
}

// accessOn moves buf through the MMU page by page on one CPU: the
// memory-access data plane under every Load/Store.
//
//paramecium:hotpath
func (m *Machine) accessOn(cpu mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, buf []byte, kind mmu.Access) error {
	for len(buf) > 0 {
		pa, f, cause := m.translateWithFaults(cpu, ctx, va, kind, 0)
		if f.Kind != mmu.FaultNone {
			return faultErr(pa, f, cause)
		}
		n := mmu.PageSize - int(va.Offset())
		if n > len(buf) {
			n = len(buf)
		}
		// Charge before touching DRAM: the cost model bills the copy
		// attempt, so the movement below is always pre-paid. The touching
		// context pays for its own memory traffic.
		m.Meter.ChargeNFor(uint32(ctx), clock.OpCopyWord, uint64((n+7)/8))
		if m.topo != nil {
			m.chargeRemote(cpu, ctx, pa)
		}
		var err error
		if kind == mmu.AccessWrite {
			err = m.Phys.Write(pa, buf[:n])
		} else {
			err = m.Phys.Read(pa, buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		va += mmu.VAddr(n)
	}
	return nil
}

// Delivery failures of a page fault, reported ahead of the fault.
var (
	errFaultUnhandled = errors.New("hw: unhandled page fault")
	errFaultPersists  = errors.New("hw: fault persists after handler")
)

// translateWithFaults translates va on one CPU, delivering a
// page-fault trap on failure and retrying once if the handler reports
// the fault resolved. The trap frame carries the CPU, so the handler's
// own crossings and TLB traffic charge against the faulting CPU.
//
// The fault travels by value, in and out: the trap frame is built on
// the stack and the outcome is returned with Kind FaultNone on
// success, or as the fault that stopped the access, with cause set
// when delivery itself failed (no handler, or a handler that claimed a
// resolution it did not make). Nothing here allocates; only the
// error-returning access forms box the fault, through faultErr.
func (m *Machine) translateWithFaults(cpu mmu.CPUID, ctx mmu.ContextID, va mmu.VAddr, kind mmu.Access, token uint64) (pa mmu.PAddr, f mmu.Fault, cause error) {
	for attempt := 0; ; attempt++ {
		pa, f = m.MMU.TranslateOn(cpu, ctx, va, kind)
		if f.Kind == mmu.FaultNone {
			return pa, f, nil
		}
		if attempt > 0 {
			// The handler claimed resolution but the fault persists:
			// report it rather than spinning.
			return 0, f, errFaultPersists
		}
		m.Meter.ChargeFor(uint32(ctx), clock.OpPageFault)
		if probe.Enabled() {
			m.Meter.Emit(int(cpu), probe.KindFault, uint32(ctx), uint64(va), uint64(kind))
		}
		resolved, herr := m.RaiseTrap(TrapFrame{
			Vector: TrapPageFault,
			Ctx:    ctx,
			Addr:   va,
			Access: kind,
			Token:  token,
			CPU:    cpu,
		})
		if herr != nil {
			return 0, f, errFaultUnhandled
		}
		if !resolved {
			return 0, f, nil
		}
	}
}

// faultErr is the error form of a translateWithFaults outcome: nil on
// success, else the fault boxed as a *mmu.Fault, prefixed by its
// delivery cause when there is one. Boxing lives here, out of the
// translate loop: taking the address of the loop's fault would make it
// escape, and every access would pay a heap allocation.
func faultErr(_ mmu.PAddr, f mmu.Fault, cause error) error {
	if f.Kind == mmu.FaultNone {
		return nil
	}
	if cause != nil {
		return fmt.Errorf("%v: %w", cause, &f)
	}
	return &f
}

// AttachDevice registers a device and its I/O region, and wires the
// device to the machine for interrupt raising.
func (m *Machine) AttachDevice(d Device) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	region := d.IORegion()
	if region != nil {
		if _, dup := m.iospaces[region.Name]; dup {
			return fmt.Errorf("hw: duplicate I/O region %q", region.Name)
		}
		m.iospaces[region.Name] = region
	}
	d.attach(m)
	return nil
}

// IORegionByName returns a registered I/O region.
func (m *Machine) IORegionByName(name string) (*IORegion, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.iospaces[name]
	return r, ok
}
