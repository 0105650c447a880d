// Package clock provides the virtual time base for the simulated machine.
//
// Every component of the Paramecium reproduction charges work against a
// shared Clock, expressed in cycles of a SPARC-flavoured processor. This
// keeps the benchmark results deterministic: the *shape* of every
// experiment (who wins, where the crossover falls) depends only on the
// cost model, not on the host machine.
//
// A Meter's clock is derived, not accumulated: a charge only counts the
// operation, and the clock reads as the sum over operations of count ×
// cost, plus the cycles advanced outside any charge (the scheduler's
// idle fast-forward). "Clock equals the sum of charges" therefore holds
// by construction, and a charge costs one atomic add. The cost model is
// frozen once the meter is built, since every read of the clock
// multiplies by it.
package clock

import (
	"fmt"
	"sync/atomic"

	"paramecium/internal/probe"
)

// Clock is a monotonically increasing virtual cycle counter. It is safe
// for concurrent use; all mutation goes through atomic operations.
//
// A standalone clock (New) is one word that Advance moves. A Meter's
// clock is derived from the meter's operation counts: Now is the dot
// product of the counts with the cost model plus the one word that
// Advance moves. Each term only grows, so a reader never sees the clock
// go backwards.
type Clock struct {
	advanced atomic.Uint64 // cycles added by Advance, outside any charge
	meter    *Meter        // the meter whose counts the clock derives from; nil when standalone
}

// New returns a standalone Clock starting at cycle zero.
func New() *Clock {
	return &Clock{}
}

// Now reports the current cycle count: the cycles Advance added plus,
// for a meter's clock, every charged operation's count times its cost.
func (c *Clock) Now() uint64 {
	return c.advanced.Load() + c.charged()
}

// Advance adds n cycles to the clock and returns the new time.
func (c *Clock) Advance(n uint64) uint64 {
	return c.advanced.Add(n) + c.charged()
}

// charged sums count × cost over the meter's operations; zero for a
// standalone clock. A plain loop over the fixed arrays: 25 loads and
// multiplies, no locked instruction.
func (c *Clock) charged() uint64 {
	m := c.meter
	if m == nil {
		return 0
	}
	var sum uint64
	for i := range m.tally {
		sum += m.tally[i].Load() * m.Model.Costs[i]
	}
	return sum
}

// Stopwatch measures an interval on a Clock.
type Stopwatch struct {
	clock *Clock
	start uint64
}

// StartWatch begins an interval measurement.
func (c *Clock) StartWatch() Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports the cycles consumed since the stopwatch started.
func (s Stopwatch) Elapsed() uint64 {
	return s.clock.Now() - s.start
}

// Op identifies a privileged or otherwise costed machine operation.
type Op int

// The costed operations. The set covers every privileged transition the
// paper's mechanisms exercise: trap entry/exit, interrupt dispatch,
// context switches, TLB traffic, page-table walks, cache-line copies and
// the per-check overhead of software fault isolation.
const (
	OpTrapEnter     Op = iota // user→kernel trap entry
	OpTrapExit                // kernel→user return
	OpInterrupt               // interrupt vectoring
	OpCtxSwitch               // MMU context switch
	OpTLBMiss                 // TLB refill from page table
	OpTLBFlush                // full TLB flush
	OpPageFault               // fault decode and dispatch (excl. trap)
	OpCall                    // procedure call overhead
	OpIndirect                // indirect (interface) call overhead
	OpCopyWord                // copy one 8-byte word across domains
	OpSFICheck                // one software fault-isolation check
	OpVMInstr                 // one interpreted PVM instruction
	OpDigestBlock             // digest one 64-byte block
	OpSigVerify               // one public-key signature verification
	OpThreadCreate            // full thread creation
	OpProtoThread             // proto-thread creation (lazy)
	OpPromote                 // proto-thread → real thread promotion
	OpSchedule                // scheduler dispatch decision
	OpNameLookupHop           // one hop in a name-space lookup
	OpBatchEntry              // decode one entry of a vectored cross-domain call
	OpTLBShootdown            // one remote-CPU TLB invalidation IPI
	OpRingPush                // publish one ring record (descriptor + tail bookkeeping)
	OpRingPop                 // consume one ring record (descriptor + head bookkeeping)
	OpDoorbell                // latch a ring doorbell for the consumer
	// OpRemoteFrameAccess is appended after every pre-existing Op so
	// all earlier ordinals — and with them every committed baseline
	// row — stay byte-identical.
	OpRemoteFrameAccess // touch a frame homed on another NUMA node
	opCount
)

var opNames = [...]string{
	OpTrapEnter:     "trap-enter",
	OpTrapExit:      "trap-exit",
	OpInterrupt:     "interrupt",
	OpCtxSwitch:     "ctx-switch",
	OpTLBMiss:       "tlb-miss",
	OpTLBFlush:      "tlb-flush",
	OpPageFault:     "page-fault",
	OpCall:          "call",
	OpIndirect:      "indirect-call",
	OpCopyWord:      "copy-word",
	OpSFICheck:      "sfi-check",
	OpVMInstr:       "vm-instr",
	OpDigestBlock:   "digest-block",
	OpSigVerify:     "sig-verify",
	OpThreadCreate:  "thread-create",
	OpProtoThread:   "proto-thread",
	OpPromote:       "promote",
	OpSchedule:      "schedule",
	OpNameLookupHop: "name-hop",
	OpBatchEntry:    "batch-entry",
	OpTLBShootdown:  "tlb-shootdown",
	OpRingPush:      "ring-push",
	OpRingPop:       "ring-pop",
	OpDoorbell:      "doorbell",

	OpRemoteFrameAccess: "remote-frame-access",
}

// String returns the mnemonic for the operation.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// NumOps is the number of distinct costed operations.
const NumOps = int(opCount)

// CostModel maps each operation to its cost in cycles. A nil or zero
// entry means the operation is free. Cost models are value types; copy
// one, tweak a field, and hand it to a new Machine to run an ablation.
type CostModel struct {
	Costs [NumOps]uint64
}

// DefaultCosts returns the SPARC-flavoured default cost model used by all
// experiments unless a sweep overrides individual entries. The ratios —
// not the absolute values — are what the paper's arguments depend on:
// traps and context switches are two orders of magnitude more expensive
// than procedure calls, and an SFI check costs a handful of cycles on
// every memory reference.
func DefaultCosts() CostModel {
	var m CostModel
	m.Costs[OpTrapEnter] = 120
	m.Costs[OpTrapExit] = 80
	m.Costs[OpInterrupt] = 100
	m.Costs[OpCtxSwitch] = 200
	m.Costs[OpTLBMiss] = 30
	m.Costs[OpTLBFlush] = 90
	m.Costs[OpPageFault] = 60
	m.Costs[OpCall] = 2
	m.Costs[OpIndirect] = 6
	m.Costs[OpCopyWord] = 1
	m.Costs[OpSFICheck] = 4
	m.Costs[OpVMInstr] = 3
	m.Costs[OpDigestBlock] = 48
	m.Costs[OpSigVerify] = 42000
	m.Costs[OpThreadCreate] = 900
	m.Costs[OpProtoThread] = 40
	m.Costs[OpPromote] = 500
	m.Costs[OpSchedule] = 70
	m.Costs[OpNameLookupHop] = 15
	// A vectored call pays the trap and context-switch pair once, then
	// this small decode cost per entry: the slot index, argument base
	// and result base of one entry in the batch frame. Its ratio to
	// OpTrapEnter+OpTrapExit+2*OpCtxSwitch sets the batching break-even.
	m.Costs[OpBatchEntry] = 8
	// Invalidating a page cached in a REMOTE CPU's TLB costs an
	// inter-processor interrupt plus the remote invalidate — paid once
	// per remote CPU that actually holds the entry. On a uniprocessor
	// the remote set is empty and unmap-heavy workloads pay nothing,
	// which is why every pre-multiprocessor baseline is unchanged.
	m.Costs[OpTLBShootdown] = 150
	// Ring bookkeeping is deliberately cheap — a push or pop is a
	// couple of word accesses plus index arithmetic on memory both
	// sides already map, comparable to a procedure call. The control
	// and descriptor words it moves are charged separately as ordinary
	// OpCopyWord memory traffic by the side that touches them.
	m.Costs[OpRingPush] = 2
	m.Costs[OpRingPop] = 2
	// A doorbell latch is a store to the control page plus the
	// interrupt-like prod that makes the consumer look — far cheaper
	// than a full crossing, and paid by the producer ONCE per notified
	// burst, not per record. Its ratio to the vectored-call fixed cost
	// (≈700 cycles) against burst size sets the streaming break-even.
	m.Costs[OpDoorbell] = 40
	// Touching a frame whose home NUMA node differs from the accessing
	// CPU's node pays the interconnect hop: one unit per page-sized
	// chunk of the access, scaled by the topology's node-distance
	// entry. Paid by the side whose CPU issues the access (the toucher
	// pays, exactly like OpCopyWord). The default single-node topology
	// has no remote pairs, so every pre-topology baseline is unchanged.
	m.Costs[OpRemoteFrameAccess] = 100
	return m
}

// Cost reports the cycle cost of one operation.
func (m *CostModel) Cost(op Op) uint64 {
	if op < 0 || int(op) >= NumOps {
		return 0
	}
	return m.Costs[op]
}

// WithCost returns a copy of the model with one entry replaced. Useful
// for parameter sweeps:
//
//	m := clock.DefaultCosts().WithCost(clock.OpTrapEnter, 500)
func (m CostModel) WithCost(op Op, cycles uint64) CostModel {
	if op >= 0 && int(op) < NumOps {
		m.Costs[op] = cycles
	}
	return m
}

// Attribution of charges to protection domains. The clock package
// cannot import the MMU, so domain contexts appear here as their raw
// uint32 ids; KernelDomain mirrors mmu.KernelContext.
const (
	// KernelDomain is the ledger row for charges no domain is known to
	// owe: boot-time machinery, scheduling, interrupts, teardown sweeps.
	KernelDomain uint32 = 0
	// IdleSlot is the ledger's pseudo-operation slot for clock advances
	// outside any costed operation — the scheduler fast-forwarding
	// virtual time to the next timer deadline. It sits after every real
	// Op ordinal so the two index spaces never collide.
	IdleSlot = NumOps
	// LedgerSlots is the operation-slot count a Meter's ledger needs:
	// every Op plus the idle pseudo-slot.
	LedgerSlots = NumOps + 1
)

// LedgerOpName names a ledger operation slot: Op mnemonics for real
// ordinals, "idle-advance" for the pseudo-slot.
func LedgerOpName(slot int) string {
	if slot == IdleSlot {
		return "idle-advance"
	}
	return Op(slot).String()
}

// Class buckets an operation for the attribution report's cost split:
// protection-crossing machinery, wire-level streaming bookkeeping,
// payload copies, TLB shootdowns, and everything else.
func (o Op) Class() string {
	switch o {
	case OpTrapEnter, OpTrapExit, OpInterrupt, OpCtxSwitch, OpPageFault, OpBatchEntry:
		return "crossing"
	case OpRingPush, OpRingPop, OpDoorbell:
		return "wire"
	case OpCopyWord:
		return "copy"
	case OpTLBShootdown:
		return "shootdown"
	}
	return "other"
}

// LedgerOpClass is Op.Class extended over ledger slots.
func LedgerOpClass(slot int) string {
	if slot == IdleSlot {
		return "other"
	}
	return Op(slot).Class()
}

// probeSink bundles the flight recorder and ledger a tracing-enabled
// Meter feeds. It is installed atomically as one pointer so the
// disabled path stays a single load.
type probeSink struct {
	rec *probe.Recorder
	led *probe.Ledger
}

// Meter couples a Clock with a CostModel and per-operation counters.
// Subsystems hold a *Meter and call ChargeFor for every costed
// operation, naming the domain that pays. A charge is one atomic add to
// its operation's count; the meter's Clock derives the time from the
// counts and Model.
type Meter struct {
	Clock *Clock
	// Model is the meter's cost model. It is frozen: nothing may write
	// it after NewMeter, because every Clock.Now reads it to price the
	// counts. It stays a field so callers can read it without a copy.
	Model CostModel
	tally [NumOps]atomic.Uint64 // charges since boot; the clock is derived from these
	base  [NumOps]atomic.Uint64 // tally at the last ResetCounts
	sink  atomic.Pointer[probeSink]
}

// NewMeter builds a Meter over a fresh clock and the given model.
func NewMeter(model CostModel) *Meter {
	m := &Meter{Model: model}
	m.Clock = &Clock{meter: m}
	return m
}

// EnableTracing attaches a flight recorder and per-domain ledger to the
// meter and raises the package-level probe gate. From then on every
// charge rolls up into the ledger under its paying domain, and
// instrumented subsystems emit events into the recorder. Pair with
// DisableTracing. The ledger is handed the meter's cost model, so it
// can keep counts only and price them when read.
func (m *Meter) EnableTracing(rec *probe.Recorder, led *probe.Ledger) {
	if led != nil {
		led.SetCosts(m.Model.Costs[:])
	}
	m.sink.Store(&probeSink{rec: rec, led: led})
	probe.Enable()
}

// DisableTracing detaches the meter's recorder and ledger and lowers
// the probe gate raised by EnableTracing. A no-op if tracing was never
// enabled on this meter.
func (m *Meter) DisableTracing() {
	if m.sink.Swap(nil) != nil {
		probe.Disable()
	}
}

// Recorder returns the attached flight recorder, or nil.
func (m *Meter) Recorder() *probe.Recorder {
	if s := m.sink.Load(); s != nil {
		return s.rec
	}
	return nil
}

// Ledger returns the attached per-domain ledger, or nil.
func (m *Meter) Ledger() *probe.Ledger {
	if s := m.sink.Load(); s != nil {
		return s.led
	}
	return nil
}

// Emit records one flight-recorder event stamped with the clock's
// current virtual time, if tracing is enabled on this meter. Call
// sites guard with probe.Enabled() so the disabled path pays only that
// one load — the probesafe analyzer enforces the guard.
//
//paramecium:hotpath
func (m *Meter) Emit(cpu int, kind probe.Kind, domain uint32, a, b uint64) {
	if !probe.Enabled() {
		return
	}
	if s := m.sink.Load(); s != nil && s.rec != nil {
		s.rec.Emit(cpu, m.Clock.Now(), kind, domain, a, b)
	}
}

// ChargeFor charges one occurrence of op, attributing its cycles to
// the paying domain's ledger row when tracing is enabled.
func (m *Meter) ChargeFor(payer uint32, op Op) {
	m.ChargeNFor(payer, op, 1)
}

// ChargeNFor charges n occurrences of op at once, attributing the
// cycles to payer: the proxy's caller, the context touching memory, the
// context whose mapping a shootdown serves, or KernelDomain for work
// the nucleus does on no domain's behalf. The charge is one atomic add
// to op's count, which moves the derived clock by n × cost; an enabled
// ledger counts it once more, under the payer's row.
func (m *Meter) ChargeNFor(payer uint32, op Op, n uint64) {
	if n == 0 || op < 0 || int(op) >= NumOps {
		return
	}
	m.tally[op].Add(n)
	if probe.Enabled() {
		if s := m.sink.Load(); s != nil && s.led != nil {
			s.led.Add(payer, int(op), n)
		}
	}
}

// AdvanceAttributed advances the clock by n cycles outside any costed
// operation — the scheduler fast-forwarding to a timer deadline — and
// attributes them to the kernel row's idle pseudo-slot, so an enabled
// ledger's total still equals the clock. Returns the new time.
func (m *Meter) AdvanceAttributed(n uint64) uint64 {
	t := m.Clock.Advance(n)
	if n != 0 && probe.Enabled() {
		if s := m.sink.Load(); s != nil && s.led != nil {
			s.led.AddCycles(KernelDomain, IdleSlot, n, 1)
		}
	}
	return t
}

// Count reports how many times op has been charged since the last
// ResetCounts.
func (m *Meter) Count(op Op) uint64 {
	if op < 0 || int(op) >= NumOps {
		return 0
	}
	return m.tally[op].Load() - m.base[op].Load()
}

// ResetCounts zeroes the per-operation counters as Count and Snapshot
// report them. The clock keeps running — virtual time is monotonic —
// because the counts it derives from are left in place and only the
// reporting baseline moves.
func (m *Meter) ResetCounts() {
	for i := range m.tally {
		m.base[i].Store(m.tally[i].Load())
	}
}

// Snapshot returns a copy of all counters since the last ResetCounts,
// indexed by Op.
func (m *Meter) Snapshot() [NumOps]uint64 {
	var out [NumOps]uint64
	for i := range m.tally {
		out[i] = m.tally[i].Load() - m.base[i].Load()
	}
	return out
}
