// Package probe is the kernel flight recorder: per-CPU fixed-capacity
// rings of typed events plus a per-domain cycle ledger, the measurement
// substrate behind System.TraceSnapshot and cmd/paratrace.
//
// The package sits below every subsystem that charges the clock, so it
// imports nothing but the standard library; the clock package wires a
// Recorder and Ledger into its Meter and every other layer reaches them
// through that one pointer.
//
// # Cost discipline
//
// Recording is free in VIRTUAL time — the recorder is the measurement
// apparatus, not part of the machine being simulated — and cheap in
// host time: with the gate disabled every instrumented site is a single
// atomic load and a branch, and with it enabled an emit is a handful of
// atomic stores into a preallocated slot. Emission never allocates in
// steady state, a discipline enforced statically by the probesafe
// paralint analyzer and dynamically by the P10 benchmark's alloc gate.
package probe

import (
	"sort"
	"sync/atomic"
)

// Kind identifies one typed flight-recorder event. The set covers every
// boundary the cost model charges: protection crossings, vectored
// dispatch, traps and faults, TLB traffic including shootdowns on both
// the initiating and receiving CPU, ring doorbells and hangups, grant
// lifecycle, scheduler steal/park/wake, and remote-NUMA frame touches.
type Kind uint8

// Flight-recorder event kinds. The operand meanings (A, B) of each kind
// are part of the trace schema documented in ARCHITECTURE.md's
// Observability section; a docs-freshness test fails if a kind is
// missing from that table.
const (
	// KindCrossingBegin marks entry to a cross-domain invocation: the
	// trap has fired and the context-switch pair is about to install
	// the target. Domain is the paying caller; A is the target context;
	// B is the number of vectored entries carried (1 for a single call).
	KindCrossingBegin Kind = iota
	// KindCrossingEnd marks the return switch of a crossing. Operands
	// mirror KindCrossingBegin.
	KindCrossingEnd
	// KindBatchDispatch marks one vectored group of 2 or more entries
	// hitting a proxy (a batch of one is traced as a single call).
	// Domain is the caller; A is the group size; B is the batch mode
	// (0 in-order, 1 grouped).
	KindBatchDispatch
	// KindTrap marks a trap being raised. Domain is the trapping
	// context; A is the trap vector; B is the trap argument word.
	KindTrap
	// KindFault marks a translation fault. Domain is the faulting
	// context; A is the faulting virtual address; B is the fault kind.
	KindFault
	// KindTLBMiss marks a TLB refill. Domain is the translating
	// context; A is the virtual page address.
	KindTLBMiss
	// KindTLBFlush marks a full TLB flush on the event's CPU. Domain is
	// the context whose switch forced it (kernel for explicit flushes).
	KindTLBFlush
	// KindShootdownInit marks the initiating side of a TLB shootdown.
	// Domain is the context whose mapping changed; A is the virtual
	// page unmapped (0 for whole-context teardown); B is the number of
	// remote CPUs that were sent an invalidation.
	KindShootdownInit
	// KindShootdownRecv marks the receiving side of a TLB shootdown:
	// the event's CPU invalidates entries another CPU unmapped. Domain
	// is the context whose mapping changed; A is the virtual page
	// invalidated, or for whole-context teardown the number of entries
	// this CPU's TLB dropped.
	KindShootdownRecv
	// KindDoorbell marks a ring doorbell latch. Domain is the producing
	// context; A is the burst size the notify covers; B is the backing
	// segment id.
	KindDoorbell
	// KindHangup marks a ring endpoint hanging up or observing its peer
	// gone. Domain is the endpoint's own context; A is the backing
	// segment id; B is 0 on the producer (deliberate hangup) and 1 on
	// the consumer (revoked grant observed as end-of-stream).
	KindHangup
	// KindGrantAttach marks a segment grant being mapped into its
	// grantee. Domain is the grantee; A is the segment id; B its pages.
	KindGrantAttach
	// KindGrantRevoke marks a grant being withdrawn. Domain is the
	// grantee losing access; A is the segment id; B its pages.
	KindGrantRevoke
	// KindSteal marks the event's CPU stealing runnable threads.
	// A is the victim CPU; B the number of threads taken.
	KindSteal
	// KindPark marks the event's CPU parking idle.
	KindPark
	// KindWake marks a thread made runnable on the event's CPU. A is
	// the thread id.
	KindWake
	// KindRemoteFrame marks an access touching a frame homed on another
	// NUMA node. Domain is the touching context; A is the physical
	// frame number; B is the topology's node distance.
	KindRemoteFrame

	kindCount
)

var kindNames = [...]string{
	KindCrossingBegin: "crossing-begin",
	KindCrossingEnd:   "crossing-end",
	KindBatchDispatch: "batch-dispatch",
	KindTrap:          "trap",
	KindFault:         "fault",
	KindTLBMiss:       "tlb-miss",
	KindTLBFlush:      "tlb-flush",
	KindShootdownInit: "shootdown-init",
	KindShootdownRecv: "shootdown-recv",
	KindDoorbell:      "doorbell",
	KindHangup:        "hangup",
	KindGrantAttach:   "grant-attach",
	KindGrantRevoke:   "grant-revoke",
	KindSteal:         "steal",
	KindPark:          "park",
	KindWake:          "wake",
	KindRemoteFrame:   "remote-frame",
}

// String returns the kind's mnemonic.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return "kind(?)"
	}
	return kindNames[k]
}

// gate is the package-level enable gate. It is a counter, not a bool:
// concurrent systems (tests boot many) each enable their own tracing
// and the gate stays up until the last one disables. A system whose
// meter carries no sink emits nothing even while the gate is up, so
// traced and untraced systems coexist in one process.
var gate atomic.Int64

// Enabled reports whether any system in the process is tracing. This
// is the single load that every instrumented site pays on the disabled
// path — the whole cost of carrying the flight recorder when it is off.
//
//paramecium:hotpath
func Enabled() bool { return gate.Load() != 0 }

// Enable raises the package gate. Pair with Disable.
func Enable() { gate.Add(1) }

// Disable lowers the package gate raised by one Enable.
func Disable() { gate.Add(-1) }

// DefaultRingCapacity is the per-CPU event ring capacity when the
// embedder does not choose one.
const DefaultRingCapacity = 4096

// Event is one recorded flight-recorder entry, as read back by
// Snapshot. Seq is the slot's reservation number within its CPU ring
// (a tiebreak for equal virtual timestamps); Cycles is the
// virtual-clock stamp; Domain is the paying protection-domain context.
// A and B are kind-specific operands — see the Kind constants.
type Event struct {
	Seq    uint64
	Cycles uint64
	Kind   Kind
	CPU    int
	Domain uint32
	A, B   uint64
}

// slot is one ring entry. Every field is atomic so a snapshot racing an
// emit reads torn nothing: the writer invalidates seq, stores the
// payload, then publishes seq = index+1, and the reader re-checks seq
// around its field loads, dropping the slot on mismatch.
type slot struct {
	seq    atomic.Uint64
	cycles atomic.Uint64
	kind   atomic.Uint32
	domain atomic.Uint32
	a      atomic.Uint64
	b      atomic.Uint64
}

// cpuRing is one CPU's fixed-capacity event ring. In the simulation
// there is one logical writer per CPU; the implementation nonetheless
// stays torn-proof under racing writers (a shared CPU lease interleaves
// two callers on one CPU) because reservation is an atomic fetch-add
// and publication is per-slot.
type cpuRing struct {
	cursor atomic.Uint64
	slots  []slot
}

// Recorder is the flight recorder: one event ring per CPU. The zero
// Recorder is unusable; build one with NewRecorder.
type Recorder struct {
	rings []cpuRing
}

// NewRecorder builds a recorder with one ring of the given capacity per
// CPU. capacity <= 0 selects DefaultRingCapacity.
func NewRecorder(cpus, capacity int) *Recorder {
	if cpus < 1 {
		cpus = 1
	}
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	r := &Recorder{rings: make([]cpuRing, cpus)}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, capacity)
	}
	return r
}

// CPUs reports the number of per-CPU rings.
func (r *Recorder) CPUs() int { return len(r.rings) }

// Capacity reports each ring's slot count.
func (r *Recorder) Capacity() int { return len(r.rings[0].slots) }

// Emit records one event on cpu's ring at virtual time cycles. A cpu
// outside the recorder's range (the NoCPU sentinel, boot-time paths)
// lands on ring 0. Emit is lock-free and allocation-free: it reserves a
// slot with one fetch-add, stores the payload, and publishes the slot's
// sequence; when the ring laps, the oldest events are overwritten.
//
//paramecium:hotpath
func (r *Recorder) Emit(cpu int, cycles uint64, kind Kind, domain uint32, a, b uint64) {
	if r == nil {
		return
	}
	if cpu < 0 || cpu >= len(r.rings) {
		cpu = 0
	}
	ring := &r.rings[cpu]
	idx := ring.cursor.Add(1) - 1
	s := &ring.slots[idx%uint64(len(ring.slots))]
	s.seq.Store(0) // invalidate while the payload is half-written
	s.cycles.Store(cycles)
	s.kind.Store(uint32(kind))
	s.domain.Store(domain)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(idx + 1)
}

// Emitted reports the total number of events ever emitted on cpu's
// ring, including ones the ring has since overwritten.
func (r *Recorder) Emitted(cpu int) uint64 {
	if cpu < 0 || cpu >= len(r.rings) {
		return 0
	}
	return r.rings[cpu].cursor.Load()
}

// Dropped reports how many of cpu's events the ring has overwritten.
func (r *Recorder) Dropped(cpu int) uint64 {
	n := r.Emitted(cpu)
	if c := uint64(r.Capacity()); n > c {
		return n - c
	}
	return 0
}

// Snapshot reads every ring and returns the retained events per CPU,
// each CPU's slice ordered by virtual time (reservation order breaks
// ties). Snapshot may race live emits; a slot caught mid-write is
// dropped rather than returned torn.
func (r *Recorder) Snapshot() [][]Event {
	if r == nil {
		return nil
	}
	out := make([][]Event, len(r.rings))
	for cpu := range r.rings {
		ring := &r.rings[cpu]
		capn := uint64(len(ring.slots))
		n := ring.cursor.Load()
		start := uint64(0)
		if n > capn {
			start = n - capn
		}
		evs := make([]Event, 0, n-start)
		for idx := start; idx < n; idx++ {
			s := &ring.slots[idx%capn]
			if s.seq.Load() != idx+1 {
				continue
			}
			e := Event{
				Seq:    idx,
				Cycles: s.cycles.Load(),
				Kind:   Kind(s.kind.Load()),
				CPU:    cpu,
				Domain: s.domain.Load(),
				A:      s.a.Load(),
				B:      s.b.Load(),
			}
			if s.seq.Load() != idx+1 {
				continue // overwritten while reading; drop the torn copy
			}
			evs = append(evs, e)
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Cycles != evs[j].Cycles {
				return evs[i].Cycles < evs[j].Cycles
			}
			return evs[i].Seq < evs[j].Seq
		})
		out[cpu] = evs
	}
	return out
}
