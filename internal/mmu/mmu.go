// Package mmu simulates a SPARC-flavoured memory management unit: MMU
// contexts with per-context page tables, per-CPU ASID-tagged TLBs and
// context registers, page protections and fault reporting.
//
// The MMU is the protection substrate for the whole reproduction. The
// Paramecium nucleus implements cross-domain calls, fault call-backs and
// page sharing on top of the primitives here, exactly as the paper's
// memory-management service does on real hardware.
//
// The machine may have any number of virtual CPUs (Config.CPUs). Each
// CPU carries its own current-context register and its own TLB with its
// own hit/miss/flush counters, so TLB locality is a per-CPU quantity
// exactly as on real multiprocessors. Each TLB is a fixed array that
// allocates nothing after boot. Translation probes the CPU's TLB first
// and touches nothing else on a hit; only a miss fetches the context's
// page table, from a dense table indexed by ContextID that readers load
// without a lock, and walks it under that context's own lock — unrelated
// domains fault and translate fully in parallel.
package mmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/probe"
)

// PageSize is the size of a virtual and physical page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VAddr is a virtual address within some MMU context.
type VAddr uint64

// PAddr is a physical address.
type PAddr uint64

// VPN returns the virtual page number of the address.
func (a VAddr) VPN() uint64 { return uint64(a) >> PageShift }

// Offset returns the within-page offset of the address.
func (a VAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// PageBase returns the address of the start of the page containing a.
func (a VAddr) PageBase() VAddr { return a &^ (PageSize - 1) }

// Frame returns the physical frame number of the address.
func (p PAddr) Frame() uint64 { return uint64(p) >> PageShift }

// Perm is a page protection bit set.
type Perm uint8

// Protection bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Has reports whether every bit in want is present.
func (p Perm) Has(want Perm) bool { return p&want == want }

// String renders the permission in "rwx" form.
func (p Perm) String() string {
	b := []byte("---")
	if p.Has(PermRead) {
		b[0] = 'r'
	}
	if p.Has(PermWrite) {
		b[1] = 'w'
	}
	if p.Has(PermExec) {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access being attempted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return fmt.Sprintf("access(%d)", uint8(a))
}

// perm returns the permission bit an access requires.
func (a Access) perm() Perm {
	switch a {
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	default:
		return PermRead
	}
}

// FaultKind classifies a translation fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone       FaultKind = iota
	FaultNoMapping            // no PTE for the page
	FaultProtection           // PTE present but access not permitted
	FaultBadContext           // context does not exist
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNoMapping:
		return "no-mapping"
	case FaultProtection:
		return "protection"
	case FaultBadContext:
		return "bad-context"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault describes the outcome of a translation: Kind FaultNone when it
// succeeded, the failure otherwise. TranslateOn returns it by value;
// *Fault implements error for the access paths that report it as one.
//
// The faulting location is nested in an embedded struct (its Ctx and
// Addr fields are promoted) so that a Fault has four fields, the most
// the compiler keeps in registers: every translation returns one, and
// the success path then costs no round trip through memory.
type Fault struct {
	Kind    FaultKind
	Access  Access
	Present Perm // permissions of the PTE, if one was present
	site
}

// site is where an access faulted: its context and address.
type site struct {
	Ctx  ContextID
	Addr VAddr
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s fault in context %d at %#x (%s access, page perms %s)",
		f.Kind, f.Ctx, uint64(f.Addr), f.Access, f.Present)
}

// ContextID names an MMU context (an address space). Context 0 is the
// kernel context by convention.
type ContextID uint32

// KernelContext is the MMU context the nucleus itself runs in.
const KernelContext ContextID = 0

// CPUID names one virtual CPU of the simulated machine. CPU 0 is the
// boot CPU.
type CPUID int

// BootCPU is the CPU the machine boots on. Code with no dispatched CPU
// of its own (boot, teardown, uniprocessor experiments) passes it to
// the CPU-taking forms explicitly.
const BootCPU CPUID = 0

// NoCPU is the sentinel for "no CPU": a thread that has never been
// dispatched, or an identity slot that is deliberately empty. It is
// never a valid index into per-CPU state.
const NoCPU CPUID = -1

// PTE is a page table entry.
type PTE struct {
	Frame uint64
	Perm  Perm
	Valid bool
	// Tag carries arbitrary owner data (the mem service stores the
	// page's allocation record here). The MMU itself ignores it.
	Tag any
}

// pageTable is a per-context sparse page table with its own lock, so
// translation in one context never serializes against another.
type pageTable struct {
	mu      sync.RWMutex
	entries map[uint64]PTE // keyed by VPN
	// dead marks a table whose context has been destroyed. It is set
	// under mu, and read without a lock by the context-table lookup.
	// Operations fetch the table and then lock mu; DestroyContextFrom can
	// complete in that window, so every operation re-checks dead under
	// mu — a stale fetch then fails exactly like a fresh lookup of the
	// missing context would.
	dead atomic.Bool
}

func newPageTable() *pageTable {
	return &pageTable{entries: make(map[uint64]PTE)}
}

// cpuState is one virtual CPU's share of the MMU: its current-context
// register and its private TLB. mu guards the TLB (and serializes
// same-CPU switches); the register is atomic so reads are lock-free.
// States are stored by value in one contiguous array, padded to a
// 64-byte stride, so two CPUs' registers and locks never share a
// cache line.
type cpuState struct {
	current atomic.Uint32
	mu      sync.Mutex
	tlb     *tlb
	_       [40]byte
}

// ErrNoContext is returned when an operation names an unknown context.
var ErrNoContext = errors.New("mmu: no such context")

// MMU is the memory management unit. All methods are safe for
// concurrent use.
type MMU struct {
	meter *clock.Meter
	cpus  []cpuState

	// contexts is the page table of every context, indexed by its ID
	// (IDs are handed out in sequence and never reused). Readers load
	// it without a lock. mu serializes the writers — NewContext grows
	// the table and DestroyContext empties a slot — and SwitchOn holds
	// it for reading so Destroy's current-on-any-CPU check never
	// interleaves with a half-done switch.
	mu       sync.RWMutex
	contexts atomic.Pointer[ctxTable]
	nextCtx  ContextID
	// FlushOnSwitch selects the non-ASID behaviour in which every
	// context switch flushes the switching CPU's whole TLB (ablation F5).
	flushOnSwitch bool
}

// Config controls MMU construction.
type Config struct {
	TLBSize       int  // entries per CPU, at most 1<<29; 0 means DefaultTLBSize
	FlushOnSwitch bool // flush TLB on every context switch
	CPUs          int  // virtual CPU count; 0 means 1
}

// DefaultTLBSize is the per-CPU TLB capacity used when Config.TLBSize
// is zero.
const DefaultTLBSize = 64

// New builds an MMU charging against meter. The kernel context (0) is
// created automatically; every CPU boots with it current.
func New(meter *clock.Meter, cfg Config) *MMU {
	size := cfg.TLBSize
	if size <= 0 {
		size = DefaultTLBSize
	}
	ncpu := cfg.CPUs
	if ncpu <= 0 {
		ncpu = 1
	}
	m := &MMU{
		meter:         meter,
		cpus:          make([]cpuState, ncpu),
		nextCtx:       1,
		flushOnSwitch: cfg.FlushOnSwitch,
	}
	for i := range m.cpus {
		m.cpus[i].tlb = newTLB(size)
	}
	t := make(ctxTable, 1, 16)
	t[KernelContext].Store(newPageTable())
	m.contexts.Store(&t)
	return m
}

// NumCPUs reports the number of virtual CPUs.
func (m *MMU) NumCPUs() int { return len(m.cpus) }

// cpu returns the state of one virtual CPU, panicking on an
// out-of-range ID (a programming error, like indexing past a slice).
func (m *MMU) cpu(id CPUID) *cpuState {
	if id < 0 || int(id) >= len(m.cpus) {
		panic(fmt.Sprintf("mmu: no CPU %d (machine has %d)", id, len(m.cpus)))
	}
	return &m.cpus[id]
}

// ctxTable is the dense context table: slot id holds context id's page
// table, or nil once the context is destroyed. A published table is
// never shortened; NewContext fills the next slot in place when the
// backing array has room (no reader of the shorter table indexes it)
// and otherwise publishes a copy twice the size.
type ctxTable []atomic.Pointer[pageTable]

// pageTableOf fetches a live context's page table without a lock.
func (m *MMU) pageTableOf(id ContextID) (*pageTable, bool) {
	t := *m.contexts.Load()
	if int(id) >= len(t) {
		return nil, false
	}
	pt := t[id].Load()
	if pt == nil || pt.dead.Load() {
		return nil, false
	}
	return pt, true
}

// NewContext allocates a fresh MMU context and returns its ID.
func (m *MMU) NewContext() ContextID {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextCtx
	m.nextCtx++
	old := *m.contexts.Load()
	var t ctxTable
	if int(id) < cap(old) {
		t = old[:id+1]
	} else {
		t = make(ctxTable, id+1, 2*cap(old))
		for i := range old {
			t[i].Store(old[i].Load())
		}
	}
	t[id].Store(newPageTable())
	m.contexts.Store(&t)
	return id
}

// DestroyContextFrom removes a context, invalidating all of its TLB
// entries on every CPU. Each REMOTE CPU (one other than the initiator)
// whose TLB actually held entries for the context costs one
// inter-processor interrupt: OpTLBShootdown is charged once per such
// CPU and recorded in its Shootdowns counter. The initiator invalidates
// its own entries for free, and CPUs that never cached the context cost
// nothing — on a uniprocessor teardown is therefore free, exactly as
// before. Destroying the kernel context or a context that is current on
// any CPU is an error.
func (m *MMU) DestroyContextFrom(initiator CPUID, id ContextID) error {
	m.cpu(initiator) // validate the initiator up front
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == KernelContext {
		return errors.New("mmu: cannot destroy kernel context")
	}
	for i := range m.cpus {
		if id == ContextID(m.cpus[i].current.Load()) {
			return fmt.Errorf("mmu: cannot destroy context current on CPU %d", i)
		}
	}
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	(*m.contexts.Load())[id].Store(nil)
	// Shoot down the context's TLB entries everywhere and kill the
	// orphaned table. Holding pt.mu excludes a walk already past the
	// table lookup, so it cannot re-insert between the invalidation and
	// our return; the dead mark makes any operation that fetched the
	// table before the slot was emptied fail under pt.mu rather than
	// mutate — or translate into and re-cache — a destroyed context.
	// Once every CPU's entries are gone a TLB hit proves its context
	// live, which is why translation may probe the TLB first.
	pt.mu.Lock()
	pt.dead.Store(true)
	pt.entries = nil
	var remote uint64
	for i := range m.cpus {
		c := &m.cpus[i]
		c.mu.Lock()
		if held := c.tlb.invalidateContext(id); held > 0 && CPUID(i) != initiator {
			// One context-wide invalidation IPI per remote CPU that
			// held entries, regardless of how many it held.
			c.tlb.shootdowns++
			remote++
			if probe.Enabled() {
				m.meter.Emit(i, probe.KindShootdownRecv, uint32(id), uint64(held), 0)
			}
		}
		c.mu.Unlock()
	}
	pt.mu.Unlock()
	// The context whose mappings are torn down pays for its shootdowns.
	m.meter.ChargeNFor(uint32(id), clock.OpTLBShootdown, remote)
	if remote > 0 && probe.Enabled() {
		m.meter.Emit(int(initiator), probe.KindShootdownInit, uint32(id), 0, remote)
	}
	return nil
}

// HasContext reports whether id names a live context, lock-free.
func (m *MMU) HasContext(id ContextID) bool {
	_, ok := m.pageTableOf(id)
	return ok
}

// CurrentOn reports the active context of one CPU, lock-free.
func (m *MMU) CurrentOn(cpu CPUID) ContextID {
	return ContextID(m.cpu(cpu).current.Load())
}

// SwitchOn makes id the active context on one CPU, charging the
// context-switch cost. Switching to the already-active context is free.
// Only that CPU's register and TLB are touched, so switches on distinct
// CPUs proceed in parallel.
func (m *MMU) SwitchOn(cpu CPUID, id ContextID) error {
	c := m.cpu(cpu)
	// Hold the structure read-lock across the register write so
	// DestroyContextFrom's current-on-any-CPU check (under the write lock)
	// can never interleave with a half-done switch.
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.pageTableOf(id); !ok {
		return ErrNoContext
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == ContextID(c.current.Load()) {
		return nil
	}
	c.current.Store(uint32(id))
	// The destination context pays: a switch is part of entering it.
	m.meter.ChargeFor(uint32(id), clock.OpCtxSwitch)
	if m.flushOnSwitch {
		c.tlb.flush()
		m.meter.ChargeFor(uint32(id), clock.OpTLBFlush)
		if probe.Enabled() {
			m.meter.Emit(int(cpu), probe.KindTLBFlush, uint32(id), 0, 0)
		}
	}
	return nil
}

// CrossSwitchOn models one leg of a cross-domain call's context-switch
// pair (caller→target on entry, target→caller on return) on the given
// CPU: it validates that the destination context exists and charges the
// switch cost — plus that CPU's TLB flush under FlushOnSwitch — without
// moving the CPU's context register. Each in-flight cross-domain call
// executes as if on its own processor, so one call's transient target
// context is never observable to a concurrent call, and the charge
// sequence is deterministic under any interleaving: always exactly one
// OpCtxSwitch per leg. The liveness check takes no lock.
func (m *MMU) CrossSwitchOn(cpu CPUID, to ContextID) error {
	if _, ok := m.pageTableOf(to); !ok {
		return ErrNoContext
	}
	m.meter.ChargeFor(uint32(to), clock.OpCtxSwitch)
	if m.flushOnSwitch {
		c := m.cpu(cpu)
		c.mu.Lock()
		c.tlb.flush()
		c.mu.Unlock()
		m.meter.ChargeFor(uint32(to), clock.OpTLBFlush)
		if probe.Enabled() {
			m.meter.Emit(int(cpu), probe.KindTLBFlush, uint32(to), 0, 0)
		}
	}
	return nil
}

// MapOn is Map initiated from the given CPU: that CPU invalidates its
// own stale TLB entry for free, and only other CPUs holding the entry
// are charged a shootdown IPI.
func (m *MMU) MapOn(initiator CPUID, id ContextID, va VAddr, frame uint64, perm Perm) error {
	return m.MapTaggedOn(initiator, id, va, frame, perm, nil)
}

// MapTaggedOn is MapOn with an owner tag stored in the PTE.
func (m *MMU) MapTaggedOn(initiator CPUID, id ContextID, va VAddr, frame uint64, perm Perm, tag any) error {
	m.cpu(initiator) // validate the initiator up front
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.dead.Load() {
		return ErrNoContext
	}
	pt.entries[va.VPN()] = PTE{Frame: frame, Perm: perm, Valid: true, Tag: tag}
	m.invalidateAll(initiator, id, va.VPN())
	return nil
}

// UnmapOn is Unmap initiated from the given CPU: that CPU invalidates
// its own stale TLB entry for free, and only other CPUs holding the
// entry are charged a shootdown IPI.
func (m *MMU) UnmapOn(initiator CPUID, id ContextID, va VAddr) error {
	m.cpu(initiator) // validate the initiator up front
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.dead.Load() {
		return ErrNoContext
	}
	delete(pt.entries, va.VPN())
	m.invalidateAll(initiator, id, va.VPN())
	return nil
}

// ProtectOn is Protect initiated from the given CPU: that CPU
// invalidates its own stale TLB entry for free, and only other CPUs
// holding the entry are charged a shootdown IPI.
func (m *MMU) ProtectOn(initiator CPUID, id ContextID, va VAddr, perm Perm) error {
	m.cpu(initiator) // validate the initiator up front
	pt, ok := m.pageTableOf(id)
	if !ok {
		return ErrNoContext
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.dead.Load() {
		return ErrNoContext
	}
	pte, ok := pt.entries[va.VPN()]
	if !ok || !pte.Valid {
		return &Fault{Kind: FaultNoMapping, site: site{id, va}}
	}
	pte.Perm = perm
	pt.entries[va.VPN()] = pte
	m.invalidateAll(initiator, id, va.VPN())
	return nil
}

// invalidateAll shoots one page's entry out of every CPU's TLB. Callers
// hold the page table's write lock, which excludes the translation walk
// that could otherwise re-insert a stale entry concurrently.
//
// The initiating CPU invalidates its own entry for free (part of the
// map/unmap/protect instruction sequence), but every REMOTE CPU whose
// TLB actually holds the entry costs an inter-processor interrupt:
// OpTLBShootdown is charged once per such CPU, and the receiving CPU's
// Shootdowns counter records it. CPUs that never cached the page cost
// nothing — the charge partitions exactly across the CPUs that did.
// Every entry point threads its true initiator through. On a
// uniprocessor the remote set is always empty, so single-CPU cost
// baselines are unchanged.
func (m *MMU) invalidateAll(initiator CPUID, id ContextID, vpn uint64) {
	var remote uint64
	for i := range m.cpus {
		c := &m.cpus[i]
		c.mu.Lock()
		if c.tlb.invalidate(id, vpn) {
			if CPUID(i) != initiator {
				c.tlb.shootdowns++
				remote++
				if probe.Enabled() {
					m.meter.Emit(i, probe.KindShootdownRecv, uint32(id), vpn, 0)
				}
			}
		}
		c.mu.Unlock()
	}
	// The context whose mapping changed pays for the IPIs it caused.
	m.meter.ChargeNFor(uint32(id), clock.OpTLBShootdown, remote)
	if remote > 0 && probe.Enabled() {
		m.meter.Emit(int(initiator), probe.KindShootdownInit, uint32(id), vpn, remote)
	}
}

// Lookup returns the PTE for the page containing va without charging
// any cycles (a debugger's view, not a hardware walk).
func (m *MMU) Lookup(id ContextID, va VAddr) (PTE, bool) {
	pt, ok := m.pageTableOf(id)
	if !ok {
		return PTE{}, false
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	if pt.dead.Load() {
		return PTE{}, false
	}
	pte, ok := pt.entries[va.VPN()]
	return pte, ok && pte.Valid
}

// TranslateOn resolves va in context id for the given access kind on
// one CPU, charging TLB and page-table costs against that CPU's TLB. The
// fault comes back by value, with Kind FaultNone on success, so a
// translation allocates nothing whether or not it faults; callers that
// want an error box it themselves. Translation is sharded: a hit touches
// only the CPU's own TLB, and a miss walks the context's page table
// under that context's lock — translations in unrelated contexts, or
// on distinct CPUs, never serialize on a global mutex.
//
// The TLB is probed before the context is looked up: a hit proves the
// context live, because DestroyContextFrom removes the context's
// entries from every CPU's TLB, under that CPU's lock, before it
// returns. A probe in an unknown context counts as a miss.
//
//paramecium:hotpath
func (m *MMU) TranslateOn(cpu CPUID, id ContextID, va VAddr, access Access) (PAddr, Fault) {
	c := m.cpu(cpu)
	vpn := va.VPN()
	c.mu.Lock()
	frame, perm, hit := c.tlb.lookup(id, vpn)
	c.mu.Unlock()
	if hit {
		if !perm.Has(access.perm()) {
			return 0, Fault{Kind: FaultProtection, Access: access, Present: perm, site: site{id, va}}
		}
		return PAddr(frame<<PageShift | va.Offset()), Fault{}
	}
	pt, ok := m.pageTableOf(id)
	if !ok {
		return 0, Fault{Kind: FaultBadContext, Access: access, site: site{id, va}}
	}
	// TLB miss: hardware walk of the page table. The refill is inserted
	// while still holding the table's read lock, so a concurrent
	// Map/Unmap/Protect (write lock + shoot-down) cannot interleave
	// between the walk and the insert and leave a stale TLB entry.
	m.meter.ChargeFor(uint32(id), clock.OpTLBMiss)
	if probe.Enabled() {
		m.meter.Emit(int(cpu), probe.KindTLBMiss, uint32(id), vpn, 0)
	}
	pt.mu.RLock()
	if pt.dead.Load() {
		pt.mu.RUnlock()
		return 0, Fault{Kind: FaultBadContext, Access: access, site: site{id, va}}
	}
	pte, ok := pt.entries[vpn]
	if !ok || !pte.Valid {
		pt.mu.RUnlock()
		return 0, Fault{Kind: FaultNoMapping, Access: access, site: site{id, va}}
	}
	if !pte.Perm.Has(access.perm()) {
		pt.mu.RUnlock()
		return 0, Fault{Kind: FaultProtection, Access: access, Present: pte.Perm, site: site{id, va}}
	}
	c.mu.Lock()
	c.tlb.insert(id, vpn, pte.Frame, pte.Perm)
	c.mu.Unlock()
	pt.mu.RUnlock()
	return PAddr(pte.Frame<<PageShift | va.Offset()), Fault{}
}

// FlushTLBOn empties one CPU's TLB, charging the flush cost.
func (m *MMU) FlushTLBOn(cpu CPUID) {
	c := m.cpu(cpu)
	c.mu.Lock()
	c.tlb.flush()
	c.mu.Unlock()
	m.meter.ChargeFor(clock.KernelDomain, clock.OpTLBFlush)
	if probe.Enabled() {
		m.meter.Emit(int(cpu), probe.KindTLBFlush, uint32(KernelContext), 0, 0)
	}
}

// CPUTLBStats is a snapshot of one CPU's TLB counters.
type CPUTLBStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
	// Shootdowns counts cross-CPU invalidations this CPU RECEIVED:
	// entries its TLB held that a Map/Unmap/Protect initiated on
	// another CPU had to shoot down, one OpTLBShootdown charge each.
	Shootdowns uint64
	Entries    int // live entries at snapshot time
}

// TLBStatsOn reports one CPU's TLB counters. Each CPU's TLB is private,
// so the stats measure that CPU's own translation locality — disjoint
// from every other CPU's.
func (m *MMU) TLBStatsOn(cpu CPUID) CPUTLBStats {
	c := m.cpu(cpu)
	c.mu.Lock()
	defer c.mu.Unlock()
	return CPUTLBStats{
		Hits:       c.tlb.hits,
		Misses:     c.tlb.misses,
		Flushes:    c.tlb.flushes,
		Shootdowns: c.tlb.shootdowns,
		Entries:    c.tlb.live,
	}
}

// Mappings returns the number of valid mappings in a context.
func (m *MMU) Mappings(id ContextID) int {
	pt, ok := m.pageTableOf(id)
	if !ok {
		return 0
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.entries)
}
