package hw

import (
	"sync/atomic"

	"paramecium/internal/mmu"
)

// CPU is one virtual processor of the simulated machine. Each CPU owns
// a current-context register and a private TLB (both live in the MMU,
// keyed by the CPU's ID) and counts the interrupts delivered to it.
// Memory accesses name the CPU they run on (Machine.LoadOn and its
// siblings) and charge that CPU's TLB, so translation locality is a
// per-CPU quantity.
type CPU struct {
	id mmu.CPUID
	m  *Machine

	leased atomic.Bool
	irqs   atomic.Uint64
}

// TouchTagged performs a zero-length access of the given kind at va on
// this CPU, delivering token in the trap frame of any resulting page
// fault, and reports the fault the access left unresolved by value,
// Kind FaultNone when it translated. The cross-domain proxy touches its
// interface entry slots through it with AccessExec: the token keys the
// call frame, so any number of concurrent calls through the same entry
// page each reach their own arguments and results. It never allocates,
// and the proxy's own fault handler has already consumed the fault.
func (c *CPU) TouchTagged(ctx mmu.ContextID, va mmu.VAddr, access mmu.Access, token uint64) mmu.Fault {
	_, f, _ := c.m.translateWithFaults(c.id, ctx, va, access, token)
	return f
}

// CPULease is a claim on one virtual CPU for the duration of an
// operation. In-flight cross-domain calls acquire a lease so each call
// runs on its own CPU when one is free — populating that CPU's TLB and
// charging its crossings there — and shares a CPU (without disturbing
// its holder's lease) when the machine is oversubscribed.
type CPULease struct {
	cpu   *CPU
	owned bool
}

// CPU returns the leased CPU.
func (l CPULease) CPU() *CPU { return l.cpu }

// Release returns the CPU to the free pool. Releasing a shared
// (oversubscribed) lease is a no-op: only the claim that set the lease
// flag clears it.
func (l CPULease) Release() {
	if l.owned {
		l.cpu.leased.Store(false)
	}
}

// AcquireCPU claims a free CPU, preferring an exclusive claim (each
// concurrent caller lands on its own CPU) and falling back to sharing
// when every CPU is busy. Forced shares are counted (SharedLeases):
// sharers interleave on one TLB, so a climbing counter is the signal
// that a workload has outgrown its WithCPUs(n) topology.
func (m *Machine) AcquireCPU() CPULease {
	n := len(m.cpus)
	if n == 1 {
		// A uniprocessor still claims, so oversubscription — concurrent
		// calls forced onto the one CPU — is visible in the counter.
		c := m.cpus[0]
		if c.leased.CompareAndSwap(false, true) {
			return CPULease{cpu: c, owned: true}
		}
		m.sharedLeases.Add(1)
		return CPULease{cpu: c}
	}
	start := int(m.cpuRR.Add(1)-1) % n
	for i := 0; i < n; i++ {
		c := m.cpus[(start+i)%n]
		if c.leased.CompareAndSwap(false, true) {
			return CPULease{cpu: c, owned: true}
		}
	}
	m.sharedLeases.Add(1)
	return CPULease{cpu: m.cpus[start]}
}

// SharedLeases reports how many AcquireCPU claims found every CPU
// busy and fell back to sharing one. A steadily climbing count means
// cross-domain calls are interleaving on shared TLBs — quantifying
// when the machine needs WithCPUs(n) raised. Note that NESTED calls
// count too: a call issued from inside another call's target method
// holds the outer lease, so the inner claim shares even with no
// concurrency — call depth oversubscribes a small topology exactly as
// concurrent callers do.
func (m *Machine) SharedLeases() uint64 { return m.sharedLeases.Load() }

// NumCPUs reports the number of virtual CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpus) }
