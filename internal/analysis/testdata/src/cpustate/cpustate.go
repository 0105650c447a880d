// Package cpustate is the golden suite for the cpustate analyzer:
// per-CPU state is only reachable through a blessed CPU identity, and
// BootCPU is only referenced under an explicit doc-comment mention.
package cpustate

// CPUID is the CPU identity type.
type CPUID int

// BootCPU is CPU 0.
const BootCPU CPUID = 0

type vp struct{ id CPUID }

func (v *vp) ID() CPUID { return v.id }

type frame struct {
	CPU CPUID
}

type cpuState struct{ loads int }

type machine struct {
	cpus []cpuState
}

// cpu is the blessed accessor and may index freely.
func (m *machine) cpu(id CPUID) *cpuState {
	return &m.cpus[int(id)]
}

// bad indexes per-CPU state with an unrelated integer.
func (m *machine) bad(i int) *cpuState {
	return &m.cpus[i] // want `per-CPU state indexed by plain variable i`
}

// zero hardcodes a CPU slot.
func (m *machine) zero() int {
	return m.cpus[0].loads // want `per-CPU state indexed by literal 0`
}

// onCPU threads a CPUID through, which is blessed.
func (m *machine) onCPU(id CPUID) int {
	return m.cpus[id].loads
}

// conv converts explicitly to the identity type.
func (m *machine) conv(i int) int {
	return m.cpus[CPUID(i)].loads
}

// sweep ranges over the per-CPU array; the range key is CPU-shaped by
// construction.
func (m *machine) sweep() int {
	total := 0
	for i := range m.cpus {
		total += m.cpus[i].loads
	}
	return total
}

// fromFrame uses a frame's CPU slot and a virtual processor's own ID.
func (m *machine) fromFrame(f *frame, v *vp) {
	m.cpus[f.CPU].loads++
	m.cpus[v.ID()].loads++
}

// implicit references BootCPU without acknowledging it.
func (m *machine) implicit() *cpuState {
	return m.cpu(BootCPU) // want `BootCPU used as an implicit initiator`
}

// compat delegates from the boot CPU, as this comment documents.
func (m *machine) compat() *cpuState {
	return m.cpu(BootCPU)
}

// pinned is a reviewed deviation.
func (m *machine) pinned() *cpuState {
	//paralint:ignore cpustate fixture pins the boot CPU by construction
	return m.cpu(BootCPU)
}
