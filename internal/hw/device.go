package hw

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/mmu"
)

// Device is a simulated hardware device. Devices expose their control
// registers through an IORegion; drivers obtain access to the region
// via the memory-management service's I/O space allocation, mirroring
// the paper's "device drivers use this service to allocate I/O space
// and map in the device registers into their protection domain".
type Device interface {
	Name() string
	IRQ() IRQLine
	IORegion() *IORegion
	// attach wires the device to the machine so it can raise
	// interrupts. Called exactly once by Machine.AttachDevice.
	attach(m *Machine)
}

// ErrBadRegister is returned for accesses to undefined registers.
var ErrBadRegister = errors.New("hw: bad register")

// IORegion is a device's register file: a named set of 64-bit
// registers addressed by word offset. Register semantics (side effects)
// are provided by the owning device through the hook functions.
type IORegion struct {
	Name string
	Size int // number of registers

	mu    sync.Mutex
	read  func(reg int) (uint64, error)
	write func(reg int, val uint64) error
}

// NewIORegion constructs a region with the given access hooks.
func NewIORegion(name string, size int, read func(int) (uint64, error), write func(int, uint64) error) *IORegion {
	return &IORegion{Name: name, Size: size, read: read, write: write}
}

// ReadReg reads register reg.
func (r *IORegion) ReadReg(reg int) (uint64, error) {
	if reg < 0 || reg >= r.Size {
		return 0, fmt.Errorf("%w: %s[%d]", ErrBadRegister, r.Name, reg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.read == nil {
		return 0, nil
	}
	return r.read(reg)
}

// WriteReg writes register reg.
func (r *IORegion) WriteReg(reg int, val uint64) error {
	if reg < 0 || reg >= r.Size {
		return fmt.Errorf("%w: %s[%d]", ErrBadRegister, r.Name, reg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.write == nil {
		return nil
	}
	return r.write(reg, val)
}

// baseDevice provides the attach plumbing shared by all devices.
type baseDevice struct {
	mu      sync.Mutex
	machine *Machine
}

func (b *baseDevice) attach(m *Machine) {
	b.mu.Lock()
	b.machine = m
	b.mu.Unlock()
}

// raise raises the device's interrupt on the boot CPU if the device is
// attached.
func (b *baseDevice) raise(line IRQLine) {
	b.mu.Lock()
	m := b.machine
	b.mu.Unlock()
	if m != nil {
		// Delivery errors (no handler yet) are deliberately dropped:
		// real devices do not care whether software listens.
		_ = m.RaiseIRQOn(line, mmu.BootCPU)
	}
}
