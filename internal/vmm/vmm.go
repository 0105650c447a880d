// Package vmm is a virtual-memory component: demand-zero paging,
// copy-on-write cloning and page-out to a backing store. In the
// paper's architecture this is exactly the kind of service that does
// NOT live in the nucleus — "all other system components, like thread
// packages, device drivers, and virtual memory implementations reside
// outside this nucleus" — so the whole package is built on nothing but
// the memory service's public primitives: page allocation, sharing,
// protection and per-page fault call-backs.
package vmm

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
)

// Errors.
var (
	ErrNotManaged = errors.New("vmm: page not managed")
	ErrNotMapped  = errors.New("vmm: page not mapped")
)

// Manager implements virtual-memory policies over the memory service.
type Manager struct {
	svc *mem.Service

	mu    sync.Mutex
	pages map[key]*page
	swap  map[uint64][]byte // swap slot -> page contents
	next  uint64            // next swap slot

	demandFaults uint64
	cowFaults    uint64
	swapIns      uint64
	swapOuts     uint64
}

type key struct {
	ctx mmu.ContextID
	vpn uint64
}

type pageState int

const (
	stateUnmapped pageState = iota // demand-zero, not yet touched
	stateMapped                    // resident
	stateCOW                       // resident, shared, write-protected
	stateSwapped                   // contents in swap
)

type page struct {
	state pageState
	perm  mmu.Perm // the permissions the owner asked for
	slot  uint64   // swap slot when stateSwapped
}

// New builds a manager over the memory service.
//
//paralint:ignore deadexport internal/vmm is the one instance of the paper's virtual memory outside the nucleus, built on mem's primitives; the root TestVMMAsExtensionComponent exercises it
func New(svc *mem.Service) *Manager {
	return &Manager{
		svc:   svc,
		pages: make(map[key]*page),
		swap:  make(map[uint64][]byte),
	}
}

// Stats reports fault counts by cause.
//
//paralint:ignore deadexport internal/vmm is the one instance of the paper's virtual memory outside the nucleus, built on mem's primitives; the root TestVMMAsExtensionComponent exercises it
func (m *Manager) Stats() (demand, cow, swapIn, swapOut uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.demandFaults, m.cowFaults, m.swapIns, m.swapOuts
}

// DemandRegion arranges n demand-zero pages at base in ctx: nothing is
// allocated until the first access faults.
//
//paralint:ignore deadexport internal/vmm is the one instance of the paper's virtual memory outside the nucleus, built on mem's primitives; the root TestVMMAsExtensionComponent exercises it
func (m *Manager) DemandRegion(ctx mmu.ContextID, base mmu.VAddr, n int, perm mmu.Perm) error {
	for i := 0; i < n; i++ {
		va := base + mmu.VAddr(i*mmu.PageSize)
		k := key{ctx: ctx, vpn: va.VPN()}
		m.mu.Lock()
		if _, dup := m.pages[k]; dup {
			m.mu.Unlock()
			return fmt.Errorf("vmm: page %#x already managed", uint64(va))
		}
		m.pages[k] = &page{state: stateUnmapped, perm: perm}
		m.mu.Unlock()
		if err := m.svc.RegisterFaultHandler(ctx, va, m.handleFault); err != nil {
			return err
		}
	}
	return nil
}

// handleFault resolves demand-zero, copy-on-write and swap-in faults.
// Like every page operation of the manager, the demand-zero map
// initiates from the boot CPU.
func (m *Manager) handleFault(f hw.TrapFrame) bool {
	k := key{ctx: f.Ctx, vpn: f.Addr.VPN()}
	m.mu.Lock()
	p, ok := m.pages[k]
	if !ok {
		m.mu.Unlock()
		return false
	}
	state := p.state
	m.mu.Unlock()

	va := f.Addr.PageBase()
	switch state {
	case stateUnmapped:
		if err := m.svc.AllocPageOn(mmu.BootCPU, f.Ctx, va, p.perm); err != nil {
			return false
		}
		m.mu.Lock()
		p.state = stateMapped
		m.demandFaults++
		m.mu.Unlock()
		return true

	case stateCOW:
		if f.Access != mmu.AccessWrite {
			return false // reads of a COW page never fault
		}
		return m.resolveCOW(f.Ctx, va, p)

	case stateSwapped:
		return m.swapIn(f.Ctx, va, p)
	}
	return false
}

// Clone maps the n pages at srcBase in src into dst at dstBase,
// copy-on-write: both sides share frames read-only until one writes.
// The protects and maps initiate from the boot CPU.
//
//paralint:ignore deadexport internal/vmm is the one instance of the paper's virtual memory outside the nucleus, built on mem's primitives; the root TestVMMAsExtensionComponent exercises it
func (m *Manager) Clone(src mmu.ContextID, srcBase mmu.VAddr, dst mmu.ContextID, dstBase mmu.VAddr, n int) error {
	for i := 0; i < n; i++ {
		srcVA := srcBase + mmu.VAddr(i*mmu.PageSize)
		dstVA := dstBase + mmu.VAddr(i*mmu.PageSize)
		srcKey := key{ctx: src, vpn: srcVA.VPN()}
		dstKey := key{ctx: dst, vpn: dstVA.VPN()}

		m.mu.Lock()
		sp, ok := m.pages[srcKey]
		m.mu.Unlock()
		if !ok || sp.state == stateUnmapped {
			// An untouched demand page clones as a fresh demand page.
			m.mu.Lock()
			perm := mmu.PermRead | mmu.PermWrite
			if ok {
				perm = sp.perm
			}
			if _, dup := m.pages[dstKey]; dup {
				m.mu.Unlock()
				return fmt.Errorf("vmm: clone target %#x already managed", uint64(dstVA))
			}
			m.pages[dstKey] = &page{state: stateUnmapped, perm: perm}
			m.mu.Unlock()
			if err := m.svc.RegisterFaultHandler(dst, dstVA, m.handleFault); err != nil {
				return err
			}
			continue
		}
		if sp.state == stateSwapped {
			return fmt.Errorf("vmm: cannot clone swapped page %#x", uint64(srcVA))
		}

		// Resident: downgrade source to read-only and share.
		if err := m.svc.ProtectOn(mmu.BootCPU, src, srcVA, mmu.PermRead); err != nil {
			return err
		}
		if err := m.svc.SharePageOn(mmu.BootCPU, src, srcVA, dst, dstVA, mmu.PermRead); err != nil {
			return err
		}
		m.mu.Lock()
		sp.state = stateCOW
		m.pages[dstKey] = &page{state: stateCOW, perm: sp.perm}
		m.mu.Unlock()
		// The destination page needs its own fault handler; the
		// source already has one from DemandRegion.
		if err := m.svc.RegisterFaultHandler(dst, dstVA, m.handleFault); err != nil {
			return err
		}
	}
	return nil
}

// resolveCOW gives the writing context a private copy (or upgrades in
// place when it is the last sharer), remapping from the boot CPU.
func (m *Manager) resolveCOW(ctx mmu.ContextID, va mmu.VAddr, p *page) bool {
	machine := m.svc.Machine()
	frame, ok := m.svc.Frame(ctx, va)
	if !ok {
		return false
	}
	m.mu.Lock()
	m.cowFaults++
	m.mu.Unlock()

	if machine.Phys.RefCount(frame) == 1 {
		// Last sharer: upgrade in place.
		if err := m.svc.ProtectOn(mmu.BootCPU, ctx, va, p.perm); err != nil {
			return false
		}
		m.mu.Lock()
		p.state = stateMapped
		m.mu.Unlock()
		return true
	}
	// Copy the frame.
	src, err := machine.Phys.FramePayload(frame)
	if err != nil {
		return false
	}
	contents := make([]byte, len(src))
	copy(contents, src)
	if err := m.svc.FreePageOn(mmu.BootCPU, ctx, va); err != nil {
		return false
	}
	if err := m.svc.AllocPageOn(mmu.BootCPU, ctx, va, p.perm); err != nil {
		return false
	}
	newFrame, _ := m.svc.Frame(ctx, va)
	dst, err := machine.Phys.FramePayload(newFrame)
	if err != nil {
		return false
	}
	copy(dst, contents)
	m.mu.Lock()
	p.state = stateMapped
	m.mu.Unlock()
	return true
}

// Evict pages out a resident page: its contents go to the swap store
// and the frame is released, unmapped from the boot CPU. The next
// access faults and swaps in.
//
//paralint:ignore deadexport internal/vmm is the one instance of the paper's virtual memory outside the nucleus, built on mem's primitives; the root TestVMMAsExtensionComponent exercises it
func (m *Manager) Evict(ctx mmu.ContextID, va mmu.VAddr) error {
	k := key{ctx: ctx, vpn: va.VPN()}
	m.mu.Lock()
	p, ok := m.pages[k]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotManaged, uint64(va))
	}
	if p.state != stateMapped {
		return fmt.Errorf("%w: %#x (state %d)", ErrNotMapped, uint64(va), p.state)
	}
	machine := m.svc.Machine()
	frame, ok := m.svc.Frame(ctx, va)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va))
	}
	payload, err := machine.Phys.FramePayload(frame)
	if err != nil {
		return err
	}
	contents := make([]byte, len(payload))
	copy(contents, payload)
	if err := m.svc.FreePageOn(mmu.BootCPU, ctx, va); err != nil {
		return err
	}
	// FreePageOn drops the fault handler too; re-register for swap-in.
	if err := m.svc.RegisterFaultHandler(ctx, va, m.handleFault); err != nil {
		return err
	}
	m.mu.Lock()
	slot := m.next
	m.next++
	m.swap[slot] = contents
	p.state = stateSwapped
	p.slot = slot
	m.swapOuts++
	m.mu.Unlock()
	return nil
}

// swapIn restores an evicted page on fault, mapped from the boot CPU.
func (m *Manager) swapIn(ctx mmu.ContextID, va mmu.VAddr, p *page) bool {
	m.mu.Lock()
	contents, ok := m.swap[p.slot]
	m.mu.Unlock()
	if !ok {
		return false
	}
	if err := m.svc.AllocPageOn(mmu.BootCPU, ctx, va, p.perm); err != nil {
		return false
	}
	frame, _ := m.svc.Frame(ctx, va)
	dst, err := m.svc.Machine().Phys.FramePayload(frame)
	if err != nil {
		return false
	}
	copy(dst, contents)
	m.mu.Lock()
	delete(m.swap, p.slot)
	p.state = stateMapped
	m.swapIns++
	m.mu.Unlock()
	return true
}

// Resident reports whether the page at va is currently backed by a
// frame.
//
//paralint:ignore deadexport internal/vmm is the one instance of the paper's virtual memory outside the nucleus, built on mem's primitives; the root TestVMMAsExtensionComponent exercises it
func (m *Manager) Resident(ctx mmu.ContextID, va mmu.VAddr) bool {
	_, ok := m.svc.Frame(ctx, va)
	return ok
}
