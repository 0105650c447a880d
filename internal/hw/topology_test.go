package hw

import (
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
)

// TestOversubscribedLeaseNodeAccounting: when AcquireCPU runs out of
// exclusive CPUs and falls back to forced shares, remote-frame
// accounting must still follow each lease's real CPU identity. Six
// leases on a 2×2 machine (two of them shared) each touch a node-0
// page, a node-1 page and an untagged page; the OpRemoteFrameAccess
// total must equal the cross-node accesses computed from the CPUs the
// leases actually landed on — a shared CPU charges per lease that uses
// it, an untagged frame charges nothing.
func TestOversubscribedLeaseNodeAccounting(t *testing.T) {
	m := New(Config{PhysFrames: 64, Topology: NewTopology(2, 2)})
	ctx := m.MMU.NewContext()

	type page struct {
		va   mmu.VAddr
		home int32
	}
	pages := []page{{va: 0x10000, home: 0}, {va: 0x20000, home: 1}}
	for _, p := range pages {
		frame, err := m.Phys.AllocFrame()
		if err != nil {
			t.Fatalf("alloc frame: %v", err)
		}
		if err := m.MMU.MapOn(mmu.BootCPU, ctx, p.va, frame, mmu.PermRead|mmu.PermWrite); err != nil {
			t.Fatalf("map %#x: %v", p.va, err)
		}
		if err := m.Phys.SetFrameNode(frame, p.home); err != nil {
			t.Fatalf("set frame node: %v", err)
		}
	}
	const untaggedVA = mmu.VAddr(0x30000)
	frame, err := m.Phys.AllocFrame()
	if err != nil {
		t.Fatalf("alloc untagged frame: %v", err)
	}
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, untaggedVA, frame, mmu.PermRead); err != nil {
		t.Fatalf("map untagged: %v", err)
	}

	leases := make([]CPULease, 6)
	for i := range leases {
		leases[i] = m.AcquireCPU()
	}
	if got := m.SharedLeases(); got != 2 {
		t.Fatalf("SharedLeases() = %d, want 2 (6 leases on 4 CPUs)", got)
	}

	before := m.Meter.Count(clock.OpRemoteFrameAccess)
	var want uint64
	var buf [8]byte
	for i, l := range leases {
		node := m.NodeOfCPU(l.cpu.id)
		for _, p := range pages {
			if err := m.LoadOn(l.cpu.id, ctx, p.va, buf[:]); err != nil {
				t.Fatalf("lease %d load %#x: %v", i, p.va, err)
			}
			if node != p.home {
				want++
			}
		}
		if err := m.LoadOn(l.cpu.id, ctx, untaggedVA, buf[:]); err != nil {
			t.Fatalf("lease %d load untagged: %v", i, err)
		}
	}
	if got := m.Meter.Count(clock.OpRemoteFrameAccess) - before; got != want {
		t.Fatalf("OpRemoteFrameAccess delta = %d, want %d (from actual lease CPUs)", got, want)
	}
	for _, l := range leases {
		l.Release()
	}
}
