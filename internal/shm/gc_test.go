package shm

import (
	"errors"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
)

// TestRevokeFromInitiator is the shm-level regression test for the
// boot-CPU-initiator bug: revoking a grant whose pages are cached only
// in the revoking CPU's own TLB must charge no shootdown IPIs, while
// the same revoke initiated from the boot CPU pays one per page held.
func TestRevokeFromInitiator(t *testing.T) {
	for _, tc := range []struct {
		name      string
		revoke    func(r *Registry, ref GrantRef) error
		wantIPIs  uint64
		wantStats uint64 // CPU 1's received-shootdown counter afterwards
	}{
		{
			name:     "from the CPU holding the entries",
			revoke:   func(r *Registry, ref GrantRef) error { return r.RevokeFrom(1, ref) },
			wantIPIs: 0,
		},
		{
			name:      "from the boot CPU",
			revoke:    func(r *Registry, ref GrantRef) error { return r.RevokeFrom(mmu.BootCPU, ref) },
			wantIPIs:  2, // one per page CPU 1 held cached
			wantStats: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, svc, machine := newTestRegistry(t, 2)
			owner := svc.NewDomain()
			grantee := svc.NewDomain()
			seg, err := reg.NewSegment(owner, 2)
			if err != nil {
				t.Fatal(err)
			}
			g, err := seg.Grant(grantee, RO)
			if err != nil {
				t.Fatal(err)
			}
			att, err := reg.Attach(g.Ref())
			if err != nil {
				t.Fatal(err)
			}
			// Cache both grantee-side pages in CPU 1's TLB only.
			for i := 0; i < seg.Pages(); i++ {
				va := att.Base() + mmu.VAddr(i*mmu.PageSize)
				if _, flt := machine.MMU.TranslateOn(1, grantee, va, mmu.AccessRead); flt.Kind != mmu.FaultNone {
					t.Fatalf("TranslateOn(1): %v", flt.Kind)
				}
			}
			before := machine.Meter.Count(clock.OpTLBShootdown)
			if err := tc.revoke(reg, g.Ref()); err != nil {
				t.Fatal(err)
			}
			if got := machine.Meter.Count(clock.OpTLBShootdown) - before; got != tc.wantIPIs {
				t.Fatalf("revoke charged %d shootdowns, want %d", got, tc.wantIPIs)
			}
			if got := machine.MMU.TLBStatsOn(1).Shootdowns; got != tc.wantStats {
				t.Fatalf("CPU 1 Shootdowns = %d, want %d", got, tc.wantStats)
			}
		})
	}
}

// TestTombstoneChurnBounded drives create/grant/attach/revoke/destroy
// churn and asserts the registry's grant table no longer grows
// monotonically: tombstone retention is bounded by the cap, evicted
// refs degrade from ErrRevoked to ErrNoGrant, and recent tombstones
// keep the better error.
func TestTombstoneChurnBounded(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	reg.SetMaxTombstones(8)
	owner := svc.NewDomain()
	grantee := svc.NewDomain()

	var refs []GrantRef
	for i := 0; i < 100; i++ {
		seg, err := reg.NewSegment(owner, 1)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		g, err := seg.Grant(grantee, RW)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if _, err := reg.Attach(g.Ref()); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := reg.RevokeFrom(mmu.BootCPU, g.Ref()); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		refs = append(refs, g.Ref())
		if got := reg.Tombstones(); got > 8 {
			t.Fatalf("iteration %d: %d tombstones retained, cap is 8", i, got)
		}
		if got := reg.Grants(); got > 8 {
			t.Fatalf("iteration %d: %d grant records retained, want <= cap", i, got)
		}
	}

	// The most recent revocations still report the distinct error; the
	// oldest have been evicted and degrade to ErrNoGrant.
	if _, err := reg.Attach(refs[len(refs)-1]); !errors.Is(err, ErrRevoked) {
		t.Fatalf("recent tombstone: Attach err = %v, want ErrRevoked", err)
	}
	if _, err := reg.Attach(refs[0]); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("evicted tombstone: Attach err = %v, want ErrNoGrant", err)
	}

	// The segments created above are still live; tear them down and
	// confirm their tombstones go with them.
	reg.CondemnDomainFrom(mmu.BootCPU, owner)
	if got := reg.Tombstones(); got != 0 {
		t.Fatalf("tombstones after owner teardown = %d, want 0 (all segments destroyed)", got)
	}
}

// TestDestroySweepsTombstones asserts destroying a segment reclaims the
// tombstones of its revoked grants immediately, ahead of the size cap.
func TestDestroySweepsTombstones(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	owner := svc.NewDomain()
	grantee := svc.NewDomain()

	seg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := seg.Grant(grantee, RO)
	if err != nil {
		t.Fatal(err)
	}
	og, err := other.Grant(grantee, RO)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RevokeFrom(mmu.BootCPU, g.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := reg.RevokeFrom(mmu.BootCPU, og.Ref()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Tombstones(); got != 2 {
		t.Fatalf("tombstones = %d, want 2", got)
	}

	if err := seg.DestroyFrom(mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	// Only the destroyed segment's tombstone is swept; the other
	// segment's survives with its better error.
	if got := reg.Tombstones(); got != 1 {
		t.Fatalf("tombstones after destroy = %d, want 1", got)
	}
	if _, err := reg.Attach(g.Ref()); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("swept tombstone: Attach err = %v, want ErrNoGrant", err)
	}
	if _, err := reg.Attach(og.Ref()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("surviving tombstone: Attach err = %v, want ErrRevoked", err)
	}
}

// TestSetMaxTombstonesZero asserts a zero cap retains nothing: every
// revoked ref immediately reports ErrNoGrant.
func TestSetMaxTombstonesZero(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	reg.SetMaxTombstones(0)
	owner := svc.NewDomain()
	grantee := svc.NewDomain()
	seg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := seg.Grant(grantee, RO)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RevokeFrom(mmu.BootCPU, g.Ref()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Attach(g.Ref()); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("Attach err = %v, want ErrNoGrant (cap 0 retains nothing)", err)
	}
	if got := reg.Grants(); got != 0 {
		t.Fatalf("grant records = %d, want 0", got)
	}
}

// TestTeardownShootdownThroughDomainDestroy exercises the full
// DestroyContextFrom teardown charge through the mem service: a second CPU
// caches a domain's page, the domain is destroyed from the boot CPU,
// and the remote CPU is charged its context-invalidation IPI on top of
// the per-page unmap shootdown.
func TestTeardownShootdownThroughDomainDestroy(t *testing.T) {
	_, svc, machine := newTestRegistry(t, 2)
	ctx := svc.NewDomain()
	va := mmu.VAddr(0x4000)
	if err := svc.AllocPageOn(mmu.BootCPU, ctx, va, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	// CPU 1 caches the page; nothing else in the domain is cached.
	if _, flt := machine.MMU.TranslateOn(1, ctx, va, mmu.AccessRead); flt.Kind != mmu.FaultNone {
		t.Fatal(flt.Kind)
	}
	before := machine.Meter.Count(clock.OpTLBShootdown)
	if err := svc.DestroyDomain(ctx); err != nil {
		t.Fatal(err)
	}
	// One IPI for the page unmap (CPU 1 held it) — then the context
	// teardown finds CPU 1's TLB already empty, so no second charge.
	if got := machine.Meter.Count(clock.OpTLBShootdown) - before; got != 1 {
		t.Fatalf("DestroyDomain charged %d shootdowns, want 1", got)
	}
}
