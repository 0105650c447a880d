package shm

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
)

func newTestRegistry(t *testing.T, cpus int) (*Registry, *mem.Service, *hw.Machine) {
	t.Helper()
	machine := hw.New(hw.Config{PhysFrames: 128, CPUs: cpus})
	svc := mem.New(machine)
	return NewRegistry(svc), svc, machine
}

func TestSegmentLifecycle(t *testing.T) {
	reg, svc, machine := newTestRegistry(t, 1)
	owner := svc.NewDomain()
	grantee := svc.NewDomain()

	freeBefore := machine.Phys.FreeFrames()
	seg, err := reg.NewSegment(owner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Size() != 2*mmu.PageSize {
		t.Fatalf("Size = %d, want %d", seg.Size(), 2*mmu.PageSize)
	}
	payload := []byte("zero-copy bulk data")
	if err := seg.Store(100, payload); err != nil {
		t.Fatal(err)
	}

	g, err := seg.Grant(grantee, RO)
	if err != nil {
		t.Fatal(err)
	}
	if g.Ref() == 0 {
		t.Fatal("grant ref is the reserved zero value")
	}
	att, err := reg.Attach(g.Ref())
	if err != nil {
		t.Fatal(err)
	}
	// Re-attach is idempotent: same mapping, no second set of pages.
	att2, err := reg.Attach(g.Ref())
	if err != nil || att2 != att {
		t.Fatalf("re-attach = (%v, %v), want the original attachment", att2, err)
	}

	// The grantee reads the owner's bytes through its own context:
	// the frames are shared, nothing was copied.
	got := make([]byte, len(payload))
	if err := att.Load(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("grantee read %q, want %q", got, payload)
	}
	// Frames are refcounted: owner + grantee.
	frame, ok := svc.Frame(owner, seg.Base())
	if !ok {
		t.Fatal("owner page not managed")
	}
	if rc := machine.Phys.RefCount(frame); rc != 2 {
		t.Fatalf("shared frame refcount = %d, want 2", rc)
	}

	// RO attachment refuses stores before touching the MMU.
	if err := att.Store(0, []byte{1}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("store through RO attachment = %v, want ErrReadOnly", err)
	}

	// An RW grant makes grantee writes visible to the owner.
	g2, err := seg.Grant(grantee, RW)
	if err != nil {
		t.Fatal(err)
	}
	att3, err := reg.Attach(g2.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if err := att3.Store(mmu.PageSize+8, []byte("written by grantee")); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 18)
	if err := seg.Load(mmu.PageSize+8, back); err != nil {
		t.Fatal(err)
	}
	if string(back) != "written by grantee" {
		t.Fatalf("owner read %q after grantee store", back)
	}

	// Bounds are enforced.
	if err := att.Load(seg.Size()-4, make([]byte, 8)); !errors.Is(err, ErrBounds) {
		t.Fatalf("out-of-bounds load = %v, want ErrBounds", err)
	}

	// Destroy revokes every grant and releases every frame.
	if err := seg.DestroyFrom(mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if err := att.Load(0, got); !errors.Is(err, ErrRevoked) {
		t.Fatalf("load after destroy = %v, want ErrRevoked", err)
	}
	if free := machine.Phys.FreeFrames(); free != freeBefore {
		t.Fatalf("frames leaked: %d free, want %d", free, freeBefore)
	}
	if err := seg.DestroyFrom(mmu.BootCPU); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("second destroy = %v, want ErrDestroyed", err)
	}
}

// TestSegmentScopedRefsRejectForeignGrants: Segment.Revoke and
// Segment.Attach refuse a ref issued for a DIFFERENT segment — a
// mixed-up ref must never revoke or map a grant the caller didn't
// mean to touch. (The unscoped Registry forms accept any live ref.)
func TestSegmentScopedRefsRejectForeignGrants(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	owner, grantee := svc.NewDomain(), svc.NewDomain()
	segA, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	segB, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	gB, err := segB.Grant(grantee, RW)
	if err != nil {
		t.Fatal(err)
	}
	if err := segA.RevokeFrom(mmu.BootCPU, gB.Ref()); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("segA.Revoke(refOfB) = %v, want ErrNoGrant", err)
	}
	if _, err := segA.Attach(gB.Ref()); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("segA.Attach(refOfB) = %v, want ErrNoGrant", err)
	}
	// B's grant survived the mixed-up calls and still works through
	// its own segment.
	att, err := segB.Attach(gB.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if err := att.Store(0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := segB.RevokeFrom(mmu.BootCPU, gB.Ref()); err != nil {
		t.Fatal(err)
	}
}

// TestVAReuseUnderGrantChurn: address-space reservations are recycled
// on revoke and destroy, so sustained grant churn does not march the
// arena toward the proxy entry-page region.
func TestVAReuseUnderGrantChurn(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	owner, grantee := svc.NewDomain(), svc.NewDomain()
	seg, err := reg.NewSegment(owner, 4)
	if err != nil {
		t.Fatal(err)
	}
	var first mmu.VAddr
	for i := 0; i < 100; i++ {
		g, err := seg.Grant(grantee, RO)
		if err != nil {
			t.Fatal(err)
		}
		att, err := reg.Attach(g.Ref())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = att.Base()
		} else if att.Base() != first {
			t.Fatalf("attach %d landed at %#x, want the recycled %#x", i, uint64(att.Base()), uint64(first))
		}
		if err := g.RevokeFrom(mmu.BootCPU); err != nil {
			t.Fatal(err)
		}
	}
	// Segment churn recycles the owner side too.
	ownerBase := seg.Base()
	if err := seg.DestroyFrom(mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	seg2, err := reg.NewSegment(owner, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seg2.Base() != ownerBase {
		t.Fatalf("new segment at %#x, want the recycled %#x", uint64(seg2.Base()), uint64(ownerBase))
	}
}

// TestConcurrentAccessDuringRevoke: copies racing a revoke either
// complete against the live mapping or fail with ErrRevoked — never a
// raw fault from a half-torn mapping, never a read of a recycled
// frame. The frames are refilled with a distinct pattern after each
// revoke; any read that returns a mix proves a copy ran against freed
// frames.
func TestConcurrentAccessDuringRevoke(t *testing.T) {
	reg, svc, machine := newTestRegistry(t, 2)
	owner, grantee := svc.NewDomain(), svc.NewDomain()
	seg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		pattern := byte(round + 1)
		if err := seg.Store(0, bytes.Repeat([]byte{pattern}, mmu.PageSize)); err != nil {
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
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, mmu.PageSize)
				for {
					err := att.Load(0, buf)
					if errors.Is(err, ErrRevoked) {
						return
					}
					if err != nil {
						t.Errorf("load raced revoke into a raw error: %v", err)
						return
					}
					for _, b := range buf {
						if b != pattern {
							t.Errorf("read byte %#x from a freed frame (want %#x)", b, pattern)
							return
						}
					}
				}
			}()
		}
		_ = g.RevokeFrom(mmu.BootCPU)
		wg.Wait()
	}
	_ = machine // machine only anchors the fixture
}

// TestRevokedReadersRaceRevoke: Revoked takes no lock, so readers
// polling it race RevokeFrom directly. Once either side's Revoked
// reports true it stays true, and an access made after that fails with
// ErrRevoked: the flag is stored while the revoke holds the access lock,
// so an access that sees it cannot have run on the torn mapping. When
// RevokeFrom returns, both report true.
func TestRevokedReadersRaceRevoke(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 2)
	owner, grantee := svc.NewDomain(), svc.NewDomain()
	seg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		g, err := seg.Grant(grantee, RW)
		if err != nil {
			t.Fatal(err)
		}
		att, err := reg.Attach(g.Ref())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				revoked := g.Revoked
				if w%2 == 1 {
					revoked = att.Revoked
				}
				var word [8]byte
				for !revoked() {
					runtime.Gosched()
				}
				if !revoked() {
					t.Error("Revoked went back to false")
				}
				if err := att.Store(0, word[:]); !errors.Is(err, ErrRevoked) {
					t.Errorf("store after Revoked = %v, want ErrRevoked", err)
				}
			}(w)
		}
		if err := g.RevokeFrom(mmu.BootCPU); err != nil {
			t.Fatal(err)
		}
		if !g.Revoked() || !att.Revoked() {
			t.Fatal("RevokeFrom returned with Revoked false")
		}
		wg.Wait()
	}
}

func TestForgedRefFails(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	owner := svc.NewDomain()
	seg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := seg.Grant(svc.NewDomain(), RO)
	if err != nil {
		t.Fatal(err)
	}
	for _, forged := range []GrantRef{0, 1, g.Ref() + 1, g.Ref() ^ 0x8000_0000_0000_0000} {
		if _, err := reg.Attach(forged); !errors.Is(err, ErrNoGrant) {
			t.Fatalf("Attach(forged %#x) = %v, want ErrNoGrant", uint64(forged), err)
		}
	}
}

func TestRevokeIsDistinctFromLookupFailure(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	owner, grantee := svc.NewDomain(), svc.NewDomain()
	seg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := seg.Grant(grantee, RW)
	if err != nil {
		t.Fatal(err)
	}
	att, err := reg.Attach(g.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if err := att.Store(0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	mappedBefore := svc.Machine().MMU.Mappings(grantee)

	if err := g.RevokeFrom(mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	// The grantee's mapping is gone...
	if got := svc.Machine().MMU.Mappings(grantee); got != mappedBefore-1 {
		t.Fatalf("grantee mappings = %d after revoke, want %d", got, mappedBefore-1)
	}
	// ...and every path reports the DISTINCT revocation error, not a
	// generic lookup failure.
	if err := att.Load(0, make([]byte, 1)); !errors.Is(err, ErrRevoked) {
		t.Fatalf("load after revoke = %v, want ErrRevoked", err)
	}
	if _, err := reg.Attach(g.Ref()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("re-attach after revoke = %v, want ErrRevoked", err)
	}
	if err := reg.RevokeFrom(mmu.BootCPU, g.Ref()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("double revoke = %v, want ErrRevoked", err)
	}
	if err := reg.CheckDeliverable(g.Ref(), grantee); !errors.Is(err, ErrRevoked) {
		t.Fatalf("CheckDeliverable after revoke = %v, want ErrRevoked", err)
	}
	// The owner is unaffected.
	var b [1]byte
	if err := seg.Load(0, b[:]); err != nil || b[0] != 42 {
		t.Fatalf("owner load after revoke = (%v, %d), want (nil, 42)", err, b[0])
	}
}

// TestRevokePaysRemoteShootdowns attaches a segment, caches its pages
// in a REMOTE CPU's TLB, and asserts revocation charges the
// per-remote-CPU TLB shootdown: the cost model's honesty claim for the
// zero-copy plane — mapping is cheap, but yanking mappings back from a
// multiprocessor is not free.
func TestRevokePaysRemoteShootdowns(t *testing.T) {
	reg, svc, machine := newTestRegistry(t, 2)
	owner, grantee := svc.NewDomain(), svc.NewDomain()
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
	// CPU 1 reads both pages of the attachment, caching them in its
	// own TLB; the revoke below initiates from the boot CPU, so both
	// entries are remote.
	var buf [8]byte
	for p := 0; p < 2; p++ {
		va := att.Base() + mmu.VAddr(p*mmu.PageSize)
		if err := machine.CPUByID(1).Machine().LoadOn(machine.CPUByID(1).ID(), grantee, va, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	before := machine.Meter.Count(clock.OpTLBShootdown)
	if err := g.RevokeFrom(mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if got := machine.Meter.Count(clock.OpTLBShootdown) - before; got != 2 {
		t.Fatalf("revoke charged %d shootdowns, want 2 (both pages cached on CPU 1)", got)
	}
	if got := machine.MMU.TLBStatsOn(1).Shootdowns; got != 2 {
		t.Fatalf("CPU 1 received %d shootdowns, want 2", got)
	}
}

func TestCondemnDomain(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 1)
	owner, victim, bystander := svc.NewDomain(), svc.NewDomain(), svc.NewDomain()

	// The victim both owns a segment (granted to a bystander) and holds
	// a grant on someone else's segment.
	ownSeg, err := reg.NewSegment(victim, 1)
	if err != nil {
		t.Fatal(err)
	}
	outGrant, err := ownSeg.Grant(bystander, RO)
	if err != nil {
		t.Fatal(err)
	}
	outAtt, err := reg.Attach(outGrant.Ref())
	if err != nil {
		t.Fatal(err)
	}
	otherSeg, err := reg.NewSegment(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	inGrant, err := otherSeg.Grant(victim, RW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Attach(inGrant.Ref()); err != nil {
		t.Fatal(err)
	}

	reg.CondemnDomainFrom(mmu.BootCPU, victim)

	// Grants TO the victim are revoked; its mappings are gone.
	if _, err := reg.Attach(inGrant.Ref()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("attach of victim's inbound grant = %v, want ErrRevoked", err)
	}
	if got := svc.Machine().MMU.Mappings(victim); got != 0 {
		t.Fatalf("victim still holds %d mappings after condemn", got)
	}
	// Segments OWNED by the victim are destroyed, revoking the
	// bystander's attachment too.
	if err := outAtt.Load(0, make([]byte, 1)); !errors.Is(err, ErrRevoked) {
		t.Fatalf("bystander attachment of victim-owned segment = %v, want ErrRevoked", err)
	}
	// No fresh segment, grant or attach may involve the victim.
	if _, err := reg.NewSegment(victim, 1); !errors.Is(err, ErrCondemned) {
		t.Fatalf("NewSegment in condemned domain = %v, want ErrCondemned", err)
	}
	if _, err := otherSeg.Grant(victim, RO); !errors.Is(err, ErrCondemned) {
		t.Fatalf("Grant to condemned domain = %v, want ErrCondemned", err)
	}

	// Absolution bounds the condemned set; the context is (in a real
	// teardown) destroyed by then, so nothing new can map anyway.
	reg.AbsolveDomain(victim)
	if _, err := reg.NewSegment(victim, 1); err != nil {
		// Context still exists in this unit test, so creation works
		// again — absolution only lifts the registry-level gate.
		t.Fatalf("NewSegment after absolve = %v", err)
	}
}

// TestGrantLifecycleRaces hammers one registry with concurrent
// creates, grants, attaches, revokes and domain condemns. It asserts
// nothing beyond the registry's own invariants — the run being
// -race-clean and deadlock-free is the point — plus the terminal
// state: after every domain is condemned, no segment survives.
func TestGrantLifecycleRaces(t *testing.T) {
	reg, svc, _ := newTestRegistry(t, 4)
	const domains = 4
	ctxs := make([]mmu.ContextID, domains)
	for i := range ctxs {
		ctxs[i] = svc.NewDomain()
	}

	var wg sync.WaitGroup
	for w := 0; w < domains; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				seg, err := reg.NewSegment(ctxs[me], 1)
				if err != nil {
					continue
				}
				peer := ctxs[(me+1+i%(domains-1))%domains]
				g, err := seg.Grant(peer, RW)
				if err != nil {
					_ = seg.DestroyFrom(mmu.BootCPU)
					continue
				}
				if att, err := reg.Attach(g.Ref()); err == nil {
					_ = att.Store(0, []byte{byte(i)})
					_ = att.Load(0, make([]byte, 1))
				}
				if i%2 == 0 {
					_ = g.RevokeFrom(mmu.BootCPU)
				}
				_ = seg.DestroyFrom(mmu.BootCPU)
			}
		}(w)
	}
	wg.Wait()

	for _, ctx := range ctxs {
		reg.CondemnDomainFrom(mmu.BootCPU, ctx)
	}
	if n := reg.Segments(); n != 0 {
		t.Fatalf("%d segments survive after every domain condemned", n)
	}
	for _, ctx := range ctxs {
		if got := svc.Machine().MMU.Mappings(ctx); got != 0 {
			t.Fatalf("context %d still holds %d mappings", ctx, got)
		}
	}
}
