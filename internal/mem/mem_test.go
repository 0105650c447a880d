package mem

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium/internal/hw"
	"paramecium/internal/mmu"
)

func newService(frames int) (*Service, *hw.Machine) {
	m := hw.New(hw.Config{PhysFrames: frames})
	return New(m), m
}

func TestAllocPageAndAccess(t *testing.T) {
	s, m := newService(16)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x10000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x10010, []byte("data")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := m.LoadOn(mmu.BootCPU, ctx, 0x10010, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("read back %q", buf)
	}
}

func TestAllocPageDuplicate(t *testing.T) {
	s, _ := newService(16)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1800, mmu.PermRead); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("same page: %v", err) // 0x1800 is within the same page
	}
}

func TestAllocPageOutOfMemory(t *testing.T) {
	s, _ := newService(1)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x2000, mmu.PermRead); !errors.Is(err, mmu.ErrOutOfMemory) {
		t.Fatalf("OOM: %v", err)
	}
}

// allocRange allocates n consecutive exclusive pages starting at va.
func allocRange(s *Service, ctx mmu.ContextID, va mmu.VAddr, n int, perm mmu.Perm) error {
	for i := 0; i < n; i++ {
		if err := s.AllocPageOn(mmu.BootCPU, ctx, va+mmu.VAddr(i*mmu.PageSize), perm); err != nil {
			return err
		}
	}
	return nil
}

func TestAllocRange(t *testing.T) {
	s, m := newService(16)
	ctx := s.NewDomain()
	if err := allocRange(s, ctx, 0x4000, 3, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	// Spanning write across the whole range.
	data := make([]byte, 3*mmu.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x4000, data); err != nil {
		t.Fatal(err)
	}
}

func TestSharePage(t *testing.T) {
	s, m := newService(16)
	a := s.NewDomain()
	b := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x8000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	// Writes in a are visible in b.
	if err := m.StoreOn(mmu.BootCPU, a, 0x1000, []byte("shared!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := m.LoadOn(mmu.BootCPU, b, 0x8000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared!" {
		t.Fatalf("b sees %q", buf)
	}
	// b's mapping is read-only.
	if err := m.StoreOn(mmu.BootCPU, b, 0x8000, []byte("x")); err == nil {
		t.Fatal("read-only sharer could write")
	}
	// Frame is refcounted at 2.
	frame, ok := s.Frame(a, 0x1000)
	if !ok {
		t.Fatal("Frame lookup failed")
	}
	if got := m.Phys.RefCount(frame); got != 2 {
		t.Fatalf("refcount = %d", got)
	}
}

func TestSharePageErrors(t *testing.T) {
	s, _ := newService(16)
	a, b := s.NewDomain(), s.NewDomain()
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x2000, mmu.PermRead); !errors.Is(err, ErrNoPage) {
		t.Fatalf("share unmanaged: %v", err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocPageOn(mmu.BootCPU, b, 0x2000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x2000, mmu.PermRead); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("share onto busy: %v", err)
	}
}

func TestFreePage(t *testing.T) {
	s, m := newService(4)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	free := m.Phys.FreeFrames()
	if err := s.FreePageOn(mmu.BootCPU, ctx, 0x1000); err != nil {
		t.Fatal(err)
	}
	if m.Phys.FreeFrames() != free+1 {
		t.Fatal("frame not returned")
	}
	if err := m.LoadOn(mmu.BootCPU, ctx, 0x1000, make([]byte, 1)); err == nil {
		t.Fatal("freed page still readable")
	}
	if err := s.FreePageOn(mmu.BootCPU, ctx, 0x1000); !errors.Is(err, ErrNoPage) {
		t.Fatalf("double free: %v", err)
	}
}

func TestFreeSharedPageKeepsFrame(t *testing.T) {
	s, m := newService(4)
	a, b := s.NewDomain(), s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreOn(mmu.BootCPU, a, 0x1000, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	if err := s.FreePageOn(mmu.BootCPU, a, 0x1000); err != nil {
		t.Fatal(err)
	}
	// b still reads the data; the frame survived.
	buf := make([]byte, 7)
	if err := m.LoadOn(mmu.BootCPU, b, 0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist" {
		t.Fatalf("b sees %q", buf)
	}
}

func TestProtect(t *testing.T) {
	s, m := newService(4)
	ctx := s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.ProtectOn(mmu.BootCPU, ctx, 0x1000, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x1000, []byte("x")); err == nil {
		t.Fatal("write allowed after Protect")
	}
	if err := s.ProtectOn(mmu.BootCPU, ctx, 0x9000, mmu.PermRead); !errors.Is(err, ErrNoPage) {
		t.Fatalf("protect unmanaged: %v", err)
	}
}

func TestFaultHandlerDemandPaging(t *testing.T) {
	s, m := newService(8)
	ctx := s.NewDomain()
	faults := 0
	if err := s.RegisterFaultHandler(ctx, 0x5000, func(f hw.TrapFrame) bool {
		faults++
		if err := s.AllocPageOn(mmu.BootCPU, f.Ctx, f.Addr.PageBase(), mmu.PermRead|mmu.PermWrite); err != nil {
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x5008, []byte("lazy")); err != nil {
		t.Fatalf("demand-paged store: %v", err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
	// Warm access: no new fault.
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x5008, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults after warm access = %d", faults)
	}
}

func TestFaultWithoutHandlerIsUnresolved(t *testing.T) {
	s, m := newService(8)
	ctx := s.NewDomain()
	err := m.LoadOn(mmu.BootCPU, ctx, 0x7000, make([]byte, 1))
	var f *mmu.Fault
	if !errors.As(err, &f) || f.Kind != mmu.FaultNoMapping || f.Addr != 0x7000 {
		t.Fatalf("unhandled fault: err = %v, want the no-mapping fault at 0x7000", err)
	}
}

func TestFaultHandlerRegistration(t *testing.T) {
	s, _ := newService(8)
	ctx := s.NewDomain()
	h := func(hw.TrapFrame) bool { return false }
	if err := s.RegisterFaultHandler(ctx, 0x1000, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := s.RegisterFaultHandler(ctx, 0x1000, h); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFaultHandler(ctx, 0x1800, h); !errors.Is(err, ErrHandlerBusy) {
		t.Fatalf("duplicate (same page): %v", err)
	}
	if err := s.UnregisterFaultHandler(ctx, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterFaultHandler(ctx, 0x1000); !errors.Is(err, ErrNoPage) {
		t.Fatalf("double unregister: %v", err)
	}
}

func TestDestroyDomainReclaimsEverything(t *testing.T) {
	s, m := newService(8)
	ctx := s.NewDomain()
	free := m.Phys.FreeFrames()
	if err := allocRange(s, ctx, 0x1000, 3, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFaultHandler(ctx, 0x9000, func(hw.TrapFrame) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyDomain(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Phys.FreeFrames() != free {
		t.Fatalf("frames leaked: %d != %d", m.Phys.FreeFrames(), free)
	}
	if m.MMU.HasContext(ctx) {
		t.Fatal("context survived destroy")
	}
}

func TestDestroyDomainKeepsSharedFrames(t *testing.T) {
	s, m := newService(8)
	a, b := s.NewDomain(), s.NewDomain()
	if err := s.AllocPageOn(mmu.BootCPU, a, 0x1000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SharePageOn(mmu.BootCPU, a, 0x1000, b, 0x2000, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreOn(mmu.BootCPU, a, 0x1000, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyDomain(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := m.LoadOn(mmu.BootCPU, b, 0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "alive" {
		t.Fatalf("b sees %q after sharer died", buf)
	}
}

func TestIOSpaceExclusive(t *testing.T) {
	s, m := newService(8)
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	drv := s.NewDomain()
	other := s.NewDomain()
	g, err := s.AllocIOSpace(drv, "net0-regs", IOExclusive)
	if err != nil {
		t.Fatal(err)
	}
	if g.Region == nil || g.Mode != IOExclusive {
		t.Fatalf("grant = %+v", g)
	}
	// The grant's region is usable.
	if _, err := g.Region.ReadReg(hw.NICRegRxPending); err != nil {
		t.Fatal(err)
	}
	// No second grant of any kind while exclusive is held.
	if _, err := s.AllocIOSpace(other, "net0-regs", IOShared); !errors.Is(err, ErrIOConflict) {
		t.Fatalf("shared over exclusive: %v", err)
	}
	if _, err := s.AllocIOSpace(other, "net0-regs", IOExclusive); !errors.Is(err, ErrIOConflict) {
		t.Fatalf("double exclusive: %v", err)
	}
	if err := s.ReleaseIOSpace(g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocIOSpace(other, "net0-regs", IOExclusive); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if err := s.ReleaseIOSpace(g); !errors.Is(err, ErrNoGrant) {
		t.Fatalf("double release: %v", err)
	}
}

func TestIOSpaceShared(t *testing.T) {
	s, m := newService(8)
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	a, b := s.NewDomain(), s.NewDomain()
	if _, err := s.AllocIOSpace(a, "net0-regs", IOShared); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocIOSpace(b, "net0-regs", IOShared); err != nil {
		t.Fatal(err)
	}
	if got := len(s.grants["net0-regs"]); got != 2 {
		t.Fatalf("grants = %d", got)
	}
	// Exclusive now conflicts with the shared holders.
	if _, err := s.AllocIOSpace(a, "net0-regs", IOExclusive); !errors.Is(err, ErrIOConflict) {
		t.Fatalf("exclusive over shared: %v", err)
	}
}

func TestIOSpaceUnknownRegion(t *testing.T) {
	s, _ := newService(8)
	if _, err := s.AllocIOSpace(0, "ghost", IOShared); !errors.Is(err, ErrNoIORegion) {
		t.Fatalf("unknown region: %v", err)
	}
}

func TestDestroyDomainReleasesGrants(t *testing.T) {
	s, m := newService(8)
	nic := hw.NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	ctx := s.NewDomain()
	if _, err := s.AllocIOSpace(ctx, "net0-regs", IOExclusive); err != nil {
		t.Fatal(err)
	}
	if err := s.DestroyDomain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(s.grants["net0-regs"]); got != 0 {
		t.Fatalf("grants after destroy = %d", got)
	}
}

func TestIOModeString(t *testing.T) {
	if IOExclusive.String() != "exclusive" || IOShared.String() != "shared" {
		t.Fatal("mode strings")
	}
}

func TestReserveVAArena(t *testing.T) {
	s, _ := newService(16)
	a, b := s.NewDomain(), s.NewDomain()

	// Reservations within one context never overlap; contexts are
	// independent arenas starting at ShareBase.
	r1 := s.ReserveVA(a, 2)
	r2 := s.ReserveVA(a, 3)
	if r1 != ShareBase {
		t.Fatalf("first reservation at %#x, want ShareBase %#x", uint64(r1), uint64(ShareBase))
	}
	if r2 < r1+2*mmu.PageSize {
		t.Fatalf("reservations overlap: %#x then %#x", uint64(r1), uint64(r2))
	}
	if got := s.ReserveVA(b, 2); got != ShareBase {
		t.Fatalf("context b arena starts at %#x, want ShareBase", uint64(got))
	}

	// Released ranges are recycled exact-fit before the arena grows.
	s.ReleaseVA(a, r1, 2)
	if got := s.ReserveVA(a, 2); got != r1 {
		t.Fatalf("2-page reservation = %#x, want recycled %#x", uint64(got), uint64(r1))
	}
	// A different length does not steal the freed range.
	s.ReleaseVA(a, r2, 3)
	if got := s.ReserveVA(a, 1); got == r2 {
		t.Fatal("1-page reservation reused a 3-page range")
	}

	// DestroyDomain forgets the arena; a late release is a no-op.
	if err := s.DestroyDomain(a); err != nil {
		t.Fatal(err)
	}
	s.ReleaseVA(a, r2, 3)
}

// TestFaultHandlersRaceFaults churns the handler table through all its
// writers — RegisterFaultHandler, UnregisterFaultHandler, FreePageOn
// and DestroyDomain — while two CPUs fault on registered pages. Each
// fault dispatches through either the table before a write or the one
// after it: a page the writer never touches reaches its handler on
// every fault, and a page swapped between two handlers reaches one of
// them or, between the unregister and the register, none.
func TestFaultHandlersRaceFaults(t *testing.T) {
	m := hw.New(hw.Config{PhysFrames: 64, CPUs: 2})
	s := New(m)
	ctx := s.NewDomain()
	const stable, swapped = mmu.VAddr(0x5000), mmu.VAddr(0x6000)
	var stableHits atomic.Int64
	var swappedHits [2]atomic.Int64 // by faulting CPU
	if err := s.RegisterFaultHandler(ctx, stable, func(hw.TrapFrame) bool { stableHits.Add(1); return false }); err != nil {
		t.Fatal(err)
	}
	onSwapped := func(f hw.TrapFrame) bool { swappedHits[f.CPU].Add(1); return false }
	if err := s.RegisterFaultHandler(ctx, swapped, onSwapped); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		writerDone <- func() error {
			nop := func(hw.TrapFrame) bool { return false }
			for i := 0; ; i++ {
				select {
				case <-stop:
					return nil
				default:
				}
				if err := s.UnregisterFaultHandler(ctx, swapped); err != nil {
					return err
				}
				if err := s.RegisterFaultHandler(ctx, swapped, onSwapped); err != nil {
					return err
				}
				// A mapped page with a handler, dropped by FreePageOn.
				va := mmu.VAddr(0x10000 + (i%4)*mmu.PageSize)
				if err := s.AllocPageOn(mmu.BootCPU, ctx, va, mmu.PermRead); err != nil {
					return err
				}
				if err := s.RegisterFaultHandler(ctx, va, nop); err != nil {
					return err
				}
				if err := s.FreePageOn(mmu.BootCPU, ctx, va); err != nil {
					return err
				}
				// Another domain's handlers, dropped by DestroyDomain.
				other := s.NewDomain()
				if err := s.RegisterFaultHandler(other, stable, nop); err != nil {
					return err
				}
				if err := s.DestroyDomain(other); err != nil {
					return err
				}
			}
		}()
	}()
	const perCPU = 1000
	// unreached counts, per CPU, the failed loads of the swapped page
	// whose fault reached no handler. A handler runs on the faulting
	// CPU's goroutine, so a load that left its CPU's hit count alone
	// reached none.
	var unreached [2]int64
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu mmu.CPUID) {
			defer wg.Done()
			for i := 0; i < perCPU; i++ {
				var b [1]byte
				_ = m.LoadOn(cpu, ctx, stable, b[:])
				hits := swappedHits[cpu].Load()
				if err := m.LoadOn(cpu, ctx, swapped, b[:]); err == nil {
					t.Error("load of an unmapped page succeeded")
					return
				}
				if swappedHits[cpu].Load() == hits {
					unreached[cpu]++
				}
			}
		}(mmu.CPUID(cpu))
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if got := stableHits.Load(); got != 2*perCPU {
		t.Fatalf("untouched page's handler ran %d times, want %d", got, 2*perCPU)
	}
	hits := swappedHits[0].Load() + swappedHits[1].Load()
	if got := hits + unreached[0] + unreached[1]; got != 2*perCPU {
		t.Fatalf("swapped page: %d handled + %d unhandled faults, want %d in all", hits, unreached[0]+unreached[1], 2*perCPU)
	}
}
