package mmu

import (
	"errors"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
)

func newTestMMU(cfg Config) (*MMU, *clock.Meter) {
	meter := clock.NewMeter(clock.DefaultCosts())
	return New(meter, cfg), meter
}

func TestVAddrDecomposition(t *testing.T) {
	a := VAddr(0x12345)
	if got := a.VPN(); got != 0x12 {
		t.Errorf("VPN = %#x, want 0x12", got)
	}
	if got := a.Offset(); got != 0x345 {
		t.Errorf("Offset = %#x, want 0x345", got)
	}
	if got := a.PageBase(); got != 0x12000 {
		t.Errorf("PageBase = %#x, want 0x12000", got)
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		0:                               "---",
		PermRead:                        "r--",
		PermRead | PermWrite:            "rw-",
		PermRead | PermWrite | PermExec: "rwx",
		PermExec:                        "--x",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Perm(%b).String() = %q, want %q", p, got, want)
		}
	}
}

func TestAccessString(t *testing.T) {
	for a, want := range map[Access]string{AccessRead: "read", AccessWrite: "write", AccessExec: "exec"} {
		if got := a.String(); got != want {
			t.Errorf("Access %d = %q, want %q", a, got, want)
		}
	}
}

func TestKernelContextExists(t *testing.T) {
	m, _ := newTestMMU(Config{})
	if !m.HasContext(KernelContext) {
		t.Fatal("kernel context missing after New")
	}
	if m.CurrentOn(BootCPU) != KernelContext {
		t.Fatal("initial current context is not the kernel context")
	}
}

func TestNewContextDistinctIDs(t *testing.T) {
	m, _ := newTestMMU(Config{})
	a, b := m.NewContext(), m.NewContext()
	if a == b || a == KernelContext || b == KernelContext {
		t.Fatalf("NewContext ids %d, %d not distinct from each other and kernel", a, b)
	}
}

func TestMapTranslateRoundTrip(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x4000, 7, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	pa, flt := m.TranslateOn(BootCPU, ctx, 0x4123, AccessRead)
	if flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	want := PAddr(7<<PageShift | 0x123)
	if pa != want {
		t.Fatalf("TranslateOn = %#x, want %#x", pa, want)
	}
}

func TestTranslateFaults(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()

	_, f := m.TranslateOn(BootCPU, ctx, 0x9000, AccessRead)
	if f.Kind != FaultNoMapping {
		t.Fatalf("unmapped page: fault = %v, want FaultNoMapping", f.Kind)
	}

	if err := m.MapOn(BootCPU, ctx, 0x9000, 1, PermRead); err != nil {
		t.Fatal(err)
	}
	_, f = m.TranslateOn(BootCPU, ctx, 0x9000, AccessWrite)
	if f.Kind != FaultProtection {
		t.Fatalf("write to read-only: fault = %v, want FaultProtection", f.Kind)
	}
	if f.Present != PermRead {
		t.Fatalf("fault Present = %v, want r--", f.Present)
	}

	_, f = m.TranslateOn(BootCPU, ContextID(999), 0x9000, AccessRead)
	if f.Kind != FaultBadContext {
		t.Fatalf("bad context: fault = %v, want FaultBadContext", f.Kind)
	}
	if f.Error() == "" {
		t.Fatal("fault error string empty")
	}
}

func TestProtectionFaultFromTLBHit(t *testing.T) {
	// A protection fault must be raised even when the entry is cached
	// in the TLB — this is what makes write-protected fault call-backs
	// (copy-on-write, proxies) reliable.
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x2000, 3, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x2000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind) // loads the TLB
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x2000, AccessWrite); flt.Kind != FaultProtection {
		t.Fatalf("fault = %v, want FaultProtection on TLB hit", flt.Kind)
	}
}

func TestExecPermission(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x1000, 2, PermRead|PermExec); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x1000, AccessExec); flt.Kind != FaultNone {
		t.Fatalf("exec on r-x page: %v", flt.Kind)
	}
	if err := m.ProtectOn(BootCPU, ctx, 0x1000, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x1000, AccessExec); flt.Kind == FaultNone {
		t.Fatal("exec allowed after Protect removed PermExec")
	}
}

func TestUnmap(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x3000, 4, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x3000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	if err := m.UnmapOn(BootCPU, ctx, 0x3000); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x3000, AccessRead); flt.Kind == FaultNone {
		t.Fatal("translate succeeded after Unmap (stale TLB entry?)")
	}
}

func TestProtectInvalidatesTLB(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x5000, 5, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x5000, AccessWrite); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	if err := m.ProtectOn(BootCPU, ctx, 0x5000, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x5000, AccessWrite); flt.Kind == FaultNone {
		t.Fatal("write allowed after Protect downgraded the page")
	}
}

func TestProtectUnmappedPage(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.ProtectOn(BootCPU, ctx, 0x7000, PermRead); err == nil {
		t.Fatal("Protect on unmapped page succeeded")
	}
	if err := m.ProtectOn(BootCPU, ContextID(999), 0x7000, PermRead); !errors.Is(err, ErrNoContext) {
		t.Fatalf("Protect in bad context: %v", err)
	}
}

func TestSwitchChargesAndValidates(t *testing.T) {
	m, meter := newTestMMU(Config{})
	ctx := m.NewContext()
	before := meter.Count(clock.OpCtxSwitch)
	if err := m.SwitchOn(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if meter.Count(clock.OpCtxSwitch) != before+1 {
		t.Fatal("Switch did not charge a context switch")
	}
	if m.CurrentOn(BootCPU) != ctx {
		t.Fatal("Current() wrong after Switch")
	}
	// Switching to the same context is free.
	if err := m.SwitchOn(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if meter.Count(clock.OpCtxSwitch) != before+1 {
		t.Fatal("self-switch charged a context switch")
	}
	if err := m.SwitchOn(BootCPU, ContextID(404)); !errors.Is(err, ErrNoContext) {
		t.Fatalf("Switch to missing context: %v", err)
	}
}

func TestFlushOnSwitchConfig(t *testing.T) {
	m, meter := newTestMMU(Config{FlushOnSwitch: true})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, KernelContext, 0x1000, 1, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, KernelContext, 0x1000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	missesBefore := meter.Count(clock.OpTLBMiss)
	if err := m.SwitchOn(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.SwitchOn(BootCPU, KernelContext); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, KernelContext, 0x1000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	if meter.Count(clock.OpTLBMiss) != missesBefore+1 {
		t.Fatal("expected TLB miss after flush-on-switch round trip")
	}
}

func TestASIDTaggedTLBSurvivesSwitch(t *testing.T) {
	m, meter := newTestMMU(Config{}) // default: ASID-tagged, no flush
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, KernelContext, 0x1000, 1, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, KernelContext, 0x1000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	misses := meter.Count(clock.OpTLBMiss)
	if err := m.SwitchOn(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.SwitchOn(BootCPU, KernelContext); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, KernelContext, 0x1000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	if meter.Count(clock.OpTLBMiss) != misses {
		t.Fatal("ASID-tagged TLB lost an entry across a context switch")
	}
}

func TestTLBChargesMissOnlyOnce(t *testing.T) {
	m, meter := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x8000, 8, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x8000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	misses := meter.Count(clock.OpTLBMiss)
	for i := 0; i < 10; i++ {
		if _, flt := m.TranslateOn(BootCPU, ctx, 0x8000, AccessRead); flt.Kind != FaultNone {
			t.Fatal(flt.Kind)
		}
	}
	if meter.Count(clock.OpTLBMiss) != misses {
		t.Fatal("hot page charged additional TLB misses")
	}
	if hits := m.TLBStatsOn(BootCPU).Hits; hits < 10 {
		t.Fatalf("TLB hits = %d, want >= 10", hits)
	}
}

func TestTLBEviction(t *testing.T) {
	m, _ := newTestMMU(Config{TLBSize: 4})
	ctx := m.NewContext()
	for i := 0; i < 8; i++ {
		va := VAddr(uint64(i) << PageShift)
		if err := m.MapOn(BootCPU, ctx, va, uint64(i), PermRead); err != nil {
			t.Fatal(err)
		}
		if _, flt := m.TranslateOn(BootCPU, ctx, va, AccessRead); flt.Kind != FaultNone {
			t.Fatal(flt.Kind)
		}
	}
	// All translations must still succeed after evictions.
	for i := 0; i < 8; i++ {
		va := VAddr(uint64(i) << PageShift)
		pa, flt := m.TranslateOn(BootCPU, ctx, va, AccessRead)
		if flt.Kind != FaultNone {
			t.Fatalf("page %d: %v", i, flt.Kind)
		}
		if pa.Frame() != uint64(i) {
			t.Fatalf("page %d translated to frame %d", i, pa.Frame())
		}
	}
}

func TestDestroyContext(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x1000, 1, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x1000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	if err := m.DestroyContextFrom(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if m.HasContext(ctx) {
		t.Fatal("context alive after destroy")
	}
	if _, flt := m.TranslateOn(BootCPU, ctx, 0x1000, AccessRead); flt.Kind == FaultNone {
		t.Fatal("translate in destroyed context succeeded")
	}
	if err := m.DestroyContextFrom(BootCPU, KernelContext); err == nil {
		t.Fatal("destroyed the kernel context")
	}
	if err := m.DestroyContextFrom(BootCPU, ctx); !errors.Is(err, ErrNoContext) {
		t.Fatalf("double destroy: %v", err)
	}
}

func TestDestroyCurrentContextRefused(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if err := m.SwitchOn(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyContextFrom(BootCPU, ctx); err == nil {
		t.Fatal("destroyed the active context")
	}
}

func TestLookupAndMappings(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	if _, ok := m.Lookup(ctx, 0x1000); ok {
		t.Fatal("Lookup found a mapping in empty context")
	}
	if err := m.MapTaggedOn(BootCPU, ctx, 0x1000, 9, PermRead, "tag"); err != nil {
		t.Fatal(err)
	}
	pte, ok := m.Lookup(ctx, 0x1000)
	if !ok || pte.Frame != 9 || pte.Tag != "tag" {
		t.Fatalf("Lookup = %+v, %v", pte, ok)
	}
	if got := m.Mappings(ctx); got != 1 {
		t.Fatalf("Mappings = %d, want 1", got)
	}
	if got := m.Mappings(ContextID(999)); got != 0 {
		t.Fatalf("Mappings(bad) = %d, want 0", got)
	}
}

// Property: for any mapped page, TranslateOn preserves the page offset and
// maps to the installed frame.
func TestTranslatePreservesOffsetProperty(t *testing.T) {
	m, _ := newTestMMU(Config{})
	ctx := m.NewContext()
	f := func(vpn uint16, off uint16, frame uint16) bool {
		va := VAddr(uint64(vpn)<<PageShift | uint64(off)%PageSize)
		if err := m.MapOn(BootCPU, ctx, va, uint64(frame), PermRead); err != nil {
			return false
		}
		pa, flt := m.TranslateOn(BootCPU, ctx, va, AccessRead)
		if flt.Kind != FaultNone {
			return false
		}
		return pa.Frame() == uint64(frame) && uint64(pa)&(PageSize-1) == va.Offset()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPhysMemAllocFree(t *testing.T) {
	p := NewPhysMem(4)
	if p.NumFrames() != 4 || p.FreeFrames() != 4 {
		t.Fatalf("fresh physmem: %d/%d", p.FreeFrames(), p.NumFrames())
	}
	var frames []uint64
	for i := 0; i < 4; i++ {
		f, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := p.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on empty: %v", err)
	}
	released, err := p.Unref(frames[0])
	if err != nil || !released {
		t.Fatalf("Unref = %v, %v", released, err)
	}
	if p.FreeFrames() != 1 {
		t.Fatalf("FreeFrames = %d, want 1", p.FreeFrames())
	}
	if _, err := p.AllocFrame(); err != nil {
		t.Fatalf("realloc after free: %v", err)
	}
}

func TestPhysMemRefCounting(t *testing.T) {
	p := NewPhysMem(2)
	f, err := p.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ref(f); err != nil {
		t.Fatal(err)
	}
	if got := p.RefCount(f); got != 2 {
		t.Fatalf("RefCount = %d, want 2", got)
	}
	released, err := p.Unref(f)
	if err != nil || released {
		t.Fatalf("first Unref released the shared frame: %v %v", released, err)
	}
	released, err = p.Unref(f)
	if err != nil || !released {
		t.Fatalf("second Unref did not release: %v %v", released, err)
	}
	if err := p.Ref(f); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Ref on freed frame: %v", err)
	}
}

func TestPhysMemReadWrite(t *testing.T) {
	p := NewPhysMem(2)
	f, err := p.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	pa := PAddr(f << PageShift)
	msg := []byte("hello, physical world")
	if err := p.Write(pa+100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := p.Read(pa+100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestPhysMemCrossFrameAccess(t *testing.T) {
	p := NewPhysMem(4)
	// Allocate two frames; AllocFrame hands out low numbers first so
	// they are adjacent.
	f1, _ := p.AllocFrame()
	f2, _ := p.AllocFrame()
	if f2 != f1+1 {
		t.Skipf("frames not adjacent (%d, %d)", f1, f2)
	}
	pa := PAddr(f1<<PageShift + PageSize - 4)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := p.Write(pa, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := p.Read(pa, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("cross-frame read = %v", got)
		}
	}
}

func TestPhysMemAccessUnallocated(t *testing.T) {
	p := NewPhysMem(2)
	if err := p.Write(PAddr(0), []byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("write to unallocated frame: %v", err)
	}
	buf := make([]byte, 1)
	if err := p.Read(PAddr(1<<PageShift), buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("read from unallocated frame: %v", err)
	}
}

func TestFramePayload(t *testing.T) {
	p := NewPhysMem(1)
	f, _ := p.AllocFrame()
	payload, err := p.FramePayload(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != PageSize {
		t.Fatalf("payload len = %d", len(payload))
	}
	payload[0] = 0xAB
	got := make([]byte, 1)
	if err := p.Read(PAddr(f<<PageShift), got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("FramePayload does not alias frame contents")
	}
	if _, err := p.FramePayload(99); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("FramePayload(bad): %v", err)
	}
}

// Property: alloc/unref sequences never lose frames: free + live == total.
func TestPhysMemConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		p := NewPhysMem(8)
		var live []uint64
		for _, alloc := range ops {
			if alloc {
				fr, err := p.AllocFrame()
				if err == nil {
					live = append(live, fr)
				} else if len(live) != 8 {
					return false // spurious OOM
				}
			} else if len(live) > 0 {
				fr := live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := p.Unref(fr); err != nil {
					return false
				}
			}
		}
		return p.FreeFrames()+len(live) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
