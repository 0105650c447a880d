package mmu

import (
	"strings"
	"sync"
	"testing"

	"paramecium/internal/clock"
)

func newMultiMMU(t *testing.T, cfg Config) (*MMU, *clock.Meter) {
	t.Helper()
	meter := clock.NewMeter(clock.DefaultCosts())
	return New(meter, cfg), meter
}

// TestPerCPUTLBIsolation: each CPU's TLB carries only its own
// translations; hit/miss counters are disjoint and a flush on one CPU
// leaves the others' entries live.
func TestPerCPUTLBIsolation(t *testing.T) {
	m, _ := newMultiMMU(t, Config{CPUs: 2})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x4000, 7, PermRead); err != nil {
		t.Fatal(err)
	}
	// CPU 0: miss then hit.
	for i := 0; i < 2; i++ {
		if _, flt := m.TranslateOn(0, ctx, 0x4000, AccessRead); flt.Kind != FaultNone {
			t.Fatal(flt.Kind)
		}
	}
	// CPU 1: one cold miss of its own — CPU 0's refill is invisible.
	if _, flt := m.TranslateOn(1, ctx, 0x4000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	s0, s1 := m.TLBStatsOn(0), m.TLBStatsOn(1)
	if s0.Hits != 1 || s0.Misses != 1 {
		t.Fatalf("CPU0 stats = %+v, want 1 hit / 1 miss", s0)
	}
	if s1.Hits != 0 || s1.Misses != 1 {
		t.Fatalf("CPU1 stats = %+v, want 0 hits / 1 miss", s1)
	}
	// Flush CPU 1 only: CPU 0 keeps its entry hot.
	c := m.cpu(1)
	c.mu.Lock()
	c.tlb.flush()
	c.mu.Unlock()
	if s := m.TLBStatsOn(1); s.Flushes != 1 || s.Entries != 0 {
		t.Fatalf("CPU1 after flush = %+v", s)
	}
	if _, flt := m.TranslateOn(0, ctx, 0x4000, AccessRead); flt.Kind != FaultNone {
		t.Fatal(flt.Kind)
	}
	if s := m.TLBStatsOn(0); s.Hits != 2 || s.Flushes != 0 {
		t.Fatalf("CPU0 after CPU1 flush = %+v, want 2 hits / 0 flushes", s)
	}
}

// TestPerCPUCurrentRegisters: each CPU has its own context register;
// a context current on any CPU cannot be destroyed.
func TestPerCPUCurrentRegisters(t *testing.T) {
	m, meter := newMultiMMU(t, Config{CPUs: 2})
	ctx := m.NewContext()
	before := meter.Count(clock.OpCtxSwitch)
	if err := m.SwitchOn(1, ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.CurrentOn(1); got != ctx {
		t.Fatalf("CPU1 current = %d, want %d", got, ctx)
	}
	if got := m.CurrentOn(0); got != KernelContext {
		t.Fatalf("CPU0 current = %d, want kernel", got)
	}
	if got := meter.Count(clock.OpCtxSwitch) - before; got != 1 {
		t.Fatalf("switches charged = %d, want 1", got)
	}
	err := m.DestroyContextFrom(BootCPU, ctx)
	if err == nil || !strings.Contains(err.Error(), "CPU 1") {
		t.Fatalf("destroy of CPU1-current context: %v", err)
	}
	if err := m.SwitchOn(1, KernelContext); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyContextFrom(BootCPU, ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchFlushesOnlyThatCPU: under FlushOnSwitch, a context switch
// costs the switching CPU its TLB — and no one else's.
func TestSwitchFlushesOnlyThatCPU(t *testing.T) {
	m, _ := newMultiMMU(t, Config{CPUs: 2, FlushOnSwitch: true})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x1000, 3, PermRead); err != nil {
		t.Fatal(err)
	}
	for cpu := CPUID(0); cpu < 2; cpu++ {
		if _, flt := m.TranslateOn(cpu, ctx, 0x1000, AccessRead); flt.Kind != FaultNone {
			t.Fatal(flt.Kind)
		}
	}
	if err := m.SwitchOn(0, ctx); err != nil {
		t.Fatal(err)
	}
	if s := m.TLBStatsOn(0); s.Flushes != 1 || s.Entries != 0 {
		t.Fatalf("CPU0 after switch = %+v, want flushed", s)
	}
	if s := m.TLBStatsOn(1); s.Flushes != 0 || s.Entries != 1 {
		t.Fatalf("CPU1 after CPU0 switch = %+v, want untouched", s)
	}
	// CrossSwitchOn likewise flushes only the calling CPU.
	if err := m.CrossSwitchOn(1, ctx); err != nil {
		t.Fatal(err)
	}
	if s := m.TLBStatsOn(1); s.Flushes != 1 {
		t.Fatalf("CPU1 after CrossSwitchOn = %+v, want 1 flush", s)
	}
	if s := m.TLBStatsOn(0); s.Flushes != 1 {
		t.Fatalf("CPU0 after CPU1 CrossSwitch = %+v, want still 1 flush", s)
	}
}

// TestShardedTranslationParallel: translations in unrelated contexts
// on distinct CPUs race mapping churn in a third context; the race
// detector validates the sharded locking, and every translation of a
// stably-mapped page must succeed.
func TestShardedTranslationParallel(t *testing.T) {
	m, _ := newMultiMMU(t, Config{CPUs: 4})
	ctxA, ctxB, ctxChurn := m.NewContext(), m.NewContext(), m.NewContext()
	for _, ctx := range []ContextID{ctxA, ctxB} {
		if err := m.MapOn(BootCPU, ctx, 0x2000, 5, PermRead|PermWrite); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 2000
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu CPUID) {
			defer wg.Done()
			ctx := ctxA
			if cpu%2 == 1 {
				ctx = ctxB
			}
			for i := 0; i < iters; i++ {
				if _, flt := m.TranslateOn(cpu, ctx, 0x2000, AccessRead); flt.Kind != FaultNone {
					t.Errorf("CPU %d: %v", cpu, flt.Kind)
					return
				}
			}
		}(CPUID(cpu))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := m.MapOn(BootCPU, ctxChurn, 0x9000, uint64(i%16), PermRead); err != nil {
				t.Error(err)
				return
			}
			if err := m.UnmapOn(BootCPU, ctxChurn, 0x9000); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestUnmapShootsDownEveryCPU: an unmap invalidates the page in every
// CPU's TLB, not just the unmapping one's.
func TestUnmapShootsDownEveryCPU(t *testing.T) {
	m, _ := newMultiMMU(t, Config{CPUs: 2})
	ctx := m.NewContext()
	if err := m.MapOn(BootCPU, ctx, 0x3000, 4, PermRead); err != nil {
		t.Fatal(err)
	}
	for cpu := CPUID(0); cpu < 2; cpu++ {
		if _, flt := m.TranslateOn(cpu, ctx, 0x3000, AccessRead); flt.Kind != FaultNone {
			t.Fatal(flt.Kind)
		}
	}
	if err := m.UnmapOn(BootCPU, ctx, 0x3000); err != nil {
		t.Fatal(err)
	}
	for cpu := CPUID(0); cpu < 2; cpu++ {
		if _, flt := m.TranslateOn(cpu, ctx, 0x3000, AccessRead); flt.Kind == FaultNone {
			t.Fatalf("CPU %d still translates an unmapped page", cpu)
		}
	}
}
