package event

import (
	"sync"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/threads"
)

func newMultiService(ncpu int) (*Service, *hw.Machine, *threads.Scheduler) {
	machine := hw.New(hw.Config{PhysFrames: 16, CPUs: ncpu})
	sched := threads.NewSchedulerCPUs(machine.Meter, ncpu)
	return New(machine, sched), machine, sched
}

// TestRegisterIRQOnRoutesToCPU: a routed delivery switches the target
// CPU's context register — and only that CPU's.
func TestRegisterIRQOnRoutesToCPU(t *testing.T) {
	s, m, _ := newMultiService(2)
	userCtx := m.MMU.NewContext()
	var seenCPU mmu.CPUID = -1
	var seenCtx mmu.ContextID
	if err := s.RegisterIRQOn(2, "routed", userCtx, DispatchRaw, 1,
		func(f hw.TrapFrame, _ *threads.Thread) {
			seenCPU = f.CPU
			seenCtx = m.MMU.CurrentOn(1)
			if cur := m.MMU.CurrentOn(0); cur != mmu.KernelContext {
				t.Errorf("CPU0 register moved to %d during CPU1 delivery", cur)
			}
		}); err != nil {
		t.Fatal(err)
	}
	before := m.Meter.Count(clock.OpCtxSwitch)
	if err := m.RaiseIRQOn(2, 0); err != nil { // arrives on CPU 0, routed to CPU 1
		t.Fatal(err)
	}
	if seenCPU != 1 || seenCtx != userCtx {
		t.Fatalf("delivered on CPU %d in ctx %d, want CPU 1 ctx %d", seenCPU, seenCtx, userCtx)
	}
	if m.MMU.CurrentOn(1) != mmu.KernelContext {
		t.Fatal("CPU1 register not restored after delivery")
	}
	if got := m.Meter.Count(clock.OpCtxSwitch) - before; got != 2 {
		t.Fatalf("switches = %d, want 2", got)
	}
}

// TestRegisterIRQOnValidatesCPU: binding to a CPU the machine does not
// have fails up front.
func TestRegisterIRQOnValidatesCPU(t *testing.T) {
	s, _, _ := newMultiService(2)
	err := s.RegisterIRQOn(2, "bad", mmu.KernelContext, DispatchRaw, 5,
		func(hw.TrapFrame, *threads.Thread) {})
	if err == nil {
		t.Fatal("out-of-range CPU accepted")
	}
}

// TestEagerPopUpRunsOnBoundCPU: an eager pop-up thread is queued on
// the binding's CPU and (absent stealing pressure) dispatched there.
func TestEagerPopUpRunsOnBoundCPU(t *testing.T) {
	s, m, sched := newMultiService(2)
	var th *threads.Thread
	done := make(chan struct{})
	if err := s.RegisterIRQOn(4, "eager", mmu.KernelContext, DispatchEager, 1,
		func(_ hw.TrapFrame, t2 *threads.Thread) {
			th = t2
			close(done)
		}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(4, 0); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle()
	<-done
	if th == nil {
		t.Fatal("handler never ran")
	}
}

// TestConcurrentIRQsOnDistinctCPUs: interrupts bound to different CPUs
// deliver and run their pop-up handlers in parallel without
// serializing on any shared register.
func TestConcurrentIRQsOnDistinctCPUs(t *testing.T) {
	s, m, sched := newMultiService(4)
	const perLine = 50
	var mu sync.Mutex
	counts := map[hw.IRQLine]int{}
	for line := hw.IRQLine(0); line < 4; line++ {
		line := line
		if err := s.RegisterIRQOn(line, "worker", mmu.KernelContext, DispatchProto,
			mmu.CPUID(line), func(hw.TrapFrame, *threads.Thread) {
				mu.Lock()
				counts[line]++
				mu.Unlock()
			}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for line := hw.IRQLine(0); line < 4; line++ {
		wg.Add(1)
		go func(line hw.IRQLine) {
			defer wg.Done()
			for i := 0; i < perLine; i++ {
				if err := m.RaiseIRQOn(line, mmu.CPUID(line)); err != nil {
					t.Error(err)
					return
				}
			}
		}(line)
	}
	wg.Wait()
	sched.RunUntilIdle()
	for line := hw.IRQLine(0); line < 4; line++ {
		if counts[line] != perLine {
			t.Fatalf("line %d delivered %d, want %d", line, counts[line], perLine)
		}
		st, ok := s.IRQStats(line)
		if !ok || st.Delivered != perLine {
			t.Fatalf("line %d stats = %+v", line, st)
		}
	}
}

// TestConcurrentProtoIRQsInlineAndPromoted: concurrent interrupts on
// four CPUs whose proto handlers alternately complete inline and block
// (a yield promotes them), while the scheduler runs the promoted ones.
// Each handler sees its own delivery's frame, every delivery is counted
// as inline or promoted, and once idle no thread is left live.
func TestConcurrentProtoIRQsInlineAndPromoted(t *testing.T) {
	s, m, sched := newMultiService(4)
	const perLine = 120
	var badFrame sync.Map
	var done sync.WaitGroup
	done.Add(4 * perLine)
	for line := hw.IRQLine(0); line < 4; line++ {
		line := line
		n := 0 // deliveries on one CPU serialize, so the inline part may count
		if err := s.RegisterIRQOn(line, "mixed", mmu.KernelContext, DispatchProto,
			mmu.CPUID(line), func(f hw.TrapFrame, th *threads.Thread) {
				n++
				block := n%2 == 0
				if block {
					th.Yield()
				}
				if f.IRQ != line || f.CPU != mmu.CPUID(line) {
					badFrame.Store(line, f)
				}
				done.Done()
			}); err != nil {
			t.Fatal(err)
		}
	}
	var raisers sync.WaitGroup
	for line := hw.IRQLine(0); line < 4; line++ {
		raisers.Add(1)
		go func(line hw.IRQLine) {
			defer raisers.Done()
			for i := 0; i < perLine; i++ {
				if err := m.RaiseIRQOn(line, mmu.CPUID(line)); err != nil {
					t.Error(err)
					return
				}
			}
		}(line)
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	for pumping := true; pumping; {
		select {
		case <-finished:
			pumping = false
		default:
			sched.RunUntilIdle()
		}
	}
	raisers.Wait()
	sched.RunUntilIdle()
	badFrame.Range(func(k, v any) bool {
		t.Fatalf("line %v handler saw frame %+v", k, v)
		return false
	})
	for line := hw.IRQLine(0); line < 4; line++ {
		st, _ := s.IRQStats(line)
		if st.Delivered != perLine || st.Inline != perLine/2 || st.Promoted != perLine/2 {
			t.Fatalf("line %d stats = %+v, want %d inline and %d promoted", line, st, perLine/2, perLine/2)
		}
	}
	if live := sched.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d after idle", live)
	}
}
