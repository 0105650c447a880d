package hw

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
)

func newTestMachine() *Machine {
	return New(Config{PhysFrames: 64})
}

func TestTrapDispatch(t *testing.T) {
	m := newTestMachine()
	var got *TrapFrame // the handler's own copy
	m.SetTrapHandler(TrapSyscall, func(f TrapFrame) bool {
		got = &f
		return true
	})
	ok, err := m.RaiseTrap(TrapFrame{Vector: TrapSyscall, Ctx: mmu.KernelContext, Arg: 42})
	if err != nil || !ok {
		t.Fatalf("RaiseTrap = %v, %v", ok, err)
	}
	if got == nil || got.Arg != 42 || got.Vector != TrapSyscall {
		t.Fatalf("handler saw %+v", got)
	}
	if m.Meter.Count(clock.OpTrapEnter) != 1 || m.Meter.Count(clock.OpTrapExit) != 1 {
		t.Fatal("trap entry/exit not charged")
	}
}

func TestTrapNoHandler(t *testing.T) {
	m := newTestMachine()
	_, err := m.RaiseTrap(TrapFrame{Vector: TrapDivZero})
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestSetTrapHandlerReturnsPrevious(t *testing.T) {
	m := newTestMachine()
	h1 := func(TrapFrame) bool { return true }
	if prev := m.SetTrapHandler(TrapSyscall, h1); prev != nil {
		t.Fatal("fresh vector had a previous handler")
	}
	if prev := m.SetTrapHandler(TrapSyscall, nil); prev == nil {
		t.Fatal("uninstall did not return previous handler")
	}
	if _, err := m.RaiseTrap(TrapFrame{Vector: TrapSyscall}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("after uninstall: %v", err)
	}
}

func TestIRQDispatch(t *testing.T) {
	m := newTestMachine()
	count := 0
	if _, err := m.SetIRQHandler(3, func(f TrapFrame) bool {
		if f.IRQ != 3 {
			t.Errorf("frame IRQ = %d", f.IRQ)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RaiseIRQOn(3, mmu.BootCPU); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
}

func TestIRQBadLine(t *testing.T) {
	m := newTestMachine()
	if err := m.RaiseIRQOn(-1, mmu.BootCPU); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("RaiseIRQ(-1): %v", err)
	}
	if err := m.RaiseIRQOn(NumIRQLines, mmu.BootCPU); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("RaiseIRQ(max): %v", err)
	}
	if _, err := m.SetIRQHandler(NumIRQLines, nil); !errors.Is(err, ErrBadIRQ) {
		t.Fatalf("SetIRQHandler: %v", err)
	}
}

func TestIRQNoHandlerDropsAndCounts(t *testing.T) {
	m := newTestMachine()
	if err := m.RaiseIRQOn(5, mmu.BootCPU); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
	if dropped := m.irqsDropped.Load(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestLoadStoreThroughMMU(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	frame, err := m.Phys.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x10000, frame, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	msg := []byte("paramecium")
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x10004, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.LoadOn(mmu.BootCPU, ctx, 0x10004, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestStoreToUnmappedFaults(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	err := m.StoreOn(mmu.BootCPU, ctx, 0x2000, []byte{1})
	f, ok := errors.Unwrap(err).(*mmu.Fault)
	if !ok {
		t.Fatalf("err = %v, want *mmu.Fault", err)
	}
	if f.Kind != mmu.FaultNoMapping {
		t.Fatalf("fault kind = %v", f.Kind)
	}
}

func TestPageFaultHandlerResolvesAndRetries(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	faults := 0
	m.SetTrapHandler(TrapPageFault, func(f TrapFrame) bool {
		faults++
		frame, err := m.Phys.AllocFrame()
		if err != nil {
			return false
		}
		if err := m.MMU.MapOn(mmu.BootCPU, f.Ctx, f.Addr, frame, mmu.PermRead|mmu.PermWrite); err != nil {
			return false
		}
		return true
	})
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x5000, []byte("demand paged")); err != nil {
		t.Fatalf("store after resolving fault: %v", err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	// Second access must not fault again.
	if err := m.StoreOn(mmu.BootCPU, ctx, 0x5000, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d after warm access", faults)
	}
}

func TestPageFaultHandlerDeclines(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	m.SetTrapHandler(TrapPageFault, func(TrapFrame) bool { return false })
	err := m.LoadOn(mmu.BootCPU, ctx, 0x1000, make([]byte, 1))
	if _, ok := err.(*mmu.Fault); !ok {
		t.Fatalf("err = %v, want the fault", err)
	}
}

func TestPageFaultHandlerLiesDetected(t *testing.T) {
	// A handler that claims resolution without mapping the page must
	// not cause an infinite retry loop.
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	calls := 0
	m.SetTrapHandler(TrapPageFault, func(TrapFrame) bool {
		calls++
		return true
	})
	err := m.LoadOn(mmu.BootCPU, ctx, 0x1000, make([]byte, 1))
	if err == nil {
		t.Fatal("access succeeded without a mapping")
	}
	if calls != 1 {
		t.Fatalf("handler called %d times, want 1", calls)
	}
}

func TestAccessSpanningPages(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	f1, _ := m.Phys.AllocFrame()
	f2, _ := m.Phys.AllocFrame()
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x1000, f1, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x2000, f2, mmu.PermRead|mmu.PermWrite); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	va := mmu.VAddr(0x2000 - 100)
	if err := m.StoreOn(mmu.BootCPU, ctx, va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := m.LoadOn(mmu.BootCPU, ctx, va, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestTouchExecRaisesProtectionFault(t *testing.T) {
	m := newTestMachine()
	ctx := m.MMU.NewContext()
	frame, _ := m.Phys.AllocFrame()
	if err := m.MMU.MapOn(mmu.BootCPU, ctx, 0x8000, frame, mmu.PermRead); err != nil {
		t.Fatal(err)
	}
	handled := false
	m.SetTrapHandler(TrapPageFault, func(f TrapFrame) bool {
		handled = true
		if f.Access != mmu.AccessExec {
			t.Errorf("access = %v, want exec", f.Access)
		}
		return false
	})
	if f := m.cpus[mmu.BootCPU].TouchTagged(ctx, 0x8000, mmu.AccessExec, 0); f.Kind == mmu.FaultNone {
		t.Fatal("exec touch on non-exec page succeeded")
	}
	if !handled {
		t.Fatal("fault handler not invoked")
	}
}

func TestDeviceAttachAndLookup(t *testing.T) {
	m := newTestMachine()
	nic := NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.IORegionByName("net0-regs"); !ok {
		t.Fatal("I/O region not registered")
	}
	dup := NewNIC("net0", 5) // same region name
	if err := m.AttachDevice(dup); err == nil {
		t.Fatal("duplicate I/O region accepted")
	}
}

func TestNICInjectReceiveTransmit(t *testing.T) {
	m := newTestMachine()
	nic := NewNIC("net0", 4)
	if err := m.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	irqs := 0
	if _, err := m.SetIRQHandler(4, func(TrapFrame) bool { irqs++; return true }); err != nil {
		t.Fatal(err)
	}
	frame := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := nic.Inject(frame); err != nil {
		t.Fatal(err)
	}
	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
	regs := nic.IORegion()
	pending, _ := regs.ReadReg(NICRegRxPending)
	if pending != 1 {
		t.Fatalf("pending = %d", pending)
	}
	slot, _ := regs.ReadReg(NICRegRxSlot)
	length, _ := regs.ReadReg(NICRegRxLen)
	if length != uint64(len(frame)) {
		t.Fatalf("len = %d", length)
	}
	data, err := nic.SlotData(int(slot))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range frame {
		if data[i] != b {
			t.Fatalf("slot data mismatch at %d", i)
		}
	}
	// Retire and check ring empties.
	if err := regs.WriteReg(NICRegRxPop, 1); err != nil {
		t.Fatal(err)
	}
	pending, _ = regs.ReadReg(NICRegRxPending)
	if pending != 0 {
		t.Fatalf("pending after pop = %d", pending)
	}

	// Transmit path.
	var sent []byte
	nic.SetTxSink(func(f []byte) { sent = append([]byte(nil), f...) }) // valid only during the call
	copy(data, []byte("xmit!"))
	if err := regs.WriteReg(NICRegTxSlot, slot); err != nil {
		t.Fatal(err)
	}
	if err := regs.WriteReg(NICRegTxLen, 5); err != nil {
		t.Fatal(err)
	}
	if err := regs.WriteReg(NICRegTxGo, 1); err != nil {
		t.Fatal(err)
	}
	if string(sent) != "xmit!" {
		t.Fatalf("sent %q", sent)
	}
	if n, _ := regs.ReadReg(NICRegTxCount); n != 1 {
		t.Fatal("tx count wrong")
	}
}

func TestNICRingOverflow(t *testing.T) {
	nic := NewNIC("net0", 4)
	for i := 0; i < NICSlots; i++ {
		if err := nic.Inject([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nic.Inject([]byte{0xFF}); !errors.Is(err, ErrRingFull) {
		t.Fatalf("overflow inject: %v", err)
	}
	if nic.Dropped() != 1 {
		t.Fatalf("dropped = %d", nic.Dropped())
	}
	reg, _ := nic.IORegion().ReadReg(NICRegRxDropped)
	if reg != 1 {
		t.Fatalf("dropped register = %d", reg)
	}
}

func TestNICFrameTooBig(t *testing.T) {
	nic := NewNIC("net0", 4)
	if err := nic.Inject(make([]byte, NICSlotSize+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestNICBadTransmitDescriptor(t *testing.T) {
	nic := NewNIC("net0", 4)
	regs := nic.IORegion()
	if err := regs.WriteReg(NICRegTxSlot, 999); err != nil {
		t.Fatal(err)
	}
	if err := regs.WriteReg(NICRegTxGo, 1); err == nil {
		t.Fatal("bad descriptor accepted")
	}
}

func TestNICSlotDataRange(t *testing.T) {
	nic := NewNIC("net0", 4)
	if _, err := nic.SlotData(-1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := nic.SlotData(NICSlots); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestConsoleOutput(t *testing.T) {
	m := newTestMachine()
	cons := NewConsole("cons0", 2)
	if err := m.AttachDevice(cons); err != nil {
		t.Fatal(err)
	}
	regs := cons.IORegion()
	for _, b := range []byte("boot: ok\n") {
		if err := regs.WriteReg(ConsoleRegPutc, uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cons.Contents(); got != "boot: ok\n" {
		t.Fatalf("console = %q", got)
	}
	n, _ := regs.ReadReg(ConsoleRegWritten)
	if n != 9 {
		t.Fatalf("written = %d", n)
	}
}

func TestIORegionBadRegister(t *testing.T) {
	r := NewIORegion("x", 2, nil, nil)
	if _, err := r.ReadReg(5); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("read: %v", err)
	}
	if err := r.WriteReg(-1, 0); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("write: %v", err)
	}
	// nil hooks are harmless
	if _, err := r.ReadReg(0); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteReg(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTrapVectorString(t *testing.T) {
	if TrapPageFault.String() != "page-fault" || TrapSyscall.String() != "syscall" {
		t.Fatal("trap names wrong")
	}
	if TrapVector(99).String() != "trap(99)" {
		t.Fatal("unknown trap name wrong")
	}
}

// TestTrapTableRacesDelivery installs and swaps trap handlers while
// other CPUs raise traps: each trap is delivered through either the
// table before a write or the one after it, so a vector that is never
// touched by the writer is reached every time, and a vector swapped
// between two handlers always reaches one of them.
func TestTrapTableRacesDelivery(t *testing.T) {
	m := New(Config{PhysFrames: 64, CPUs: 2})
	const stable, swapped, churned TrapVector = 32, 33, 34
	var hits atomic.Int64
	m.SetTrapHandler(stable, func(TrapFrame) bool { hits.Add(1); return true })
	yes := func(TrapFrame) bool { return true }
	also := func(TrapFrame) bool { return true }
	m.SetTrapHandler(swapped, yes)

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				m.SetTrapHandler(swapped, also)
				m.SetTrapHandler(churned+TrapVector(i%8), yes)
			} else {
				m.SetTrapHandler(swapped, yes)
				m.SetTrapHandler(churned+TrapVector(i%8), nil)
			}
		}
	}()
	const perCPU = 2000
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu mmu.CPUID) {
			defer wg.Done()
			for i := 0; i < perCPU; i++ {
				for _, v := range []TrapVector{stable, swapped} {
					if ok, err := m.RaiseTrap(TrapFrame{Vector: v, Ctx: mmu.KernelContext, CPU: cpu}); !ok || err != nil {
						t.Errorf("trap %v on cpu %d = %v, %v", v, cpu, ok, err)
						return
					}
				}
			}
		}(mmu.CPUID(cpu))
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if got := hits.Load(); got != 2*perCPU {
		t.Fatalf("stable vector reached %d times, want %d", got, 2*perCPU)
	}
}

// TestTrapFrameSize: the frame crosses four by-value hops per fault
// (translateWithFaults, RaiseTrap, the memory service, the proxy). At
// 64 bytes or under the compiler copies it with inline moves instead
// of a call to runtime.duffcopy.
func TestTrapFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(TrapFrame{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(TrapFrame{}) = %d, want <= 64", got)
	}
}
