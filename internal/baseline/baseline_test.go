package baseline

import (
	"errors"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/netstack"
)

func newMonolith() (*Monolith, *hw.Machine) {
	m := hw.New(hw.Config{PhysFrames: 16})
	return New(m), m
}

func TestSyscallPath(t *testing.T) {
	mono, machine := newMonolith()
	if err := mono.AddService("getpid", func(...any) ([]any, error) {
		return []any{42}, nil
	}); err != nil {
		t.Fatal(err)
	}
	mono.Seal()
	res, err := mono.Syscall("getpid")
	if err != nil || res[0].(int) != 42 {
		t.Fatalf("getpid = %v, %v", res, err)
	}
	if machine.Meter.Count(clock.OpTrapEnter) != 1 || machine.Meter.Count(clock.OpTrapExit) != 1 {
		t.Fatal("syscall did not charge trap entry/exit")
	}
	if mono.calls != 1 {
		t.Fatalf("calls = %d", mono.calls)
	}
}

func TestSyscallUnknownService(t *testing.T) {
	mono, _ := newMonolith()
	mono.Seal()
	if _, err := mono.Syscall("nope"); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
}

func TestSealedKernelRejectsNewServices(t *testing.T) {
	mono, _ := newMonolith()
	mono.Seal()
	if !mono.sealed {
		t.Fatal("not sealed")
	}
	if err := mono.AddService("late", func(...any) ([]any, error) { return nil, nil }); !errors.Is(err, ErrSealed) {
		t.Fatalf("late add: %v", err)
	}
}

func TestAddServiceValidation(t *testing.T) {
	mono, _ := newMonolith()
	if err := mono.AddService("x", nil); err == nil {
		t.Fatal("nil service accepted")
	}
	if err := mono.AddService("x", func(...any) ([]any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := mono.AddService("x", func(...any) ([]any, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestSyscallChargesCopyBySize(t *testing.T) {
	mono, machine := newMonolith()
	if err := mono.AddService("write", func(args ...any) ([]any, error) {
		return []any{len(args[0].([]byte))}, nil
	}); err != nil {
		t.Fatal(err)
	}
	mono.Seal()
	machine.Meter.ResetCounts()
	if _, err := mono.Syscall("write", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	small := machine.Meter.Count(clock.OpCopyWord)
	machine.Meter.ResetCounts()
	if _, err := mono.Syscall("write", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	big := machine.Meter.Count(clock.OpCopyWord)
	if big <= small {
		t.Fatalf("copy charge did not scale: %d vs %d", small, big)
	}
}

func frame(port uint16, payload []byte) []byte {
	return netstack.BuildUDPFrame(
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.MAC{2, 0, 0, 0, 0, 2},
		netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
		500, port, payload)
}

func TestNetPathFixedFilter(t *testing.T) {
	mono, _ := newMonolith()
	mono.Seal()
	p := NewNetPath(mono, 7)
	p.Deliver(frame(7, []byte("keep")))
	p.Deliver(frame(8, []byte("toss")))
	p.Deliver([]byte("junk"))
	delivered, dropped := p.delivered, p.dropped
	if delivered != 1 || dropped != 2 {
		t.Fatalf("stats = %d/%d", delivered, dropped)
	}
}
