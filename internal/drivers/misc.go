package drivers

import (
	"fmt"

	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

// TimerIface is the interface name exported by timer drivers.
const TimerIface = "paramecium.timer.v1"

// TimerDecl is the timer interface's type information.
var TimerDecl = obj.MustInterfaceDecl(TimerIface,
	obj.MethodDecl{Name: "program", NumIn: 1, NumOut: 0}, // (interval cycles)
	obj.MethodDecl{Name: "ticks", NumIn: 0, NumOut: 1},   // -> delivered ticks
	obj.MethodDecl{Name: "poll", NumIn: 0, NumOut: 1},    // -> expirations fired now
)

// TimerDriver exposes the interval timer as an object. Subscribers
// register Go callbacks; each device interrupt invokes them.
type TimerDriver struct {
	*obj.Object
	timer *hw.Timer
	grant *mem.IOGrant

	ticks uint64
	subs  []func()
}

// TimerDriverConfig configures timer driver construction.
type TimerDriverConfig struct {
	Ctx      mmu.ContextID
	Dispatch event.Dispatch
}

// NewTimerDriver builds a timer driver over t. Its tick interrupt is
// routed to the boot CPU.
func NewTimerDriver(class string, t *hw.Timer, svc *mem.Service, evt *event.Service, cfg TimerDriverConfig) (*TimerDriver, error) {
	grant, err := svc.AllocIOSpace(cfg.Ctx, t.IORegion().Name, mem.IOExclusive)
	if err != nil {
		return nil, fmt.Errorf("drivers: timer I/O space: %w", err)
	}
	d := &TimerDriver{
		Object: obj.New(class, svc.Machine().Meter),
		timer:  t,
		grant:  grant,
	}
	bi, err := d.AddInterface(TimerDecl, d)
	if err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, err
	}
	bi.MustBind("program", func(args ...any) ([]any, error) {
		iv, ok := args[0].(uint64)
		if !ok {
			return nil, fmt.Errorf("drivers: program wants uint64, got %T", args[0])
		}
		return nil, grant.Region.WriteReg(hw.TimerRegInterval, iv)
	}).MustBind("ticks", func(...any) ([]any, error) {
		return []any{d.ticks}, nil
	}).MustBind("poll", func(...any) ([]any, error) {
		return []any{d.timer.Poll()}, nil
	})
	if err := evt.RegisterThreadFreeIRQOn(t.IRQ(), class+"-tick", cfg.Ctx, cfg.Dispatch, mmu.BootCPU, func(hw.TrapFrame) {
		d.ticks++
		for _, fn := range d.subs {
			fn()
		}
	}); err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, err
	}
	return d, nil
}

// Subscribe registers a callback invoked on every tick. Must be called
// before ticks start arriving (no locking on the hot path).
func (d *TimerDriver) Subscribe(fn func()) {
	d.subs = append(d.subs, fn)
}

// Ticks reports delivered tick interrupts.
func (d *TimerDriver) Ticks() uint64 { return d.ticks }

// ConsoleIface is the interface name exported by console drivers.
const ConsoleIface = "paramecium.console.v1"

// ConsoleDecl is the console interface's type information.
var ConsoleDecl = obj.MustInterfaceDecl(ConsoleIface,
	obj.MethodDecl{Name: "write", NumIn: 1, NumOut: 1}, // (s string) -> n
)

// ConsoleDriver exposes the console device as an object.
type ConsoleDriver struct {
	*obj.Object
	grant *mem.IOGrant
	write obj.MethodHandle
}

// NewConsoleDriver builds a console driver over c.
func NewConsoleDriver(class string, c *hw.Console, svc *mem.Service, ctx mmu.ContextID) (*ConsoleDriver, error) {
	grant, err := svc.AllocIOSpace(ctx, c.IORegion().Name, mem.IOExclusive)
	if err != nil {
		return nil, fmt.Errorf("drivers: console I/O space: %w", err)
	}
	d := &ConsoleDriver{Object: obj.New(class, svc.Machine().Meter), grant: grant}
	bi, err := d.AddInterface(ConsoleDecl, d)
	if err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, err
	}
	bi.MustBind("write", func(args ...any) ([]any, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("drivers: write wants string, got %T", args[0])
		}
		for i := 0; i < len(s); i++ {
			if err := grant.Region.WriteReg(hw.ConsoleRegPutc, uint64(s[i])); err != nil {
				return []any{i}, err
			}
		}
		return []any{len(s)}, nil
	})
	iv, _ := d.Iface(ConsoleIface)
	if d.write, err = iv.Resolve("write"); err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, err
	}
	return d, nil
}

// Write prints s to the console device through the handle resolved at
// construction.
func (d *ConsoleDriver) Write(s string) (int, error) {
	res, err := d.write.Call(s)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}
