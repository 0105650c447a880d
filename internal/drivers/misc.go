package drivers

import (
	"fmt"

	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

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
