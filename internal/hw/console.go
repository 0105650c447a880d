package hw

import (
	"bytes"
	"sync"
)

// Console register word offsets.
const (
	ConsoleRegPutc    = iota // w: emit one byte
	ConsoleRegWritten        // r: total bytes written
	consoleRegCount
)

// Console is a write-only serial console device capturing output in a
// buffer. Kernel and user components print through their console
// driver object; tests assert on Contents.
type Console struct {
	baseDevice
	name string
	irq  IRQLine
	reg  *IORegion

	mu  sync.Mutex
	buf bytes.Buffer
}

// NewConsole builds a console. It raises no interrupts (irq is kept
// for symmetry and future read-side support).
func NewConsole(name string, irq IRQLine) *Console {
	c := &Console{name: name, irq: irq}
	c.reg = NewIORegion(name+"-regs", consoleRegCount, c.readReg, c.writeReg)
	return c
}

// Name implements Device.
func (c *Console) Name() string { return c.name }

// IRQ implements Device.
func (c *Console) IRQ() IRQLine { return c.irq }

// IORegion implements Device.
func (c *Console) IORegion() *IORegion { return c.reg }

// Contents returns everything written so far.
func (c *Console) Contents() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

func (c *Console) readReg(reg int) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == ConsoleRegWritten {
		return uint64(c.buf.Len()), nil
	}
	return 0, nil
}

func (c *Console) writeReg(reg int, val uint64) error {
	if reg == ConsoleRegPutc {
		c.mu.Lock()
		c.buf.WriteByte(byte(val))
		c.mu.Unlock()
	}
	return nil
}
