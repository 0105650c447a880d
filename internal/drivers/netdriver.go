// Package drivers contains the device drivers of the reproduction —
// ordinary Paramecium objects that live *outside* the nucleus and can
// be placed in the kernel or in an application protection domain.
// Each driver allocates its device's I/O space through the memory
// service and registers an interrupt call-back through the event
// service, exactly the resource path the paper prescribes.
package drivers

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

// NetDevIface is the interface name exported by network drivers.
const NetDevIface = "paramecium.netdev.v1"

// NetDevDecl is the type information of the network device interface.
//
// Frames cross it as byte buffers (obj.BytesArg): send takes its frame
// by value or by reference and keeps none of it past the call; recv
// returns the frame by reference, valid until the next recv, or a nil
// []byte when the queue is empty.
var NetDevDecl = obj.MustInterfaceDecl(NetDevIface,
	obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},  // (frame)
	obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},  // -> frame or nil
	obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3}, // -> rx, tx, dropped
)

// ErrTxFailed is returned when the device rejects a transmit.
var ErrTxFailed = errors.New("drivers: transmit failed")

// NetDriver drives a simulated NIC: it drains the device ring into a
// software receive queue on interrupt and transmits via the device
// registers. It is an obj.Instance, so it can be registered in the
// name space, interposed upon, shared, and proxied across domains.
//
// Receive buffers are recycled: a frame handed out by Recv goes back
// to the spare list at the next Recv, and the drain copies new frames
// into spares, so a steady packet flow allocates nothing once the
// queue has reached its deepest point and its buffers have grown to
// the frames' size.
type NetDriver struct {
	*obj.Object
	nic   *hw.NIC
	grant *mem.IOGrant
	evt   *event.Service
	line  hw.IRQLine

	mu     sync.Mutex
	rxq    [][]byte // received frames, oldest at rxHead
	rxHead int
	spare  [][]byte // recycled receive buffers
	lent   []byte   // the frame the last Recv returned
	rx, tx uint64
}

// NetDriverConfig configures driver construction.
type NetDriverConfig struct {
	// Ctx is the protection domain the driver's interrupt call-back
	// runs in (kernel context for an in-kernel driver).
	Ctx mmu.ContextID
	// Dispatch selects the interrupt dispatch policy (the paper's
	// design is DispatchProto).
	Dispatch event.Dispatch
	// IOMode selects exclusive or shared I/O space. A driver that
	// other contexts must reach through shared on-device buffers uses
	// mem.IOShared.
	IOMode mem.IOMode
}

// NewNetDriver builds and starts a network driver for nic. Its receive
// interrupt is routed to the boot CPU.
func NewNetDriver(class string, nic *hw.NIC, svc *mem.Service, evt *event.Service, cfg NetDriverConfig) (*NetDriver, error) {
	grant, err := svc.AllocIOSpace(cfg.Ctx, nic.IORegion().Name, cfg.IOMode)
	if err != nil {
		return nil, fmt.Errorf("drivers: I/O space: %w", err)
	}
	d := &NetDriver{
		Object: obj.New(class, svc.Machine().Meter),
		nic:    nic,
		grant:  grant,
		evt:    evt,
		line:   nic.IRQ(),
	}
	bi, err := d.AddInterface(NetDevDecl, d)
	if err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, err
	}
	bi.MustBindInto("send", func(out []any, args ...any) ([]any, error) {
		frame, ok := obj.BytesArg(args[0])
		if !ok {
			return nil, fmt.Errorf("drivers: send wants []byte, got %T", args[0])
		}
		return out, d.Send(frame)
	}).MustBindInto("recv", func(out []any, _ ...any) ([]any, error) {
		if _, ok := d.Recv(); !ok {
			return append(out, []byte(nil)), nil
		}
		// The frame crosses by reference to the driver's own copy of
		// its header: Recv set lent, and only the next Recv — by the
		// same single consumer — changes it.
		return append(out, &d.lent), nil
	}).MustBind("stats", func(...any) ([]any, error) {
		rx, tx, dr := d.Stats()
		return []any{rx, tx, dr}, nil
	})

	if err := evt.RegisterThreadFreeIRQOn(d.line, class+"-rx", cfg.Ctx, cfg.Dispatch, mmu.BootCPU, func(hw.TrapFrame) {
		d.drainRing()
	}); err != nil {
		_ = svc.ReleaseIOSpace(grant)
		return nil, fmt.Errorf("drivers: IRQ: %w", err)
	}
	return d, nil
}

// drainRing moves every pending frame from device memory into the
// software receive queue, each into a recycled buffer.
//
//paramecium:hotpath
func (d *NetDriver) drainRing() {
	regs := d.grant.Region
	for {
		pending, err := regs.ReadReg(hw.NICRegRxPending)
		if err != nil || pending == 0 {
			return
		}
		slot, _ := regs.ReadReg(hw.NICRegRxSlot)
		length, _ := regs.ReadReg(hw.NICRegRxLen)
		data, err := d.nic.SlotData(int(slot))
		if err != nil {
			return
		}
		d.mu.Lock()
		var frame []byte
		if k := len(d.spare); k > 0 {
			frame = d.spare[k-1][:0]
			d.spare[k-1] = nil
			d.spare = d.spare[:k-1]
		}
		frame = append(frame, data[:length]...)
		if d.rxHead > 0 && len(d.rxq) == cap(d.rxq) {
			// Full but partly consumed: slide the live frames to the
			// front instead of growing the array.
			n := copy(d.rxq, d.rxq[d.rxHead:])
			clear(d.rxq[n:])
			d.rxq, d.rxHead = d.rxq[:n], 0
		}
		d.rxq = append(d.rxq, frame)
		d.rx++
		d.mu.Unlock()
		_ = regs.WriteReg(hw.NICRegRxPop, 1)
	}
}

// Recv pops the oldest received frame (nil, false when empty). The
// frame stays valid until the next Recv, which recycles its buffer:
// the driver serves one receive consumer (the protocol stack), and a
// consumer that keeps a frame longer must copy it.
//
//paramecium:hotpath
func (d *NetDriver) Recv() ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lent != nil {
		d.spare = append(d.spare, d.lent)
		d.lent = nil
	}
	if d.rxHead == len(d.rxq) {
		return nil, false
	}
	f := d.rxq[d.rxHead]
	d.rxq[d.rxHead] = nil
	d.rxHead++
	if d.rxHead == len(d.rxq) {
		// Drained: reuse the queue's array from the front.
		d.rxq, d.rxHead = d.rxq[:0], 0
	}
	d.lent = f
	return f, true
}

// Send transmits a frame through the device.
func (d *NetDriver) Send(frame []byte) error {
	if len(frame) > hw.NICSlotSize {
		return hw.ErrFrameTooBig
	}
	regs := d.grant.Region
	d.mu.Lock()
	defer d.mu.Unlock()
	// Stage the frame in the NIC's transmit slot, which reception never
	// uses. A production driver would manage a transmit ring; one slot
	// is enough for the synchronous transmit the experiments need.
	copy(d.nic.TxData(), frame)
	if err := regs.WriteReg(hw.NICRegTxSlot, hw.NICTxSlot); err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	if err := regs.WriteReg(hw.NICRegTxLen, uint64(len(frame))); err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	if err := regs.WriteReg(hw.NICRegTxGo, 1); err != nil {
		return fmt.Errorf("%w: %v", ErrTxFailed, err)
	}
	d.tx++
	return nil
}

// Stats reports frames received, transmitted and dropped (device-side
// ring overflows).
func (d *NetDriver) Stats() (rx, tx, dropped uint64) {
	d.mu.Lock()
	rx, tx = d.rx, d.tx
	d.mu.Unlock()
	return rx, tx, d.nic.Dropped()
}

// QueueLen reports frames waiting in the software receive queue.
func (d *NetDriver) QueueLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rxq) - d.rxHead
}

// close unregisters the interrupt and releases the I/O grant.
func (d *NetDriver) close(svc *mem.Service) error {
	if err := d.evt.UnregisterIRQ(d.line); err != nil {
		return err
	}
	return svc.ReleaseIOSpace(d.grant)
}
