package hw

import (
	"errors"
	"fmt"
	"sync"
)

// NIC register word offsets. Drivers drive the device exclusively
// through these registers plus the shared slot buffers, mirroring a
// memory-mapped Ethernet controller with on-device packet memory.
const (
	NICRegRxPending = iota // r: frames waiting
	NICRegRxSlot           // r: slot index of the head frame
	NICRegRxLen            // r: length of the head frame
	NICRegRxPop            // w: retire the head frame
	NICRegTxSlot           // w: slot to transmit from
	NICRegTxLen            // w: length to transmit
	NICRegTxGo             // w: start transmission
	NICRegRxDropped        // r: frames dropped because the ring was full
	NICRegTxCount          // r: frames transmitted
	nicRegCount
)

// NICSlots is the number of receive slots in device memory.
const NICSlots = 32

// NICTxSlot is the index of the transmit slot, the one slot of device
// memory beyond the receive slots. Reception never uses it, so a frame
// staged there cannot overwrite a received one.
const NICTxSlot = NICSlots

// NICSlotSize is the capacity of one packet slot in bytes.
const NICSlotSize = 2048

// ErrFrameTooBig is returned when a frame exceeds NICSlotSize.
var ErrFrameTooBig = errors.New("hw: frame exceeds NIC slot size")

// ErrRingFull is returned by Inject when the receive ring is full.
var ErrRingFull = errors.New("hw: NIC receive ring full")

// NIC is a simulated network interface with on-device packet memory,
// a receive ring and a transmit path. Frames enter via Inject (the
// "wire") and leave via the transmit sink.
//
// The receive ring and the free-slot list are fixed FIFOs of slot
// indices, like a real controller's descriptor rings: every receive
// slot is on exactly one of them, so neither can overflow and neither
// ever allocates. The transmit slot is on neither.
type NIC struct {
	baseDevice
	name string
	irq  IRQLine

	mu        sync.Mutex
	slots     [NICSlots + 1][]byte // on-device packet memory: receive slots, then NICTxSlot
	rxLens    [NICSlots]int        // frame length held by each slot
	rx        slotFIFO             // slots holding received frames, oldest first
	free      slotFIFO             // slots free for reception, FIFO reuse
	txSink    func(frame []byte)
	rxDropped uint64
	txCount   uint64
	region    *IORegion

	// txSlot/txLen latch the pending transmit descriptor.
	txSlot, txLen uint64

	// txMu serializes transmission through txBuf, the one buffer a
	// frame is copied out of device memory into and handed to the
	// sink from. Taken before mu, and held across the sink call.
	txMu  sync.Mutex
	txBuf [NICSlotSize]byte
}

// slotFIFO is a fixed-capacity FIFO of slot indices.
type slotFIFO struct {
	q       [NICSlots]int
	head, n int
}

func (f *slotFIFO) push(slot int) {
	f.q[(f.head+f.n)%NICSlots] = slot
	f.n++
}

func (f *slotFIFO) pop() int {
	slot := f.q[f.head]
	f.head = (f.head + 1) % NICSlots
	f.n--
	return slot
}

// NewNIC builds a NIC raising interrupts on the given line.
func NewNIC(name string, irq IRQLine) *NIC {
	n := &NIC{name: name, irq: irq}
	for i := range n.slots {
		n.slots[i] = make([]byte, NICSlotSize)
	}
	for i := 0; i < NICSlots; i++ {
		n.free.push(i)
	}
	n.region = NewIORegion(name+"-regs", nicRegCount, n.readReg, n.writeReg)
	return n
}

// Name implements Device.
func (n *NIC) Name() string { return n.name }

// IRQ implements Device.
func (n *NIC) IRQ() IRQLine { return n.irq }

// IORegion implements Device.
func (n *NIC) IORegion() *IORegion { return n.region }

// SetTxSink installs the function that receives transmitted frames
// (the "wire" on the send side). The sink is called synchronously by
// the transmit register write, and the frame it is handed is valid
// only during the call: the NIC reuses the buffer for the next
// transmission, so a sink that keeps a frame must copy it. A sink must
// not transmit on the same NIC.
func (n *NIC) SetTxSink(sink func(frame []byte)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.txSink = sink
}

// SlotData exposes the payload memory of one receive slot. This models
// the shared on-device buffer that the paper's I/O space service lets
// multiple contexts map.
func (n *NIC) SlotData(slot int) ([]byte, error) {
	if slot < 0 || slot >= NICSlots {
		return nil, fmt.Errorf("hw: NIC slot %d out of range", slot)
	}
	return n.slots[slot], nil
}

// TxData exposes the payload memory of the transmit slot, NICTxSlot.
func (n *NIC) TxData() []byte { return n.slots[NICTxSlot] }

// Inject delivers a frame from the wire into the receive ring and
// raises the device interrupt. It fails with ErrRingFull when no slot
// is free (the frame is counted as dropped).
//
//paramecium:hotpath
func (n *NIC) Inject(frame []byte) error {
	if len(frame) > NICSlotSize {
		return ErrFrameTooBig
	}
	n.mu.Lock()
	if n.free.n == 0 {
		n.rxDropped++
		n.mu.Unlock()
		return ErrRingFull
	}
	slot := n.free.pop()
	//paralint:ignore chargepath device DMA into the receive ring costs no CPU cycles by design
	copy(n.slots[slot], frame)
	n.rxLens[slot] = len(frame)
	n.rx.push(slot)
	n.mu.Unlock()
	n.raise(n.irq)
	return nil
}

// Pending reports the number of frames waiting in the receive ring.
func (n *NIC) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rx.n
}

// Dropped reports frames dropped due to ring overflow.
func (n *NIC) Dropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rxDropped
}

// Transmitted reports the number of frames sent.
func (n *NIC) Transmitted() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.txCount
}

func (n *NIC) readReg(reg int) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch reg {
	case NICRegRxPending:
		return uint64(n.rx.n), nil
	case NICRegRxSlot:
		if n.rx.n == 0 {
			return ^uint64(0), nil
		}
		return uint64(n.rx.q[n.rx.head]), nil
	case NICRegRxLen:
		if n.rx.n == 0 {
			return 0, nil
		}
		return uint64(n.rxLens[n.rx.q[n.rx.head]]), nil
	case NICRegRxDropped:
		return n.rxDropped, nil
	case NICRegTxCount:
		return n.txCount, nil
	}
	return 0, nil
}

func (n *NIC) writeReg(reg int, val uint64) error {
	if reg == NICRegTxGo {
		return n.transmit()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch reg {
	case NICRegRxPop:
		if n.rx.n > 0 {
			slot := n.rx.pop()
			n.rxLens[slot] = 0
			n.free.push(slot)
		}
	case NICRegTxSlot:
		n.txSlot = val
	case NICRegTxLen:
		n.txLen = val
	}
	return nil
}

// transmit sends the latched descriptor's frame: it is copied out of
// device memory into the transmit buffer and handed to the sink,
// outside the register lock so the sink may read the NIC's counters.
//
//paramecium:hotpath
func (n *NIC) transmit() error {
	n.txMu.Lock()
	defer n.txMu.Unlock()
	n.mu.Lock()
	slot, length := int(n.txSlot), int(n.txLen)
	if slot < 0 || slot > NICTxSlot || length < 0 || length > NICSlotSize {
		n.mu.Unlock()
		return fmt.Errorf("hw: bad transmit descriptor slot=%d len=%d", slot, length)
	}
	frame := n.txBuf[:length]
	//paralint:ignore chargepath device DMA out of the transmit ring costs no CPU cycles by design
	copy(frame, n.slots[slot][:length])
	sink := n.txSink
	n.txCount++
	n.mu.Unlock()
	if sink != nil {
		sink(frame)
	}
	return nil
}
