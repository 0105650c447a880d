// Package chargepath is the golden suite for the chargepath analyzer:
// raw data movement must be dominated by a clock charge on every path.
package chargepath

// Meter mirrors the clock meter's charging surface.
type Meter struct{}

func (m *Meter) ChargeFor(payer uint32, op int)            {}
func (m *Meter) ChargeNFor(payer uint32, op int, n uint64) {}

// PhysMem mirrors the raw DRAM primitive.
type PhysMem struct{}

func (p *PhysMem) Read(pa uint64, buf []byte) error  { return nil }
func (p *PhysMem) Write(pa uint64, buf []byte) error { return nil }

type dev struct {
	meter *Meter
	phys  *PhysMem
}

const (
	payer  = 0
	opCopy = 1
)

// badCopy moves bytes with no charge anywhere.
func (d *dev) badCopy(dst, src []byte) {
	copy(dst, src) // want `copy of payload bytes is not dominated by a clock charge`
}

// badPhysWrite touches DRAM with no charge.
func (d *dev) badPhysWrite(pa uint64, buf []byte) {
	d.phys.Write(pa, buf) // want `PhysMem\.Write is not dominated by a clock charge`
}

// goodCopy charges before moving.
func (d *dev) goodCopy(dst, src []byte) {
	d.meter.ChargeNFor(payer, opCopy, uint64(len(src)))
	copy(dst, src)
}

// chargeLate charges only after the movement: the movement itself is
// undominated.
func (d *dev) chargeLate(dst, src []byte) {
	copy(dst, src) // want `copy of payload bytes is not dominated by a clock charge`
	d.meter.ChargeNFor(payer, opCopy, uint64(len(src)))
}

// oneArm charges on one branch only, which does not dominate.
func (d *dev) oneArm(pa uint64, buf []byte, fast bool) {
	if fast {
		d.meter.ChargeFor(payer, opCopy)
	}
	d.phys.Read(pa, buf) // want `PhysMem\.Read is not dominated by a clock charge`
}

// bothArms charges on every branch, which does.
func (d *dev) bothArms(pa uint64, buf []byte, fast bool) {
	if fast {
		d.meter.ChargeFor(payer, opCopy)
	} else {
		d.meter.ChargeNFor(payer, opCopy, 2)
	}
	d.phys.Read(pa, buf)
}

// viaHelper charges through a same-package helper that itself charges.
func (d *dev) viaHelper(dst, src []byte) {
	d.chargeCopy(len(src))
	copy(dst, src)
}

func (d *dev) chargeCopy(n int) { d.meter.ChargeNFor(payer, opCopy, uint64(n)) }

// mirror is a PhysMem method: the raw primitive sits below the cost
// model and is exempt.
func (p *PhysMem) mirror(dst, src []byte) {
	copy(dst, src)
}

// dma is a reviewed deviation: the copy models a device DMA engine.
func (d *dev) dma(dst, src []byte) {
	//paralint:ignore chargepath device DMA engines cost no CPU cycles in this model
	copy(dst, src)
}

// ints moves non-payload (non-byte) data, which is not charged.
func (d *dev) ints(dst, src []int) {
	copy(dst, src)
}
