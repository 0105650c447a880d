package obj

import (
	"sync/atomic"

	"paramecium/internal/clock"
)

// DefaultCoalesceSize is the flush threshold a Coalescer uses when
// none is given: 16 entries, the knee of the P5 batch sweep, where
// vectoring delivers 12.0x the single-call rate and deeper batches
// only shave the last few percent (the per-entry decode cost already
// dominates the amortized crossing share).
const DefaultCoalesceSize = 16

// CrossingCycles reports the fixed cost of one uncoalesced protection
// crossing under a cost model: trap entry and exit, the fault decode,
// and the context-switch pair. Under the default model this is 660
// cycles (the measured P5 single-call cost is 697 with dispatch on
// top), against a per-entry vectored cost of ≈50 — which is the whole
// case for coalescing. It is also the default flush deadline: holding
// a queued call longer than one crossing's worth of virtual time
// costs more latency than the crossing it could save.
func CrossingCycles(m *clock.CostModel) uint64 {
	return m.Cost(clock.OpTrapEnter) + m.Cost(clock.OpTrapExit) +
		m.Cost(clock.OpPageFault) + 2*m.Cost(clock.OpCtxSwitch)
}

// Coalescer gives callers that issue calls one at a time the
// amortization of the vectored plane, hands-free: Submit queues a
// call into an internal Batch and flushes automatically when either
// the size threshold is reached (amortization is as good as it gets)
// or the virtual-clock deadline passes (latency bound). Both
// thresholds derive from the P5 break-even curve — see
// DefaultCoalesceSize and CrossingCycles for the reasoning and for
// what to pass to tune them: a latency-sensitive caller lowers delay
// toward zero (degenerating to unbatched calls), a throughput caller
// raises size until the per-entry decode cost dominates.
//
// The deadline is virtual time, so flush timing is deterministic: the
// clock only advances when work is charged, and a test can drive it
// exactly. Time held by a queued call is checked at every Submit and
// at Poll — a caller that stops submitting must Poll (or Flush) to
// bound latency, there is no background timer thread.
//
// Entries queued with SubmitInto thread caller-owned result buffers,
// so their results survive the automatic flush (the flush resets the
// internal batch). Fire-and-forget entries queued with Submit drop
// their results; install an OnFlush hook to harvest outcomes before
// the reset. Like Batch, a Coalescer is single-goroutine.
type Coalescer struct {
	meter *clock.Meter
	batch *Batch
	size  int
	delay uint64
	due   uint64 // deadline for the oldest queued entry; valid when Len > 0

	// flushes/crossings are atomic: the submitting goroutine owns the
	// coalescer, but monitoring code (trace snapshots, stats scrapes)
	// reads these counters from other goroutines while flushes run.
	flushes   atomic.Uint64
	crossings atomic.Uint64

	// OnFlush, if set, observes the batch after each Run and before
	// the reset — per-entry results and errors are still readable,
	// and Batch.Crossings reports what the flush just cost: a
	// coalescer fed alternating targets in the default in-order mode
	// reports one crossing per entry, the regression SetMode(Grouped)
	// exists to fix.
	OnFlush func(*Batch)
}

// NewCoalescer builds a coalescer over the given meter's clock and
// cost model. size <= 0 selects DefaultCoalesceSize; delay == 0
// selects CrossingCycles of the meter's model. A delay of 1 with a
// large size flushes on the next submit after any charged work —
// useful in tests.
func NewCoalescer(meter *clock.Meter, size int, delay uint64) *Coalescer {
	if size <= 0 {
		size = DefaultCoalesceSize
	}
	if delay == 0 {
		delay = CrossingCycles(&meter.Model)
	}
	return &Coalescer{
		meter: meter,
		batch: NewBatch(size),
		size:  size,
		delay: delay,
	}
}

// SetMode selects the dispatch mode of the internal batch. The
// default is InOrder, which preserves submission order exactly but
// falls off the amortization cliff when submissions alternate
// targets: every flush pays one crossing per entry. SetMode(Grouped)
// is the opt-in fix — a flush then pays one crossing per DISTINCT
// target, reordering execution across targets (per-target order
// preserved); see Batch for the semantics. Crossings reports the
// difference either way.
func (c *Coalescer) SetMode(m BatchMode) { c.batch.SetMode(m) }

// Mode reports the dispatch mode of the internal batch.
func (c *Coalescer) Mode() BatchMode { return c.batch.Mode() }

// Flushes reports how many non-empty flushes the coalescer has run.
func (c *Coalescer) Flushes() uint64 { return c.flushes.Load() }

// Crossings reports the cumulative protection crossings the
// coalescer's flushes have paid (each flushed Batcher group is one).
// Divide by Flushes to see the amortization actually achieved: a
// coalescer fed mixed targets in the default in-order mode degrades
// toward one crossing per submitted call — visible here — and
// SetMode(Grouped) restores one crossing per distinct target.
func (c *Coalescer) Crossings() uint64 { return c.crossings.Load() }

// Size reports the flush threshold.
func (c *Coalescer) Size() int { return c.size }

// Delay reports the flush deadline in virtual cycles.
func (c *Coalescer) Delay() uint64 { return c.delay }

// Len reports the number of queued, unflushed entries.
func (c *Coalescer) Len() int { return c.batch.Len() }

// Deadline reports the virtual time at which the queue must flush;
// meaningful only while Len > 0.
func (c *Coalescer) Deadline() uint64 { return c.due }

// Submit queues one fire-and-forget invocation, flushing if the queue
// reaches the size threshold or the deadline has passed. The returned
// error is a queueing or flush-dispatch error; per-entry outcomes are
// only observable through an OnFlush hook.
func (c *Coalescer) Submit(h MethodHandle, args ...any) error {
	return c.SubmitInto(h, nil, args...)
}

// SubmitInto is Submit with a caller-provided result buffer, exactly
// as Batch.AddInto: results are appended into out's array, which the
// caller owns and may read after the flush that ran the entry.
//
//paramecium:hotpath
func (c *Coalescer) SubmitInto(h MethodHandle, out []any, args ...any) error {
	if err := c.batch.AddInto(h, out, args...); err != nil {
		return err
	}
	now := c.meter.Clock.Now()
	if c.batch.Len() == 1 {
		c.due = now + c.delay
	}
	if c.batch.Len() >= c.size || now >= c.due {
		return c.Flush()
	}
	return nil
}

// Poll flushes if the deadline has passed; a no-op otherwise. Callers
// with idle gaps call it at their convenient points (their event
// loop, their scheduler tick) to bound queued-call latency.
func (c *Coalescer) Poll() error {
	if c.batch.Len() == 0 || c.meter.Clock.Now() < c.due {
		return nil
	}
	return c.Flush()
}

// Flush runs the queued entries now — consecutive same-proxy entries
// vector in one crossing, see Batch.Run — then resets the queue. It
// returns Run's group-level error; per-entry outcomes go to caller
// buffers (SubmitInto) or the OnFlush hook.
//
//paramecium:hotpath
func (c *Coalescer) Flush() error {
	if c.batch.Len() == 0 {
		return nil
	}
	err := c.batch.Run()
	// Crossings before flushes, so a concurrent reader computing the
	// amortization ratio Crossings/Flushes never sees a flush whose
	// crossings have not landed yet.
	c.crossings.Add(uint64(c.batch.Crossings()))
	c.flushes.Add(1)
	if c.OnFlush != nil {
		c.OnFlush(c.batch)
	}
	c.batch.Reset()
	c.due = 0
	return err
}
