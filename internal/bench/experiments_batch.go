package bench

import (
	"fmt"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

// batchLoop returns the one batch loop of the P5, P8 and P9
// experiments, tables and rows alike. The returned function issues n
// invocations in batches of size, run in the given mode, through
// handles round-robin: entry j of every batch targets
// handles[j%len(handles)]. The last batch is short when size does not
// divide n. The batch and one result buffer per entry are allocated
// here, once, and reused by every batch (AddInto), so a steady-state
// batch allocates nothing.
func batchLoop(handles []obj.MethodHandle, size int, mode obj.BatchMode) func(n int) error {
	batch := obj.NewBatch(size)
	batch.SetMode(mode)
	bufs := make([][1]any, size)
	return func(n int) error {
		for i := 0; i < n; {
			k := min(size, n-i)
			batch.Reset()
			for j := 0; j < k; j++ {
				if err := batch.AddInto(handles[j%len(handles)], bufs[j][:0]); err != nil {
					return err
				}
			}
			if err := batch.Run(); err != nil {
				return err
			}
			i += k
		}
		return nil
	}
}

// batchedCall is the shared counter called in batches of size, in
// order.
func batchedCall(size int) Setup {
	return func() (func(int) error, *clock.Meter) {
		inc, w := newSharedCounter(1)
		return batchLoop([]obj.MethodHandle{inc}, size, obj.InOrder), w.K.Meter
	}
}

// p5BatchSweep sweeps the vectored invocation plane's batch size,
// reporting deterministic virtual cycles per invocation. A vectored
// call carries N pre-resolved invocations across the protection
// boundary in ONE crossing — one trap, one page fault, one
// context-switch pair — then pays only a small decode cost per entry,
// so the per-invocation cost falls hyperbolically toward the
// per-entry floor. The break-even column shows the amortization
// factor against issuing the same calls one at a time.
//
// Unlike the rest of the P-series this experiment is deterministic
// (virtual cycles, not host wall-clock): batching is a cost-model
// property, not a host-parallelism property.
func p5BatchSweep() Table {
	t := Table{
		ID:     "P5",
		Title:  "Vectored cross-domain invocation: batch-size sweep (virtual cycles per invocation)",
		Claim:  `batching many invocations into one crossing amortizes the trap and context-switch cost, the classic active-message vectoring, making many small domains affordable for high-throughput clients`,
		Header: []string{"batch size", "cycles/invocation", "vs single call", "crossing share"},
	}
	// The fixed cost one crossing pays regardless of batch size: trap
	// entry/exit, fault decode, and the context-switch pair.
	costs := clock.DefaultCosts()
	fixed := float64(costs.Cost(clock.OpTrapEnter) + costs.Cost(clock.OpTrapExit) +
		costs.Cost(clock.OpPageFault) + 2*costs.Cost(clock.OpCtxSwitch))
	single := float64(0)
	for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
		const rounds = 64
		perInv := float64(batchedCall(size).cycles(rounds*size)) / float64(rounds*size)
		if size == 1 {
			single = perInv
		}
		speedup := single / perInv
		// The amortized crossing cost's share of each invocation
		// shrinks as 1/size toward the per-entry floor.
		t.AddRow(size,
			fmt.Sprintf("%.1f", perInv),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.0f%%", 100*fixed/float64(size)/perInv))
	}
	t.Notes = append(t.Notes,
		"deterministic virtual cycles (single-threaded sweep); one trap + one ctx-switch pair per batch, OpBatchEntry per entry of a batch of 2 or more",
		"break-even: a batch of 2 already halves the crossing overhead; see README \"Performance\"")
	return t
}
