package bench

import (
	"fmt"

	"paramecium/internal/obj"
)

// newMixedCounters boots a single-CPU world with k server domains,
// each exporting its own concurrency-safe counter object, and returns
// k pre-resolved cross-domain handles from one client domain plus the
// world. Each handle routes through a distinct proxy, so a batch
// interleaving them exercises the multi-target dispatch path rather
// than the consecutive-run fast path.
func newMixedCounters(k int) ([]obj.MethodHandle, *World) {
	w := NewWorld()
	clientDom := w.K.NewDomain("client")
	handles := make([]obj.MethodHandle, k)
	for i := 0; i < k; i++ {
		server := newAtomicCounter(fmt.Sprintf("atomic-counter-%d", i), w.K.Meter)
		serverDom := w.K.NewDomain(fmt.Sprintf("server-%d", i))
		handles[i] = w.export(fmt.Sprintf("/services/atomic%d", i), server, serverDom, clientDom, "bench.atomic.v1", "inc")
	}
	return handles, w
}

// batchModes names the two batch dispatch modes P8 compares.
var batchModes = []struct {
	name string
	mode obj.BatchMode
}{{"inorder", obj.InOrder}, {"grouped", obj.Grouped}}

// mixedBatchCycles measures virtual cycles per invocation for a batch
// of the given size whose entries round-robin across the handles
// (entry j targets handles[j%len(handles)] — the worst case for
// consecutive-run vectoring), run in the given mode.
func mixedBatchCycles(handles []obj.MethodHandle, w *World, size int, mode obj.BatchMode) float64 {
	const rounds = 64
	return float64(elapsed(w.K.Meter, rounds*size, batchLoop(handles, size, mode))) / float64(rounds*size)
}

// p8MixedTargetSweep measures the mixed-target batch cliff and the
// grouped-mode fix. A batch that interleaves k targets — A, B, A, B —
// defeats the consecutive-run vectoring of the default in-order mode:
// every entry is a run of one, so every entry pays a full crossing.
// Grouped mode partitions the batch by target and pays one crossing
// per DISTINCT target, restoring the amortization at the cost of
// cross-target reordering (per-target order is preserved).
//
// Deterministic virtual cycles, like P5: the comparison is a
// cost-model property, not a host-parallelism property.
func p8MixedTargetSweep() Table {
	t := Table{
		ID:     "P8",
		Title:  "Mixed-target batch: in-order vs grouped dispatch (virtual cycles per invocation)",
		Claim:  `a batch interleaving k targets pays one crossing per entry in order-preserving mode; grouped dispatch pays one crossing per distinct target, recovering the vectored amortization for mixed-target batches`,
		Header: []string{"targets", "batch size", "in-order cycles/inv", "grouped cycles/inv", "grouped speedup", "crossings in-order/grouped"},
	}
	for _, k := range []int{2, 4, 8} {
		for _, size := range []int{16, 32} {
			if size < k {
				continue
			}
			handles, w := newMixedCounters(k)
			inOrder := mixedBatchCycles(handles, w, size, obj.InOrder)
			grouped := mixedBatchCycles(handles, w, size, obj.Grouped)
			speedup := inOrder / grouped
			// Round-robin interleave: in-order sees size runs of one
			// (size crossings), grouped sees k partitions (k crossings).
			t.AddRow(k, size,
				fmt.Sprintf("%.1f", inOrder),
				fmt.Sprintf("%.1f", grouped),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%d/%d", size, k))
		}
	}
	t.Notes = append(t.Notes,
		"deterministic virtual cycles; entries round-robin across targets (A,B,A,B...), the worst case for consecutive-run vectoring",
		"grouped mode reorders across targets (never within one); opt in with Batch.SetMode(BatchGrouped) only for independent entries")
	return t
}
