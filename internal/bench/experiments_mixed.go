package bench

import (
	"fmt"
	"sync/atomic"

	"paramecium/internal/obj"
)

// MixedCounterHandles boots a single-CPU world with k server domains,
// each exporting its own concurrency-safe counter object, and returns
// k pre-resolved cross-domain handles from one client domain plus the
// world — the mixed-target fixture used by the P8 experiment and the
// root-level BenchmarkP8 family. Each handle routes through a distinct
// proxy, so a batch interleaving them exercises the multi-target
// dispatch path rather than the consecutive-run fast path.
func MixedCounterHandles(k int) ([]obj.MethodHandle, *World) {
	w := NewWorld()
	decl := obj.MustInterfaceDecl("bench.atomic.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	clientDom := w.K.NewDomain("client")
	handles := make([]obj.MethodHandle, k)
	for i := 0; i < k; i++ {
		server := obj.New(fmt.Sprintf("atomic-counter-%d", i), w.K.Meter)
		n := new(atomic.Int64)
		bi, err := server.AddInterface(decl, n)
		if err != nil {
			panic(err)
		}
		bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
			n.Add(1)
			return append(out, n), nil
		})
		serverDom := w.K.NewDomain(fmt.Sprintf("server-%d", i))
		path := fmt.Sprintf("/services/atomic%d", i)
		if err := w.K.Register(path, server, serverDom.Ctx); err != nil {
			panic(err)
		}
		h, err := clientDom.ResolveMethod(path, "bench.atomic.v1", "inc")
		if err != nil {
			panic(err)
		}
		handles[i] = h
	}
	return handles, w
}

// mixedBatchCycles measures virtual cycles per invocation for a batch
// of the given size whose entries round-robin across the handles
// (entry j targets handles[j%len(handles)] — the worst case for
// consecutive-run vectoring), run in the given mode.
func mixedBatchCycles(handles []obj.MethodHandle, w *World, size int, mode obj.BatchMode) float64 {
	loop := BatchLoop(handles, size, mode)
	const rounds = 64
	watch := w.K.Meter.Clock.StartWatch()
	if err := loop(rounds * size); err != nil {
		panic(fmt.Sprintf("bench: mixed batch: %v", err))
	}
	return float64(watch.Elapsed()) / float64(rounds*size)
}

// P8MixedTargetSweep measures the mixed-target batch cliff and the
// grouped-mode fix. A batch that interleaves k targets — A, B, A, B —
// defeats the consecutive-run vectoring of the default in-order mode:
// every entry is a run of one, so every entry pays a full crossing.
// Grouped mode partitions the batch by target and pays one crossing
// per DISTINCT target, restoring the amortization at the cost of
// cross-target reordering (per-target order is preserved).
//
// Deterministic virtual cycles, like P5: the comparison is a
// cost-model property, not a host-parallelism property.
func P8MixedTargetSweep() Table {
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
			handles, w := MixedCounterHandles(k)
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
