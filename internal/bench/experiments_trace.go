package bench

import (
	"fmt"
	"time"
)

// p10TraceOverhead measures what the kernel flight recorder costs the
// host, and proves it costs the simulation nothing. Two workloads, each
// run with tracing off and on: the bare emit path (one gated event
// emission, the per-event cost every instrumented site pays), and the
// full cross-domain invocation (every crossing emits a begin/end pair
// and rolls its charges into the per-domain ledger). Host nanoseconds
// rise when the gate opens; virtual cycles per call are identical in
// both states — recording is free in virtual time, so observing the
// simulation does not perturb it.
//
// Like the rest of the P-series the host-time columns vary with
// hardware; the cycles column is deterministic and its off/on equality
// is the claim under test (the root-level TestTraceCyclesUnperturbed
// asserts it exactly).
func p10TraceOverhead() Table {
	t := Table{
		ID:     "P10",
		Title:  "Flight-recorder overhead: emit and crossing cost, tracing off vs on",
		Claim:  `monitoring built into the kernel must be affordable enough to leave on: the disabled probe path is one atomic load, and recording never advances the virtual clock`,
		Header: []string{"workload", "tracing", "host ns/op", "cycles/op"},
	}
	const rounds = 4096
	var crossCycles []uint64
	for _, w := range []struct{ path, label string }{{"emit", "emit"}, {"cross", "cross-domain call"}} {
		for _, state := range []string{"off", "on"} {
			run, m := find(fmt.Sprintf("P10_TraceOverhead/path=%s/state=%s", w.path, state)).Setup()
			start := time.Now()
			if m == nil { // emit: host time only
				if err := run(rounds); err != nil {
					panic(fmt.Sprintf("bench: %v", err))
				}
				t.AddRow(w.label, state, fmt.Sprintf("%.1f", float64(time.Since(start).Nanoseconds())/rounds), 0)
				continue
			}
			c := elapsed(m, rounds, run)
			crossCycles = append(crossCycles, c)
			t.AddRow(w.label, state,
				fmt.Sprintf("%.1f", float64(time.Since(start).Nanoseconds())/rounds),
				fmt.Sprintf("%.1f", float64(c)/rounds))
		}
	}
	if crossCycles[0] != crossCycles[1] {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"WARNING: tracing perturbed the virtual clock (off=%d on=%d cycles)",
			crossCycles[0], crossCycles[1]))
	} else {
		t.Notes = append(t.Notes,
			"virtual cycles identical off and on: recording is free in virtual time")
	}
	t.Notes = append(t.Notes,
		"disabled emit is one atomic load behind an if; CI's allocs gate holds both emit rows at 0 allocs/op")
	return t
}
