// Benchmarks regenerating every measured row of the experiments in
// README.md, "Performance". Each row is a scenario defined once in
// internal/bench (bench.Scenarios): a benchmark here only names its
// rows, and runScenarios drives each row's operation b.N times and
// reports virtual cycles per operation, allocations and host time.
// cmd/benchtab prints the tables built from the same scenarios.
package paramecium_test

import (
	"strings"
	"testing"

	"paramecium/internal/bench"
	"paramecium/internal/clock"
)

// runScenarios runs the registered scenario named name as this
// benchmark, and every scenario named name/<sub> as sub-row <sub>.
func runScenarios(b *testing.B, name string) {
	for _, s := range bench.Scenarios {
		if s.Name == name {
			runScenario(b, s)
		} else if sub, ok := strings.CutPrefix(s.Name, name+"/"); ok {
			b.Run(sub, func(b *testing.B) { runScenario(b, s) })
		}
	}
}

// runScenario is the one timed loop: set the scenario up, reset the
// timer, run its operation b.N times — from GOMAXPROCS goroutines for
// a parallel row — and report cycles per operation when the scenario
// has a meter.
func runScenario(b *testing.B, s bench.Scenario) {
	run, m := s.Setup()
	b.ReportAllocs()
	if s.Parallel {
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := run(1); err != nil {
					// b.Fatal is only safe from the benchmark goroutine.
					b.Error(err)
					return
				}
			}
		})
		return
	}
	var watch clock.Stopwatch
	if m != nil {
		watch = m.Clock.StartWatch()
	}
	b.ResetTimer()
	if err := run(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if m != nil {
		b.ReportMetric(float64(watch.Elapsed())/float64(b.N), "cycles/op")
	}
}

func BenchmarkT1_Invocation(b *testing.B) { runScenarios(b, "T1_Invocation") }

// BenchmarkInvokeString and BenchmarkInvokeHandle are the invocation
// microbenchmark pair for the pre-resolved handle redesign: the same
// bound method called by name through obj.Invoke (name lookup per
// call, results allocated) and through a handle
// resolved once (slot dispatch with a caller-provided result buffer —
// the zero-allocation fast path, gated at 0 allocs/op in CI).
func BenchmarkInvokeString(b *testing.B) { runScenarios(b, "InvokeString") }

func BenchmarkInvokeHandle(b *testing.B) { runScenarios(b, "InvokeHandle") }

// BenchmarkB0_ZeroAllocInvoke drives the full zero-allocation
// single-call contract: a method that takes an argument and returns a
// result, called through a pre-resolved handle with a reused argument
// list and a caller-provided result buffer. The CI allocs gate holds
// this (and BenchmarkInvokeHandle) at exactly 0 allocs/op.
func BenchmarkB0_ZeroAllocInvoke(b *testing.B) { runScenarios(b, "B0_ZeroAllocInvoke") }

// BenchmarkP0_SerializedProxyCall is the pre-PR reference point: the
// same cross-domain handle, but every call serialized through one
// mutex — exactly what the old per-interface pending-slot design
// imposed on concurrent callers. Compare its ns/op against
// BenchmarkP1_ParallelProxyCall at GOMAXPROCS≥8: the ratio is the
// aggregate speedup of the per-call frame redesign.
func BenchmarkP0_SerializedProxyCall(b *testing.B) { runScenarios(b, "P0_SerializedProxyCall") }

// BenchmarkP1_ParallelProxyCall drives one shared cross-domain handle
// from GOMAXPROCS goroutines with no caller-side serialization: each
// call carries its own recycled frame through the fault path.
func BenchmarkP1_ParallelProxyCall(b *testing.B) { runScenarios(b, "P1_ParallelProxyCall") }

// BenchmarkP2_ParallelLookup resolves one deep path from GOMAXPROCS
// goroutines: name-space lookups walk an immutable copy-on-write
// snapshot and take no lock.
func BenchmarkP2_ParallelLookup(b *testing.B) { runScenarios(b, "P2_ParallelLookup") }

// BenchmarkP3_ParallelInvokeHandle is the parallel twin of
// BenchmarkInvokeHandle: one meterless local handle shared by
// GOMAXPROCS goroutines, measuring the slot-dispatch path's scaling.
func BenchmarkP3_ParallelInvokeHandle(b *testing.B) { runScenarios(b, "P3_ParallelInvokeHandle") }

// BenchmarkP4_ParallelProxyCallCPUs sweeps the virtual CPU count under
// the parallel cross-domain workload: each call claims a virtual CPU,
// so with more CPUs the entry-page translations and crossing charges
// spread over per-CPU TLBs and registers instead of funnelling through
// shared MMU state. benchgate records one row per CPU count.
func BenchmarkP4_ParallelProxyCallCPUs(b *testing.B) { runScenarios(b, "P4_ParallelProxyCallCPUs") }

// BenchmarkP5_BatchedCall sweeps the vectored invocation plane's
// batch size: each iteration is ONE cross-domain invocation, issued
// in batches of the given size, so ns/op and cycles/op are directly
// comparable per invocation against the single-call P1/T2 paths. A
// batch pays the trap, page fault and context-switch pair once for
// the whole group, so per-invocation cost falls toward the per-entry
// floor as size grows.
func BenchmarkP5_BatchedCall(b *testing.B) { runScenarios(b, "P5_BatchedCall") }

// BenchmarkP8_MixedTargetBatch measures the mixed-target batch cliff
// and the grouped-mode fix. Each iteration is ONE cross-domain
// invocation, issued in batches of the given size whose entries
// round-robin across the given number of distinct targets — A, B, A,
// B — the worst case for the default in-order mode's consecutive-run
// vectoring: every entry is a run of one, so every entry pays a full
// crossing. mode=grouped partitions the batch by target and pays one
// crossing per DISTINCT target instead; CI gates the grouped rows at
// ≥3x the in-order cycles/op (a ratio declared in
// ci/bench_baseline.json) and at 0 allocs/op.
func BenchmarkP8_MixedTargetBatch(b *testing.B) { runScenarios(b, "P8_MixedTargetBatch") }

// BenchmarkP9_TopologyScaling sweeps the NUMA topology under the two
// steady-state workloads: vectored parallel invocation (per-worker
// batches of 16 against per-worker counters, the P5 zero-allocation
// round) and ring streaming (the P7 place path, one ring per CPU).
// One worker per virtual CPU, each owning its whole working set, so
// throughput scales with CPUs until the host runs out of parallelism.
// CI holds the cpus=16/cpus=1 invoke ns/op ratio at a floor on
// multi-core runners (a ratio declared in ci/bench_baseline.json, with
// min_procs 4) and gates the cpus=16
// invoke row at 0 allocs/op; a separate smoke step builds and runs the
// cpus=256 rows. Like P0–P4 these rows report host time, not virtual
// cycles: parallel interleaving makes the shared meter's total
// nondeterministic.
func BenchmarkP9_TopologyScaling(b *testing.B) { runScenarios(b, "P9_TopologyScaling") }

// BenchmarkP6_BulkTransfer sweeps the bulk data plane: per op, one
// payload of the given size is made visible to a consumer in another
// protection domain. path=copy carries the payload through the
// vectored invocation plane (batched calls, OpCopyWord per 8 payload
// bytes, every time); path=share grants a segment once (attach and
// revoke — the map and TLB-shootdown machinery — are inside the
// measured window) and per op sends only a vectored notify, the
// consumer validating the transfer header in place through its own
// mapping. The share path's cycles/op is flat in payload size and its
// steady state allocates nothing (the attach fast path is gated at 0
// allocs/op in CI); the copy path grows a word per 8 bytes.
func BenchmarkP6_BulkTransfer(b *testing.B) { runScenarios(b, "P6_BulkTransfer") }

// BenchmarkP7_RingStream streams records between concurrent producer
// and consumer domains through the shm ring: each iteration is ONE
// record. The producer publishes a burst of records (descriptor +
// tail words each) and rings the doorbell once; the doorbell is a
// vectored cross-domain call into the consumer domain, whose drain
// method validates and releases every record of the burst in place.
// Per-record cost is therefore push+pop bookkeeping plus the crossing
// divided by the burst — flat in record size on path=place, since
// payload bytes never ride the protocol. path=inline copies the full
// payload through Push/Pop as the contrast. The steady-state push/pop
// path allocates nothing; CI gates every row at 0 allocs/op and the
// cycles/op against the committed baseline.
func BenchmarkP7_RingStream(b *testing.B) { runScenarios(b, "P7_RingStream") }

func BenchmarkT2_CrossDomain(b *testing.B) { runScenarios(b, "T2_CrossDomain") }

func BenchmarkT3_Interrupt(b *testing.B) { runScenarios(b, "T3_Interrupt") }

// BenchmarkP11_InterruptPath prices the carrier handoff that
// BenchmarkT3_Interrupt pays: T3's handler takes its thread, so every
// proto delivery hands off to a carrier goroutine. Both rows here
// register an empty thread-free handler. path=raw runs it on the
// interrupt context, charging only the interrupt. path=proto-threadfree
// runs it as a proto-thread, inline on the delivering goroutine:
// T3's 140 cycles with no handoff, so T3 minus this row is the
// handoff's host cost. CI holds both rows at 0 allocs/op.
func BenchmarkP11_InterruptPath(b *testing.B) { runScenarios(b, "P11_InterruptPath") }

func BenchmarkT4_Certify(b *testing.B) { runScenarios(b, "T4_Certify") }

func BenchmarkT5_FilterPlacement(b *testing.B) { runScenarios(b, "T5_FilterPlacement") }

func BenchmarkT6_Reconfig(b *testing.B) { runScenarios(b, "T6_Reconfig") }

func BenchmarkF1_Throughput(b *testing.B) { runScenarios(b, "F1_Throughput") }

func BenchmarkF2_BreakEven(b *testing.B) { runScenarios(b, "F2_BreakEven") }

func BenchmarkF3_BlockingFraction(b *testing.B) { runScenarios(b, "F3_BlockingFraction") }

func BenchmarkF4_Namespace(b *testing.B) { runScenarios(b, "F4_Namespace") }

func BenchmarkF5_TrapCostSweep(b *testing.B) { runScenarios(b, "F5_TrapCostSweep") }

// BenchmarkP10_TraceOverhead measures the kernel flight recorder's
// cost in the two states that matter: path=emit is one instrumented
// call site (the gate check, and when open, one event emission into
// the per-CPU ring), path=cross is a full cross-domain invocation with
// every crossing probe firing and every charge rolling into the
// per-domain ledger. CI's allocs gate holds both emit rows at exactly
// 0 allocs/op — the disabled path is one atomic load and the enabled
// path is lock-free atomics into a preallocated ring — and the cycles
// metric on the cross rows is identical off and on: recording is free
// in virtual time.
func BenchmarkP10_TraceOverhead(b *testing.B) { runScenarios(b, "P10_TraceOverhead") }
