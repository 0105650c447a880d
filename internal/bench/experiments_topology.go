package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

// The P9 experiment sweeps the NUMA topology: the same two workloads —
// vectored parallel invocation and ring streaming — on machines of 1,
// 4, 16, 64 and 256 virtual CPUs arranged as square-ish node grids.
// Every worker owns its whole working set (target object, batch,
// result buffers, ring), so nothing serializes callers against each
// other: throughput should scale with CPUs until the host runs out of
// parallelism. Like the rest of the P-series this measures host
// wall-clock, not virtual cycles — scaling is a property of the real
// machine underneath.

// topologyShape is one point of the P9 sweep: a machine of nodes ×
// cpusPerNode virtual CPUs.
type topologyShape struct {
	nodes       int
	cpusPerNode int
}

// cpus is the shape's total CPU count.
func (s topologyShape) cpus() int { return s.nodes * s.cpusPerNode }

// topologyShapes is the P9 sweep: square-ish node grids at 1, 4, 16,
// 64 and 256 CPUs.
func topologyShapes() []topologyShape {
	return []topologyShape{{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}}
}

// invokeBatchSize is the per-round batch each invoke worker issues —
// the P5 sweet spot where batch machinery amortizes to the per-entry
// floor and the steady-state round allocates nothing.
const invokeBatchSize = 16

// topologyInvoke is the P9 parallel-invoke harness: one worker per
// virtual CPU, each with its own counter object in a shared server
// domain, its own pre-resolved handle and its own batch loop. The
// steady-state round — batch machinery, crossing, method bodies,
// results — allocates nothing, which CI gates the cpus=16 row to.
type topologyInvoke struct {
	w     *World
	loops []func(int) error
}

// newTopologyInvoke boots a world of the given shape and wires one
// invoke worker per CPU.
func newTopologyInvoke(shape topologyShape) *topologyInvoke {
	w := newWorldTopology(shape.nodes, shape.cpusPerNode)
	h := &topologyInvoke{w: w}
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	for i := 0; i < shape.cpus(); i++ {
		server := newAtomicCounter(fmt.Sprintf("atomic-counter-%d", i), w.K.Meter)
		inc := w.export(fmt.Sprintf("/services/atomic/w%d", i), server, serverDom, clientDom, "bench.atomic.v1", "inc")
		h.loops = append(h.loops, batchLoop([]obj.MethodHandle{inc}, invokeBatchSize, obj.InOrder))
	}
	return h
}

// run performs n cross-domain invocations split evenly across the
// workers, each worker issuing vectored batches against its own
// target.
func (h *topologyInvoke) run(n int) error {
	return eachWorker(len(h.loops), n, func(w, quota int) error { return h.loops[w](quota) })
}

// eachWorker splits n ops across workers (first workers pick up the
// remainder) and runs body concurrently, one goroutine per worker with
// a non-zero quota, returning the workers' errors joined.
func eachWorker(workers, n int, body func(w, quota int) error) error {
	each, extra := n/workers, n%workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		quota := each
		if w < extra {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = body(w, quota)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// streamBurst and streamRecordSize fix the P9 streaming workload at
// the P7 reference point: 64-record bursts of 256-byte records,
// published in place.
const (
	streamBurst      = 64
	streamRecordSize = 256
)

// topologyStream is the P9 ring-stream harness: one SPSC ring per
// virtual CPU between a shared producer domain and a shared consumer
// domain, each with its own drain service as the doorbell — per
// worker, the P7 place-path protocol, all rings streaming
// concurrently.
type topologyStream struct {
	rings []*ringStream
}

// newTopologyStream boots a world of the given shape and wires one
// ring streamer per CPU, its payload staged.
func newTopologyStream(shape topologyShape) *topologyStream {
	w := newWorldTopology(shape.nodes, shape.cpusPerNode)
	h := &topologyStream{}
	prodDom := w.K.NewDomain("producer")
	consDom := w.K.NewDomain("consumer")
	for i := 0; i < shape.cpus(); i++ {
		r := newRing(w, prodDom, consDom, fmt.Sprintf("/services/ringdrain/w%d", i), streamRecordSize, streamBurst, false)
		if err := r.stage(); err != nil {
			panic(err)
		}
		h.rings = append(h.rings, r)
	}
	return h
}

// run streams n records split evenly across the workers, each pushing
// bursts through its own ring and ringing its own doorbell.
func (h *topologyStream) run(n int) error {
	return eachWorker(len(h.rings), n, func(w, quota int) error { return h.rings[w].stream(quota) })
}

// p9ScalingSweep sweeps both P9 workloads across the topology shapes
// and reports throughput, speedup over the single-CPU machine, and
// where the TLB traffic landed — with unified CPU identity every
// worker's translations charge the CPU it actually ran on, so the
// misses spread across the grid instead of funnelling through one
// shared TLB.
func p9ScalingSweep() Table {
	t := Table{
		ID:     "P9",
		Title:  "NUMA topology scaling: parallel invoke and ring streaming (host ops/ms, higher is better)",
		Claim:  `scheduler CPU k and machine CPU k are one identity on a node-aware topology: per-worker working sets stay on their own CPUs and nodes, so both the invocation and streaming planes scale with the machine instead of a global serialization point`,
		Header: []string{"cpus", "nodes", "invoke ops/ms", "speedup", "stream recs/ms", "speedup", "CPUs with TLB traffic"},
	}
	const total = 8_192
	rate := func(run func(int) error) float64 {
		start := time.Now()
		if err := run(total); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		elapsed := time.Since(start)
		if elapsed <= 0 {
			return 0
		}
		return float64(total) / (elapsed.Seconds() * 1000)
	}
	var invokeBase, streamBase float64
	for _, shape := range topologyShapes() {
		ncpu := shape.cpus()
		hi := newTopologyInvoke(shape)
		invoke := rate(hi.run)
		stream := rate(newTopologyStream(shape).run)
		if ncpu == 1 {
			invokeBase, streamBase = invoke, stream
		}
		populated := 0
		for i := 0; i < ncpu; i++ {
			if hi.w.K.Machine.MMU.TLBStatsOn(mmu.CPUID(i)).Misses > 0 {
				populated++
			}
		}
		speedup := func(v, base float64) string {
			if base <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", v/base)
		}
		t.AddRow(ncpu, shape.nodes,
			fmt.Sprintf("%.0f", invoke), speedup(invoke, invokeBase),
			fmt.Sprintf("%.0f", stream), speedup(stream, streamBase),
			populated)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host wall-clock at GOMAXPROCS=%d; not deterministic virtual cycles", runtime.GOMAXPROCS(0)),
		"one worker per virtual CPU; every worker owns its target object, batch, buffers and ring — nothing shared between callers",
		"invoke = vectored batches of 16 against per-worker counters; stream = P7's place path, 64-record bursts of 256-byte records",
		"CI gates cpus=16/cpus=1 invoke ns/op at a floor ratio (declared in ci/bench_baseline.json) on multi-core runners")
	return t
}
