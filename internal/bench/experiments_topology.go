package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/ring"
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

// TopologyShape is one point of the P9 sweep: a machine of Nodes ×
// CPUsPerNode virtual CPUs.
type TopologyShape struct {
	Nodes       int
	CPUsPerNode int
}

// CPUs is the shape's total CPU count.
func (s TopologyShape) CPUs() int { return s.Nodes * s.CPUsPerNode }

// TopologyShapes is the P9 sweep: square-ish node grids at 1, 4, 16,
// 64 and 256 CPUs.
func TopologyShapes() []TopologyShape {
	return []TopologyShape{{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}}
}

// invokeBatchSize is the per-round batch each invoke worker issues —
// the P5 sweet spot where batch machinery amortizes to the per-entry
// floor and the steady-state round allocates nothing.
const invokeBatchSize = 16

// TopologyInvoke is the P9 parallel-invoke harness: one worker per
// virtual CPU, each with its own counter object in a shared server
// domain, its own pre-resolved handle and its own reusable batch and
// result buffers. The steady-state round — batch machinery, crossing,
// method bodies, results — allocates nothing, which CI gates the
// cpus=16 row to.
type TopologyInvoke struct {
	W       *World
	workers int
	handles []obj.MethodHandle
	batches []*obj.Batch
	bufs    [][][1]any
}

// NewTopologyInvoke boots a nodes × cpusPerNode world and wires one
// invoke worker per CPU.
func NewTopologyInvoke(nodes, cpusPerNode int) *TopologyInvoke {
	w := NewWorldTopology(nodes, cpusPerNode)
	h := &TopologyInvoke{W: w, workers: nodes * cpusPerNode}
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	decl := obj.MustInterfaceDecl("bench.atomic.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	for i := 0; i < h.workers; i++ {
		server := obj.New(fmt.Sprintf("atomic-counter-%d", i), w.K.Meter)
		n := new(atomic.Int64)
		bi, err := server.AddInterface(decl, n)
		if err != nil {
			panic(err)
		}
		// Bound in the buffer-threading form, as in SharedCounterHandleCPUs:
		// callers that thread result buffers complete whole invocations
		// with zero allocations.
		bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
			n.Add(1)
			return append(out, n), nil
		})
		path := fmt.Sprintf("/services/atomic/w%d", i)
		if err := w.K.Register(path, server, serverDom.Ctx); err != nil {
			panic(err)
		}
		inc, err := clientDom.ResolveMethod(path, "bench.atomic.v1", "inc")
		if err != nil {
			panic(err)
		}
		h.handles = append(h.handles, inc)
		h.batches = append(h.batches, obj.NewBatch(invokeBatchSize))
		h.bufs = append(h.bufs, make([][1]any, invokeBatchSize))
	}
	return h
}

// Run performs n cross-domain invocations split evenly across the
// workers, each worker issuing vectored batches against its own
// target.
func (h *TopologyInvoke) Run(n int) {
	h.eachWorker(n, func(w, quota int) {
		batch, bufs, inc := h.batches[w], h.bufs[w], h.handles[w]
		for i := 0; i < quota; {
			k := invokeBatchSize
			if rem := quota - i; rem < k {
				k = rem
			}
			batch.Reset()
			for j := 0; j < k; j++ {
				if err := batch.AddInto(inc, bufs[j][:0]); err != nil {
					panic(fmt.Sprintf("bench: topology invoke add: %v", err))
				}
			}
			if err := batch.Run(); err != nil {
				panic(fmt.Sprintf("bench: topology invoke run: %v", err))
			}
			i += k
		}
	})
}

// eachWorker splits n ops across the harness's workers (first workers
// pick up the remainder) and runs body concurrently, one goroutine per
// worker with a non-zero quota.
func (h *TopologyInvoke) eachWorker(n int, body func(w, quota int)) {
	eachWorkers(h.workers, n, body)
}

func eachWorkers(workers, n int, body func(w, quota int)) {
	each, extra := n/workers, n%workers
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
		go func(w, quota int) {
			defer wg.Done()
			body(w, quota)
		}(w, quota)
	}
	wg.Wait()
}

// streamBurst and streamRecordSize fix the P9 streaming workload at
// the P7 reference point: 64-record bursts of 256-byte records,
// published in place.
const (
	streamBurst      = 64
	streamRecordSize = 256
)

// TopologyStream is the P9 ring-stream harness: one SPSC ring per
// virtual CPU between a shared producer domain and a shared consumer
// domain, each with its own drain service as the doorbell — per
// worker, the P7 place-path protocol, all rings streaming
// concurrently.
type TopologyStream struct {
	W       *World
	workers int
	prods   []*ring.Producer
}

// NewTopologyStream boots a nodes × cpusPerNode world and wires one
// ring streamer per CPU.
func NewTopologyStream(nodes, cpusPerNode int) *TopologyStream {
	w := NewWorldTopology(nodes, cpusPerNode)
	h := &TopologyStream{W: w, workers: nodes * cpusPerNode}
	prodDom := w.K.NewDomain("producer")
	consDom := w.K.NewDomain("consumer")
	decl := obj.MustInterfaceDecl("bench.ringdrain.v1",
		obj.MethodDecl{Name: "drain", NumIn: 0, NumOut: 0})
	for i := 0; i < h.workers; i++ {
		r, err := prodDom.NewRing(consDom, 2*streamBurst, streamRecordSize)
		if err != nil {
			panic(fmt.Sprintf("bench: topology ring: %v", err))
		}
		cons := r.Consumer()
		server := obj.New(fmt.Sprintf("ring-drain-%d", i), w.K.Meter)
		bi, err := server.AddInterface(decl, nil)
		if err != nil {
			panic(err)
		}
		// The P7 place-path drain: validate each record's 8-byte
		// descriptor in place and release the slot; payload bytes never
		// ride the protocol.
		bi.MustBindInto("drain", func(out []any, _ ...any) ([]any, error) {
			for {
				_, n, err := cons.Peek()
				if err != nil {
					if errors.Is(err, ring.ErrEmpty) {
						return out, nil
					}
					return nil, err
				}
				if n != streamRecordSize {
					return nil, fmt.Errorf("bench: ring record %d bytes, want %d", n, streamRecordSize)
				}
				if err := cons.Release(); err != nil {
					return nil, err
				}
			}
		})
		path := fmt.Sprintf("/services/ringdrain/w%d", i)
		if err := w.K.Register(path, server, consDom.Ctx); err != nil {
			panic(err)
		}
		drain, err := prodDom.ResolveMethod(path, "bench.ringdrain.v1", "drain")
		if err != nil {
			panic(err)
		}
		prod := r.Producer()
		prod.SetDoorbell(drain)
		// Stage the in-place payload pattern once, as P7's Prepare does:
		// production writes the mapped slots at the producer's own
		// (charged) pace, and per record only the descriptor rides.
		off, err := prod.ProduceOffset()
		if err != nil {
			panic(err)
		}
		pattern := make([]byte, streamRecordSize)
		for j := range pattern {
			pattern[j] = 0x5A
		}
		if err := r.Segment().Store(off, pattern); err != nil {
			panic(err)
		}
		h.prods = append(h.prods, prod)
	}
	return h
}

// Run streams n records split evenly across the workers, each pushing
// bursts through its own ring and ringing its own doorbell.
func (h *TopologyStream) Run(n int) {
	eachWorkers(h.workers, n, func(w, quota int) {
		prod := h.prods[w]
		for i := 0; i < quota; {
			k := streamBurst
			if rem := quota - i; rem < k {
				k = rem
			}
			for j := 0; j < k; j++ {
				if err := prod.PushInPlace(streamRecordSize); err != nil {
					panic(fmt.Sprintf("bench: topology ring push: %v", err))
				}
			}
			if err := prod.Notify(); err != nil {
				panic(fmt.Sprintf("bench: topology ring notify: %v", err))
			}
			i += k
		}
	})
}

// P9ScalingSweep sweeps both P9 workloads across the topology shapes
// and reports throughput, speedup over the single-CPU machine, and
// where the TLB traffic landed — with unified CPU identity every
// worker's translations charge the CPU it actually ran on, so the
// misses spread across the grid instead of funnelling through one
// shared TLB.
func P9ScalingSweep() Table {
	t := Table{
		ID:     "P9",
		Title:  "NUMA topology scaling: parallel invoke and ring streaming (host ops/ms, higher is better)",
		Claim:  `scheduler CPU k and machine CPU k are one identity on a node-aware topology: per-worker working sets stay on their own CPUs and nodes, so both the invocation and streaming planes scale with the machine instead of a global serialization point`,
		Header: []string{"cpus", "nodes", "invoke ops/ms", "speedup", "stream recs/ms", "speedup", "CPUs with TLB traffic"},
	}
	const total = 8_192
	run := func(n int, f func(int)) float64 {
		start := time.Now()
		f(n)
		elapsed := time.Since(start)
		if elapsed <= 0 {
			return 0
		}
		return float64(n) / (elapsed.Seconds() * 1000)
	}
	var invokeBase, streamBase float64
	for _, shape := range TopologyShapes() {
		ncpu := shape.CPUs()
		hi := NewTopologyInvoke(shape.Nodes, shape.CPUsPerNode)
		invoke := run(total, hi.Run)
		hs := NewTopologyStream(shape.Nodes, shape.CPUsPerNode)
		stream := run(total, hs.Run)
		if ncpu == 1 {
			invokeBase, streamBase = invoke, stream
		}
		populated := 0
		for i := 0; i < ncpu; i++ {
			if hi.W.K.Machine.MMU.TLBStatsOn(mmu.CPUID(i)).Misses > 0 {
				populated++
			}
		}
		speedup := func(v, base float64) string {
			if base <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", v/base)
		}
		t.AddRow(ncpu, shape.Nodes,
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
