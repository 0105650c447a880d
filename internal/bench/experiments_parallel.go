package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

// The P-series measures the concurrent invocation plane. Unlike the
// T/F experiments, which report deterministic virtual cycles, the
// P-series measures host wall-clock throughput: parallel speedup is a
// property of the real machine the simulation runs on, so these
// numbers vary with hardware and load. The shape — serialized flat,
// concurrent scaling with workers — is the claim under test.

// parallelWorkers is the worker sweep used by both P experiments.
func parallelWorkers() []int {
	ws := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		ws = append(ws, n)
	}
	return ws
}

// throughput splits total ops across workers, each calling run(1) per
// op, and reports ops/ms of wall time.
func throughput(workers, total int, run func(int) error) float64 {
	each := total / workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = run(1) // host throughput only; the gated rows check errors
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(workers*each) / (elapsed.Seconds() * 1000)
}

// newSharedCounter boots an ncpu-CPU world with a concurrency-safe
// counter in a server domain and returns one pre-resolved cross-domain
// handle on it from a client domain, shared by every caller, plus the
// world.
func newSharedCounter(ncpu int) (obj.MethodHandle, *World) {
	w := newWorldCPUs(ncpu)
	server := newAtomicCounter("atomic-counter", w.K.Meter)
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	return w.export("/services/atomic", server, serverDom, clientDom, "bench.atomic.v1", "inc"), w
}

// atomicDecl is the interface of the cross-domain counters.
var atomicDecl = obj.MustInterfaceDecl("bench.atomic.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})

// newAtomicCounter builds a concurrency-safe counter object. Its method
// is bound in the buffer-threading form and returns the counter's state
// pointer (one result word): callers that thread result buffers — the
// vectored plane's AddInto path — complete whole invocations with zero
// allocations.
func newAtomicCounter(name string, m *clock.Meter) *obj.Object {
	o := obj.New(name, m)
	n := new(atomic.Int64)
	bi, err := o.AddInterface(atomicDecl, n)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
		n.Add(1)
		return append(out, n), nil
	})
	return o
}

// p1ParallelProxyCall compares serialized and concurrent cross-domain
// invocation at increasing worker counts. The serialized column
// models the pre-frame-table design, where one pending slot per
// interface forced one call at a time.
func p1ParallelProxyCall() Table {
	t := Table{
		ID:     "P1",
		Title:  "Concurrent cross-domain invocation (host ops/ms, higher is better)",
		Claim:  `cross-domain calls carry per-call frames, so one imported interface serves as many concurrent callers as the hardware allows`,
		Header: []string{"workers", "serialized ops/ms", "concurrent ops/ms", "speedup"},
	}
	serializedRun, _ := find("P0_SerializedProxyCall").Setup()
	concurrentRun, _ := find("P1_ParallelProxyCall").Setup()

	const total = 64_000
	for _, workers := range parallelWorkers() {
		serialized := throughput(workers, total, serializedRun)
		concurrent := throughput(workers, total, concurrentRun)
		speedup := 0.0
		if serialized > 0 {
			speedup = concurrent / serialized
		}
		t.AddRow(workers, fmt.Sprintf("%.0f", serialized), fmt.Sprintf("%.0f", concurrent),
			fmt.Sprintf("%.2fx", speedup))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host wall-clock at GOMAXPROCS=%d; not deterministic virtual cycles", runtime.GOMAXPROCS(0)),
		"serialized = every call behind one mutex, the old per-interface pending slot")
	return t
}

// p2ParallelLookup measures name-space lookup scaling: the
// copy-on-write tree serves lock-free reads, so lookups should scale
// with workers while a mutation churns in the background.
func p2ParallelLookup() Table {
	t := Table{
		ID:     "P2",
		Title:  "Concurrent name-space lookup (host ops/ms, higher is better)",
		Claim:  `lookups walk an immutable snapshot of the copy-on-write tree, taking no lock on the hot path`,
		Header: []string{"workers", "lookup ops/ms", "with writer churn"},
	}
	w := deepLeaf()
	leaf := obj.New("leaf", w.K.Meter)
	lookups := binds(w.K.RootView, deepPath)

	const total = 256_000
	for _, workers := range parallelWorkers() {
		quiet := throughput(workers, total, lookups)

		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/churn/x%d", i%64)
				if err := w.K.Space.Register(path, leaf); err == nil {
					_ = w.K.Space.Unregister(path)
				}
			}
		}()
		contended := throughput(workers, total, lookups)
		close(stop)
		churn.Wait()

		t.AddRow(workers, fmt.Sprintf("%.0f", quiet), fmt.Sprintf("%.0f", contended))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host wall-clock at GOMAXPROCS=%d; not deterministic virtual cycles", runtime.GOMAXPROCS(0)))
	return t
}

// p3CPUTopology sweeps the virtual CPU count: the same parallel
// cross-domain workload on machines of 1, 2, 4 and 8 CPUs, with as
// many workers as CPUs. Beyond throughput it reports where the TLB
// traffic landed — with per-CPU TLBs the misses spread across the
// topology instead of funnelling through one shared TLB behind one
// global mutex.
func p3CPUTopology() Table {
	t := Table{
		ID:     "P3",
		Title:  "CPU topology sweep: parallel cross-domain invocation (host ops/ms, higher is better)",
		Claim:  `per-CPU context registers, TLBs and run queues remove every global serialization point from the invocation plane: unrelated calls translate, cross and dispatch fully in parallel`,
		Header: []string{"cpus", "ops/ms", "CPUs with TLB traffic", "TLB misses (sum)"},
	}
	const total = 32_000
	for _, ncpu := range []int{1, 2, 4, 8} {
		inc, w := newSharedCounter(ncpu)
		ops := throughput(ncpu, total, calls(inc))
		populated := 0
		var misses uint64
		for i := 0; i < ncpu; i++ {
			s := w.K.Machine.MMU.TLBStatsOn(mmu.CPUID(i))
			if s.Misses > 0 {
				populated++
			}
			misses += s.Misses
		}
		t.AddRow(ncpu, fmt.Sprintf("%.0f", ops), populated, misses)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host wall-clock at GOMAXPROCS=%d; not deterministic virtual cycles", runtime.GOMAXPROCS(0)),
		"workers = cpus; each call claims a virtual CPU, so misses partition across the topology")
	return t
}
