package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// throughput runs total ops split across workers and reports ops/ms
// of wall time.
func throughput(workers, total int, op func()) float64 {
	each := total / workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op()
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

// SharedCounterHandle boots a single-CPU world with a concurrency-safe
// counter in a server domain and returns one pre-resolved cross-domain
// handle from a client domain plus the counter itself — the
// shared-handle fixture used by both the P1 experiment and the
// root-level BenchmarkP* family.
func SharedCounterHandle() (obj.MethodHandle, *atomic.Int64) {
	h, n, _ := SharedCounterHandleCPUs(1)
	return h, n
}

// SharedCounterHandleCPUs is SharedCounterHandle on an ncpu-CPU
// machine, also returning the world so callers can read per-CPU stats.
func SharedCounterHandleCPUs(ncpu int) (obj.MethodHandle, *atomic.Int64, *World) {
	w := NewWorldCPUs(ncpu)
	decl := obj.MustInterfaceDecl("bench.atomic.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	server := obj.New("atomic-counter", w.K.Meter)
	n := new(atomic.Int64)
	bi, err := server.AddInterface(decl, n)
	if err != nil {
		panic(err)
	}
	// Bound in the buffer-threading form, returning the counter's state
	// pointer (one result word, same charge as the boxed count it used
	// to return): callers that thread result buffers — the vectored
	// plane's AddInto path — complete whole invocations with zero
	// allocations.
	bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
		n.Add(1)
		return append(out, n), nil
	})
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	if err := w.K.Register("/services/atomic", server, serverDom.Ctx); err != nil {
		panic(err)
	}
	inc, err := clientDom.ResolveMethod("/services/atomic", "bench.atomic.v1", "inc")
	if err != nil {
		panic(err)
	}
	return inc, n, w
}

// P1ParallelProxyCall compares serialized and concurrent cross-domain
// invocation at increasing worker counts. The serialized column
// models the pre-frame-table design, where one pending slot per
// interface forced one call at a time.
func P1ParallelProxyCall() Table {
	t := Table{
		ID:     "P1",
		Title:  "Concurrent cross-domain invocation (host ops/ms, higher is better)",
		Claim:  `cross-domain calls carry per-call frames, so one imported interface serves as many concurrent callers as the hardware allows`,
		Header: []string{"workers", "serialized ops/ms", "concurrent ops/ms", "speedup"},
	}
	inc, _ := SharedCounterHandle()

	const total = 64_000
	var mu sync.Mutex
	for _, workers := range parallelWorkers() {
		serialized := throughput(workers, total, func() {
			mu.Lock()
			_, _ = inc.Call()
			mu.Unlock()
		})
		concurrent := throughput(workers, total, func() { _, _ = inc.Call() })
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

// P2ParallelLookup measures name-space lookup scaling: the
// copy-on-write tree serves lock-free reads, so lookups should scale
// with workers while a mutation churns in the background.
func P2ParallelLookup() Table {
	t := Table{
		ID:     "P2",
		Title:  "Concurrent name-space lookup (host ops/ms, higher is better)",
		Claim:  `lookups walk an immutable snapshot of the copy-on-write tree, taking no lock on the hot path`,
		Header: []string{"workers", "lookup ops/ms", "with writer churn"},
	}
	w := NewWorld()
	leaf := obj.New("leaf", w.K.Meter)
	if err := w.K.Space.Register("/a/b/c/d", leaf); err != nil {
		panic(err)
	}

	const total = 256_000
	for _, workers := range parallelWorkers() {
		quiet := throughput(workers, total, func() { _, _ = w.K.Space.Bind("/a/b/c/d") })

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
		contended := throughput(workers, total, func() { _, _ = w.K.Space.Bind("/a/b/c/d") })
		close(stop)
		churn.Wait()

		t.AddRow(workers, fmt.Sprintf("%.0f", quiet), fmt.Sprintf("%.0f", contended))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host wall-clock at GOMAXPROCS=%d; not deterministic virtual cycles", runtime.GOMAXPROCS(0)))
	return t
}

// P3CPUTopology sweeps the virtual CPU count: the same parallel
// cross-domain workload on machines of 1, 2, 4 and 8 CPUs, with as
// many workers as CPUs. Beyond throughput it reports where the TLB
// traffic landed — with per-CPU TLBs the misses spread across the
// topology instead of funnelling through one shared TLB behind one
// global mutex.
func P3CPUTopology() Table {
	t := Table{
		ID:     "P3",
		Title:  "CPU topology sweep: parallel cross-domain invocation (host ops/ms, higher is better)",
		Claim:  `per-CPU context registers, TLBs and run queues remove every global serialization point from the invocation plane: unrelated calls translate, cross and dispatch fully in parallel`,
		Header: []string{"cpus", "ops/ms", "CPUs with TLB traffic", "TLB misses (sum)"},
	}
	const total = 32_000
	for _, ncpu := range []int{1, 2, 4, 8} {
		inc, _, w := SharedCounterHandleCPUs(ncpu)
		ops := throughput(ncpu, total, func() { _, _ = inc.Call() })
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
