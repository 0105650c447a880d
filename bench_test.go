// Benchmarks regenerating every experiment in DESIGN.md §4. Each
// benchmark drives the experiment's hot path b.N times and reports
// virtual cycles per operation; running with -v also prints the full
// result table exactly as cmd/benchtab would.
package paramecium_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium/internal/bench"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/threads"
)

// logTable prints the experiment's full table when -v is set.
func logTable(b *testing.B, t bench.Table) {
	b.Helper()
	b.Log("\n" + t.Render())
}

// reportCycles converts a virtual-cycle total into the benchmark's
// custom metric.
func reportCycles(b *testing.B, total uint64) {
	b.ReportMetric(float64(total)/float64(b.N), "cycles/op")
}

func BenchmarkT1_Invocation(b *testing.B) {
	w := bench.NewWorld()
	decl := obj.MustInterfaceDecl("bench.counter.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	o := obj.New("counter", w.K.Meter)
	n := 0
	bi, err := o.AddInterface(decl, &n)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) { n++; return []any{n}, nil })
	iv, _ := o.Iface("bench.counter.v1")
	inc, err := iv.Resolve("inc")
	if err != nil {
		b.Fatal(err)
	}

	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.Call(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.T1Invocation())
}

// newBenchCounter builds a meterless counter object so the Invoke-vs-
// handle pair below measures host-machine dispatch cost only. The
// method is bound in the buffer-threading form and returns its state
// pointer — the paper's interfaces are "methods, state pointers and
// type information" — so a caller that supplies the result buffer
// completes the whole invocation with zero allocations.
func newBenchCounter(b *testing.B) obj.Invoker {
	b.Helper()
	decl := obj.MustInterfaceDecl("bench.counter.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	o := obj.New("counter", nil)
	n := 0
	bi, err := o.AddInterface(decl, &n)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
		n++
		return append(out, &n), nil
	})
	iv, _ := o.Iface("bench.counter.v1")
	return iv
}

// BenchmarkInvokeString and BenchmarkInvokeHandle are the invocation
// microbenchmark pair for the pre-resolved handle redesign: the same
// bound method called by name through obj.Invoke (name lookup per
// call, results allocated) and through a handle
// resolved once (slot dispatch with a caller-provided result buffer —
// the zero-allocation fast path, gated at 0 allocs/op in CI).
func BenchmarkInvokeString(b *testing.B) {
	iv := newBenchCounter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke(iv, "inc"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvokeHandle(b *testing.B) {
	iv := newBenchCounter(b)
	inc, err := iv.Resolve("inc")
	if err != nil {
		b.Fatal(err)
	}
	var buf [1]any
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.CallInto(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkB0_ZeroAllocInvoke drives the full zero-allocation
// single-call contract: a method that takes an argument and returns a
// result, called through a pre-resolved handle with a reused argument
// list and a caller-provided result buffer. The CI allocs gate holds
// this (and BenchmarkInvokeHandle) at exactly 0 allocs/op.
func BenchmarkB0_ZeroAllocInvoke(b *testing.B) {
	decl := obj.MustInterfaceDecl("bench.acc.v1", obj.MethodDecl{Name: "add", NumIn: 1, NumOut: 1})
	o := obj.New("accumulator", nil)
	total := 0
	bi, err := o.AddInterface(decl, &total)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBindInto("add", func(out []any, args ...any) ([]any, error) {
		total += args[0].(int)
		return append(out, &total), nil
	})
	iv, _ := o.Iface("bench.acc.v1")
	add, err := iv.Resolve("add")
	if err != nil {
		b.Fatal(err)
	}
	args := []any{1}
	var buf [1]any
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := add.CallInto(buf[:0], args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP0_SerializedProxyCall is the pre-PR reference point: the
// same cross-domain handle, but every call serialized through one
// mutex — exactly what the old per-interface pending-slot design
// imposed on concurrent callers. Compare its ns/op against
// BenchmarkP1_ParallelProxyCall at GOMAXPROCS≥8: the ratio is the
// aggregate speedup of the per-call frame redesign.
func BenchmarkP0_SerializedProxyCall(b *testing.B) {
	inc, _ := bench.SharedCounterHandle()
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			_, err := inc.Call()
			mu.Unlock()
			if err != nil {
				// b.Fatal is only safe from the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkP1_ParallelProxyCall drives one shared cross-domain handle
// from GOMAXPROCS goroutines with no caller-side serialization: each
// call carries its own recycled frame through the fault path.
func BenchmarkP1_ParallelProxyCall(b *testing.B) {
	inc, _ := bench.SharedCounterHandle()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := inc.Call(); err != nil {
				// b.Fatal is only safe from the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkP2_ParallelLookup resolves one deep path from GOMAXPROCS
// goroutines: name-space lookups walk an immutable copy-on-write
// snapshot and take no lock.
func BenchmarkP2_ParallelLookup(b *testing.B) {
	w := bench.NewWorld()
	leaf := obj.New("leaf", w.K.Meter)
	if err := w.K.Space.Register("/a/b/c/d", leaf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := w.K.RootView.Bind("/a/b/c/d"); err != nil {
				// b.Fatal is only safe from the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkP3_ParallelInvokeHandle is the parallel twin of
// BenchmarkInvokeHandle: one meterless local handle shared by
// GOMAXPROCS goroutines, measuring the slot-dispatch path's scaling.
func BenchmarkP3_ParallelInvokeHandle(b *testing.B) {
	decl := obj.MustInterfaceDecl("bench.atomic.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	o := obj.New("counter", nil)
	var n atomic.Int64
	bi, err := o.AddInterface(decl, &n)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) { return []any{n.Add(1)}, nil })
	iv, _ := o.Iface("bench.atomic.v1")
	inc, err := iv.Resolve("inc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := inc.Call(); err != nil {
				// b.Fatal is only safe from the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkP4_ParallelProxyCallCPUs sweeps the virtual CPU count under
// the parallel cross-domain workload: each call claims a virtual CPU,
// so with more CPUs the entry-page translations and crossing charges
// spread over per-CPU TLBs and registers instead of funnelling through
// shared MMU state. benchgate records one row per CPU count.
func BenchmarkP4_ParallelProxyCallCPUs(b *testing.B) {
	for _, ncpu := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cpus=%d", ncpu), func(b *testing.B) {
			inc, _, _ := bench.SharedCounterHandleCPUs(ncpu)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := inc.Call(); err != nil {
						// b.Fatal is only safe from the benchmark goroutine.
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkP5_BatchedCall sweeps the vectored invocation plane's
// batch size: each iteration is ONE cross-domain invocation, issued
// in batches of the given size, so ns/op and cycles/op are directly
// comparable per invocation against the single-call P1/T2 paths. A
// batch pays the trap, page fault and context-switch pair once for
// the whole group, so per-invocation cost falls toward the per-entry
// floor as size grows.
func BenchmarkP5_BatchedCall(b *testing.B) {
	for _, size := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			inc, _, w := bench.SharedCounterHandleCPUs(1)
			// The whole steady-state round — batch machinery, dispatch,
			// method bodies, results — allocates nothing, which the CI
			// allocs gate holds these rows to.
			loop := bench.BatchLoop([]obj.MethodHandle{inc}, size, obj.InOrder)
			watch := w.K.Meter.Clock.StartWatch()
			b.ReportAllocs()
			b.ResetTimer()
			if err := loop(b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			reportCycles(b, watch.Elapsed())
		})
	}
}

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
func BenchmarkP8_MixedTargetBatch(b *testing.B) {
	modes := []struct {
		name string
		mode obj.BatchMode
	}{{"inorder", obj.InOrder}, {"grouped", obj.Grouped}}
	for _, targets := range []int{2, 4} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("targets=%d/size=16/mode=%s", targets, m.name), func(b *testing.B) {
				handles, w := bench.MixedCounterHandles(targets)
				// As in P5, the steady-state round allocates nothing in
				// either mode, which the CI allocs gate holds these rows to.
				loop := bench.BatchLoop(handles, 16, m.mode)
				watch := w.K.Meter.Clock.StartWatch()
				b.ReportAllocs()
				b.ResetTimer()
				if err := loop(b.N); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				reportCycles(b, watch.Elapsed())
			})
		}
	}
}

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
func BenchmarkP9_TopologyScaling(b *testing.B) {
	for _, shape := range bench.TopologyShapes() {
		ncpu := shape.CPUs()
		b.Run(fmt.Sprintf("cpus=%d/work=invoke", ncpu), func(b *testing.B) {
			h := bench.NewTopologyInvoke(shape.Nodes, shape.CPUsPerNode)
			b.ReportAllocs()
			b.ResetTimer()
			h.Run(b.N)
		})
		b.Run(fmt.Sprintf("cpus=%d/work=stream", ncpu), func(b *testing.B) {
			h := bench.NewTopologyStream(shape.Nodes, shape.CPUsPerNode)
			b.ReportAllocs()
			b.ResetTimer()
			h.Run(b.N)
		})
	}
}

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
func BenchmarkP6_BulkTransfer(b *testing.B) {
	for _, size := range []int{256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("bytes=%d/path=copy", size), func(b *testing.B) {
			h := bench.NewBulkCopy(size)
			watch := h.W.K.Meter.Clock.StartWatch()
			b.ReportAllocs()
			b.ResetTimer()
			h.Run(b.N)
			b.StopTimer()
			reportCycles(b, watch.Elapsed())
		})
		b.Run(fmt.Sprintf("bytes=%d/path=share", size), func(b *testing.B) {
			h := bench.NewBulkShare(size)
			watch := h.W.K.Meter.Clock.StartWatch()
			b.ReportAllocs()
			b.ResetTimer()
			h.Prepare()
			h.Run(b.N)
			h.Finish()
			b.StopTimer()
			reportCycles(b, watch.Elapsed())
		})
	}
}

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
func BenchmarkP7_RingStream(b *testing.B) {
	run := func(size, burst int, inline bool) func(*testing.B) {
		return func(b *testing.B) {
			h := bench.NewRingStream(size, burst, inline)
			watch := h.W.K.Meter.Clock.StartWatch()
			b.ReportAllocs()
			b.ResetTimer()
			h.Prepare()
			h.Run(b.N)
			h.Finish()
			b.StopTimer()
			reportCycles(b, watch.Elapsed())
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
		}
	}
	for _, burst := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("bytes=4096/burst=%d/path=place", burst), run(4096, burst, false))
	}
	for _, size := range []int{256, 65536} {
		b.Run(fmt.Sprintf("bytes=%d/burst=64/path=place", size), run(size, 64, false))
	}
	b.Run("bytes=4096/burst=64/path=inline", run(4096, 64, true))
}

func BenchmarkT2_CrossDomain(b *testing.B) {
	w := bench.NewWorld()
	decl := obj.MustInterfaceDecl("bench.echo.v1", obj.MethodDecl{Name: "echo", NumIn: 1, NumOut: 1})
	server := obj.New("echo", w.K.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBind("echo", func(args ...any) ([]any, error) { return []any{args[0]}, nil })
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	if err := w.K.Register("/services/echo", server, serverDom.Ctx); err != nil {
		b.Fatal(err)
	}
	echo, err := clientDom.ResolveMethod("/services/echo", "bench.echo.v1", "echo")
	if err != nil {
		b.Fatal(err)
	}
	arg := make([]byte, 64)

	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := echo.Call(arg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.T2CrossDomain())
}

func BenchmarkT3_Interrupt(b *testing.B) {
	b.ReportAllocs()
	machine := hw.New(hw.Config{PhysFrames: 16})
	sched := threads.NewScheduler(machine.Meter)
	events := event.New(machine, sched)
	if err := events.RegisterIRQOn(3, "bench", mmu.KernelContext, event.DispatchProto,
		mmu.BootCPU, func(hw.TrapFrame, *threads.Thread) {}); err != nil {
		b.Fatal(err)
	}
	watch := machine.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sched.RunUntilIdle()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.T3Interrupt())
}

// BenchmarkP11_InterruptPath prices the carrier handoff that
// BenchmarkT3_Interrupt pays: T3's handler takes its thread, so every
// proto delivery hands off to a carrier goroutine. Both rows here
// register an empty thread-free handler. path=raw runs it on the
// interrupt context, charging only the interrupt. path=proto-threadfree
// runs it as a proto-thread, inline on the delivering goroutine:
// T3's 140 cycles with no handoff, so T3 minus this row is the
// handoff's host cost. CI holds both rows at 0 allocs/op.
func BenchmarkP11_InterruptPath(b *testing.B) {
	for _, row := range []struct {
		path string
		d    event.Dispatch
	}{
		{"raw", event.DispatchRaw},
		{"proto-threadfree", event.DispatchProto},
	} {
		b.Run("path="+row.path, func(b *testing.B) {
			b.ReportAllocs()
			machine := hw.New(hw.Config{PhysFrames: 16})
			sched := threads.NewScheduler(machine.Meter)
			events := event.New(machine, sched)
			if err := events.RegisterThreadFreeIRQOn(3, "bench", mmu.KernelContext, row.d,
				mmu.BootCPU, func(hw.TrapFrame) {}); err != nil {
				b.Fatal(err)
			}
			watch := machine.Meter.Clock.StartWatch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportCycles(b, watch.Elapsed())
		})
	}
}

func BenchmarkT4_Certify(b *testing.B) {
	w := bench.NewWorld()
	image := make([]byte, 16<<10)
	c, err := w.Admin.Certify("img", image, 1)
	if err != nil {
		b.Fatal(err)
	}
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.K.Validator.InvalidateCache()
		if err := w.K.Validator.Validate(image, c, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.T4Certification())
}

func BenchmarkT5_FilterPlacement(b *testing.B) {
	w := bench.NewWorld()
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
	lf, err := w.K.LoadFilter("portfilter", core.PlaceKernelCertified)
	if err != nil {
		b.Fatal(err)
	}
	frame := bench.Frame(7, 256)
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lf.Accept(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.T5FilterPlacement())
}

func BenchmarkT6_Reconfig(b *testing.B) {
	w := bench.NewWorld()
	w.AddPVM("f", netstack.PortFilterProgram(7), true)
	if _, err := w.K.LoadFilter("f", core.PlaceKernelCertified); err != nil {
		b.Fatal(err)
	}
	path := "/services/f." + core.PlaceKernelCertified.String()
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.K.RootView.Bind(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.T6Reconfiguration())
}

func BenchmarkF1_Throughput(b *testing.B) {
	w := bench.NewWorld()
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
	lf, err := w.K.LoadFilter("portfilter", core.PlaceKernelCertified)
	if err != nil {
		b.Fatal(err)
	}
	drv := obj.New("nulldrv", w.K.Meter)
	bi, err := drv.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3}), nil)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBind("send", func(...any) ([]any, error) { return nil, nil }).
		MustBind("recv", func(...any) ([]any, error) { return []any{[]byte(nil)}, nil }).
		MustBind("stats", func(...any) ([]any, error) { return []any{uint64(0), uint64(0), uint64(0)}, nil })
	drvIv, _ := drv.Iface("paramecium.netdev.v1")
	stack, err := netstack.NewStack("stack", w.K.Meter, drvIv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		b.Fatal(err)
	}
	stack.AttachFilter(lf)
	if _, err := stack.Bind(7); err != nil {
		b.Fatal(err)
	}
	frame := bench.Frame(7, 256)
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stack.Deliver(frame)
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.F1Throughput())
}

func BenchmarkF2_BreakEven(b *testing.B) {
	w := bench.NewWorld()
	w.AddPVM("f", netstack.WorkFilterProgram(7, 256), true)
	lf, err := w.K.LoadFilter("f", core.PlaceKernelSandboxed)
	if err != nil {
		b.Fatal(err)
	}
	frame := bench.Frame(7, 1024)
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lf.Accept(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.F2BreakEven())
}

func BenchmarkF3_BlockingFraction(b *testing.B) {
	machine := hw.New(hw.Config{PhysFrames: 16})
	sched := threads.NewScheduler(machine.Meter)
	events := event.New(machine, sched)
	if err := events.RegisterIRQOn(3, "bench", mmu.KernelContext, event.DispatchEager,
		mmu.BootCPU, func(hw.TrapFrame, *threads.Thread) {}); err != nil {
		b.Fatal(err)
	}
	watch := machine.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
			b.Fatal(err)
		}
		sched.RunUntilIdle()
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.F3BlockingFraction())
}

func BenchmarkF4_Namespace(b *testing.B) {
	w := bench.NewWorld()
	leaf := obj.New("leaf", w.K.Meter)
	if err := w.K.Space.Register("/a/b/c/d", leaf); err != nil {
		b.Fatal(err)
	}
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.K.RootView.Bind("/a/b/c/d"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.F4Namespace())
}

func BenchmarkF5_TrapCostSweep(b *testing.B) {
	w := bench.NewWorld()
	decl := obj.MustInterfaceDecl("bench.noop.v1", obj.MethodDecl{Name: "noop", NumIn: 0, NumOut: 0})
	server := obj.New("noop", w.K.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		b.Fatal(err)
	}
	bi.MustBind("noop", func(...any) ([]any, error) { return nil, nil })
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	if err := w.K.Register("/services/noop", server, serverDom.Ctx); err != nil {
		b.Fatal(err)
	}
	noop, err := clientDom.ResolveMethod("/services/noop", "bench.noop.v1", "noop")
	if err != nil {
		b.Fatal(err)
	}
	watch := w.K.Meter.Clock.StartWatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noop.Call(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCycles(b, watch.Elapsed())
	logTable(b, bench.F5TrapCostSweep())
}

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
func BenchmarkP10_TraceOverhead(b *testing.B) {
	for _, state := range []string{"off", "on"} {
		enabled := state == "on"
		b.Run(fmt.Sprintf("path=emit/state=%s", state), func(b *testing.B) {
			m := clock.NewMeter(clock.DefaultCosts())
			if enabled {
				m.EnableTracing(probe.NewRecorder(1, 0), probe.NewLedger(clock.LedgerSlots))
				defer m.DisableTracing()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if probe.Enabled() {
					m.Emit(0, probe.KindDoorbell, 1, uint64(i), 0)
				}
			}
		})
		b.Run(fmt.Sprintf("path=cross/state=%s", state), func(b *testing.B) {
			inc, _, w := bench.SharedCounterHandleCPUs(1)
			if enabled {
				w.K.Meter.EnableTracing(
					probe.NewRecorder(w.K.Machine.NumCPUs(), 0),
					probe.NewLedger(clock.LedgerSlots))
				defer w.K.Meter.DisableTracing()
			}
			var buf [1]any
			watch := w.K.Meter.Clock.StartWatch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inc.CallInto(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportCycles(b, watch.Elapsed())
		})
	}
}
