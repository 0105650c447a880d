package bench

import (
	"fmt"
	"sync"

	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/event"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
)

// Setup builds a scenario's world once and returns run, which performs
// n operations, and the meter whose watch gives cycles per operation:
// nil for a row that reports host time only.
type Setup func() (run func(n int) error, m *clock.Meter)

// Scenario is one measured row, defined once. The root benchmark
// Benchmark<Name> runs it b.N times, and the tables price their cells
// with the same setups, reading registered rows by name.
type Scenario struct {
	// Name is the row's name under Benchmark: "T2_CrossDomain", or a
	// sub-row such as "P7_RingStream/bytes=4096/burst=16/path=place".
	Name  string
	Setup Setup
	// Parallel rows are driven from GOMAXPROCS goroutines at once, each
	// calling run(1) per operation, so their run is safe for concurrent
	// use. They report host time only.
	Parallel bool
}

// Scenarios is every measured row, in report order. A new row is added
// here, not as an inline benchmark; its root benchmark function only
// names it.
var Scenarios = scenarios()

func scenarios() []Scenario {
	s := []Scenario{
		{Name: "T1_Invocation", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			return calls(resolve(newCounter(w), "bench.counter.v1", "inc")), w.K.Meter
		}},
		{Name: "T2_CrossDomain", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			_, remote := newEcho(w)
			return calls(remote, make([]byte, 64)), w.K.Meter
		}},
		{Name: "T3_Interrupt", Setup: interrupts(event.DispatchProto, false)},
		{Name: "T4_Certify", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			image, c := certifiedImage(w, 16<<10)
			return validates(w, image, c, true), w.K.Meter
		}},
		{Name: "T5_FilterPlacement", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
			return accepts(w.load("portfilter", core.PlaceKernelCertified), frame(7, 256)), w.K.Meter
		}},
		{Name: "T6_Reconfig", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			w.AddPVM("f", netstack.PortFilterProgram(7), true)
			w.load("f", core.PlaceKernelCertified)
			return binds(w.K.RootView, "/services/f."+core.PlaceKernelCertified.String()), w.K.Meter
		}},
		{Name: "F1_Throughput", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
			return delivers(filteredStack(w, core.PlaceKernelCertified), frame(7, 256)), w.K.Meter
		}},
		{Name: "F2_BreakEven", Setup: func() (func(int) error, *clock.Meter) {
			w := NewWorld()
			w.AddPVM("f", netstack.WorkFilterProgram(7, 256), true)
			return accepts(w.load("f", core.PlaceKernelSandboxed), frame(7, 1024)), w.K.Meter
		}},
		{Name: "F3_BlockingFraction", Setup: func() (func(int) error, *clock.Meter) {
			r := newInterruptRig(event.DispatchEager, false)
			return repeat(func() error { return r.raise(1) }), r.machine.Meter
		}},
		{Name: "F4_Namespace", Setup: deepBind},
		{Name: "F5_TrapCostSweep", Setup: noopCall},
		{Name: "InvokeString", Setup: func() (func(int) error, *clock.Meter) {
			iv, _ := newLocalCounter().Iface("bench.local.v1")
			return invokes(iv, "inc"), nil
		}},
		{Name: "InvokeHandle", Setup: func() (func(int) error, *clock.Meter) {
			return callsInto(resolve(newLocalCounter(), "bench.local.v1", "inc")), nil
		}},
		{Name: "B0_ZeroAllocInvoke", Setup: func() (func(int) error, *clock.Meter) {
			return callsInto(resolve(newLocalCounter(), "bench.local.v1", "add"), 1), nil
		}},
		{Name: "P0_SerializedProxyCall", Parallel: true, Setup: func() (func(int) error, *clock.Meter) {
			run, m := sharedCalls(1)()
			var mu sync.Mutex
			return func(n int) error {
				mu.Lock()
				err := run(n)
				mu.Unlock()
				return err
			}, m
		}},
		{Name: "P1_ParallelProxyCall", Parallel: true, Setup: sharedCalls(1)},
		{Name: "P2_ParallelLookup", Parallel: true, Setup: deepBind},
		{Name: "P3_ParallelInvokeHandle", Parallel: true, Setup: func() (func(int) error, *clock.Meter) {
			return calls(resolve(newLocalCounter(), "bench.local.v1", "inc")), nil
		}},
	}
	add := func(setup Setup, format string, args ...any) {
		s = append(s, Scenario{Name: fmt.Sprintf(format, args...), Setup: setup})
	}
	for _, ncpu := range []int{1, 2, 4} {
		s = append(s, Scenario{Name: fmt.Sprintf("P4_ParallelProxyCallCPUs/cpus=%d", ncpu),
			Parallel: true, Setup: sharedCalls(ncpu)})
	}
	for _, size := range []int{1, 2, 4, 8, 16} {
		add(batchedCall(size), "P5_BatchedCall/size=%d", size)
	}
	for _, size := range bulkSizes {
		add(func() (func(int) error, *clock.Meter) {
			h := newBulkCopy(size)
			return h.run, h.w.K.Meter
		}, "P6_BulkTransfer/bytes=%d/path=copy", size)
		add(func() (func(int) error, *clock.Meter) {
			h := newBulkShare(size)
			return h.run, h.w.K.Meter
		}, "P6_BulkTransfer/bytes=%d/path=share", size)
	}
	for _, r := range ringRows {
		add(func() (func(int) error, *clock.Meter) {
			h := newRingStream(r.size, r.burst, r.path == "inline")
			return h.run, h.w.K.Meter
		}, "P7_RingStream/bytes=%d/burst=%d/path=%s", r.size, r.burst, r.path)
	}
	for _, targets := range []int{2, 4} {
		for _, mode := range batchModes {
			add(func() (func(int) error, *clock.Meter) {
				handles, w := newMixedCounters(targets)
				return batchLoop(handles, 16, mode.mode), w.K.Meter
			}, "P8_MixedTargetBatch/targets=%d/size=16/mode=%s", targets, mode.name)
		}
	}
	for _, shape := range topologyShapes() {
		add(func() (func(int) error, *clock.Meter) {
			return newTopologyInvoke(shape).run, nil
		}, "P9_TopologyScaling/cpus=%d/work=invoke", shape.cpus())
		add(func() (func(int) error, *clock.Meter) {
			return newTopologyStream(shape).run, nil
		}, "P9_TopologyScaling/cpus=%d/work=stream", shape.cpus())
	}
	for _, state := range []string{"off", "on"} {
		traced := state == "on"
		add(func() (func(int) error, *clock.Meter) {
			m := clock.NewMeter(clock.DefaultCosts())
			return tracing(m, 1, traced, emits(m)), nil
		}, "P10_TraceOverhead/path=emit/state=%s", state)
		add(func() (func(int) error, *clock.Meter) {
			inc, w := newSharedCounter(1)
			return tracing(w.K.Meter, w.K.Machine.NumCPUs(), traced, callsInto(inc)), w.K.Meter
		}, "P10_TraceOverhead/path=cross/state=%s", state)
	}
	add(interrupts(event.DispatchRaw, true), "P11_InterruptPath/path=raw")
	add(interrupts(event.DispatchProto, true), "P11_InterruptPath/path=proto-threadfree")
	return s
}

// find returns the registered scenario named name.
func find(name string) Scenario {
	for _, s := range Scenarios {
		if s.Name == name {
			return s
		}
	}
	panic("bench: no scenario " + name)
}

// rowCycles prices the registered row name in virtual cycles per
// operation over n operations.
func rowCycles(name string, n int) float64 {
	return float64(find(name).Setup.cycles(n)) / float64(n)
}

// cycles builds the scenario and returns the virtual cycles n
// operations take.
func (s Setup) cycles(n int) uint64 {
	run, m := s()
	return elapsed(m, n, run)
}

// elapsed runs run(n) and returns the cycles it took on m. A failing
// operation is a bug in the harness, not an experimental outcome.
func elapsed(m *clock.Meter, n int, run func(int) error) uint64 {
	watch := m.Clock.StartWatch()
	if err := run(n); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return watch.Elapsed()
}

// repeat is the loop of n calls of op.
func repeat(op func() error) func(int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// calls is the loop of n calls through h. It loops itself, rather
// than through repeat, so the host-time rows price the call alone.
func calls(h obj.MethodHandle, args ...any) func(int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := h.Call(args...); err != nil {
				return err
			}
		}
		return nil
	}
}

// callsInto is calls with a result buffer the loop owns: the
// zero-allocation form.
func callsInto(h obj.MethodHandle, args ...any) func(int) error {
	var buf [1]any
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := h.CallInto(buf[:0], args...); err != nil {
				return err
			}
		}
		return nil
	}
}

// invokes is the loop of n calls of method by name.
func invokes(iv obj.Invoker, method string) func(int) error {
	return repeat(func() error {
		_, err := obj.Invoke(iv, method)
		return err
	})
}

// resolve returns inst's pre-resolved handle on iface.method.
func resolve(inst obj.Instance, iface, method string) obj.MethodHandle {
	iv, ok := inst.Iface(iface)
	if !ok {
		panic(fmt.Sprintf("bench: %s has no interface %s", inst.Class(), iface))
	}
	h, err := iv.Resolve(method)
	if err != nil {
		panic(err)
	}
	return h
}

// sharedCalls is the cross-domain call through one handle shared by
// every caller, on an ncpu-CPU machine.
func sharedCalls(ncpu int) Setup {
	return func() (func(int) error, *clock.Meter) {
		inc, w := newSharedCounter(ncpu)
		return calls(inc), w.K.Meter
	}
}

// emits is the loop of n flight-recorder emissions behind the probe
// gate: one instrumented call site.
func emits(m *clock.Meter) func(int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if probe.Enabled() {
				m.Emit(0, probe.KindDoorbell, 1, uint64(i), 0)
			}
		}
		return nil
	}
}

// tracing returns run, or with on set, run bracketed by m's tracing: a
// recorder for ncpu CPUs and a ledger, built once here, attached for
// the run and detached again, so the process-wide probe gate drops when
// the run returns.
func tracing(m *clock.Meter, ncpu int, on bool, run func(int) error) func(int) error {
	if !on {
		return run
	}
	rec, led := probe.NewRecorder(ncpu, 0), probe.NewLedger(clock.LedgerSlots)
	return func(n int) error {
		m.EnableTracing(rec, led)
		defer m.DisableTracing()
		return run(n)
	}
}

// Experiment is one table of the report.
type Experiment struct {
	ID  string
	Run func() Table
}

// Experiments lists every table once, in report order. Ids that start
// with P are the host-parallel series.
var Experiments = []Experiment{
	{"T1", t1Invocation},
	{"T2", t2CrossDomain},
	{"T3", t3Interrupt},
	{"T4", t4Certification},
	{"T5", t5FilterPlacement},
	{"T6", t6Reconfiguration},
	{"F1", f1Throughput},
	{"F2", f2BreakEven},
	{"F3", f3BlockingFraction},
	{"F4", f4Namespace},
	{"F5", f5TrapCostSweep},
	{"P1", p1ParallelProxyCall},
	{"P2", p2ParallelLookup},
	{"P3", p3CPUTopology},
	{"P5", p5BatchSweep},
	{"P6", p6BulkTransfer},
	{"P7", p7RingStream},
	{"P8", p8MixedTargetSweep},
	{"P9", p9ScalingSweep},
	{"P10", p10TraceOverhead},
}
