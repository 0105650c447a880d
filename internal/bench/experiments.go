package bench

import (
	"fmt"
	"sync/atomic"

	"paramecium/internal/baseline"
	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/names"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/threads"
)

const iters = 200

// counterDecl is a minimal interface used by the invocation
// experiments.
var counterDecl = obj.MustInterfaceDecl("bench.counter.v1",
	obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1},
)

// newCounter builds the metered counter object T1 calls.
func newCounter(w *World) *obj.Object {
	o := obj.New("counter", w.K.Meter)
	n := 0
	bi, err := o.AddInterface(counterDecl, &n)
	if err != nil {
		panic(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) {
		n++
		return []any{n}, nil
	})
	return o
}

// localDecl is the meterless counter's interface: inc counts, add adds
// its argument.
var localDecl = obj.MustInterfaceDecl("bench.local.v1",
	obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1},
	obj.MethodDecl{Name: "add", NumIn: 1, NumOut: 1},
)

// newLocalCounter builds the meterless counter of the host-only
// invocation rows, which measure host dispatch cost alone. Both
// methods are bound in the buffer-threading form and return the
// counter's state pointer — the paper's interfaces are "methods, state
// pointers and type information" — so a caller that supplies the
// result buffer completes an invocation with zero allocations. The
// count is atomic, so the parallel row can share one counter.
func newLocalCounter() *obj.Object {
	o := obj.New("counter", nil)
	n := new(atomic.Int64)
	bi, err := o.AddInterface(localDecl, n)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
		n.Add(1)
		return append(out, n), nil
	}).MustBindInto("add", func(out []any, args ...any) ([]any, error) {
		n.Add(int64(args[0].(int)))
		return append(out, n), nil
	})
	return o
}

// t1Invocation measures method invocation overhead: direct procedure
// call, object interface call, delegated call, and interposer chains
// of depth 1–4.
func t1Invocation() Table {
	t := Table{
		ID:     "T1",
		Title:  "Method invocation overhead (cycles/call)",
		Claim:  `"a method invocation is usually just a procedure call ... we expect the overhead to be relatively low" (§2)`,
		Header: []string{"variant", "cycles/call", "vs direct"},
	}
	w := NewWorld()

	// Direct procedure call: the compiler-level baseline.
	direct := perOp(w, iters, repeat(func() error {
		w.K.Meter.ChargeFor(clock.KernelDomain, clock.OpCall)
		return nil
	}))

	o := newCounter(w)
	iv, _ := o.Iface("bench.counter.v1")
	ifaceCall := perOp(w, iters, invokes(iv, "inc"))

	// Pre-resolved handle: same virtual cost as string invocation (the
	// cost model charges the indirect call, not the lookup), but the
	// host-machine lookup and lock disappear — see BenchmarkInvoke*.
	handleCall := perOp(w, iters, calls(resolve(o, "bench.counter.v1", "inc")))

	// Delegated: front object forwards to the backend through a handle
	// resolved at delegation time.
	front := obj.New("front", w.K.Meter)
	if _, err := front.AddInterface(counterDecl, nil); err != nil {
		panic(err)
	}
	if err := front.Delegate("bench.counter.v1", o); err != nil {
		panic(err)
	}
	delegated := perOp(w, iters, calls(resolve(front, "bench.counter.v1", "inc")))

	t.AddRow("direct procedure call", direct, "1.0x")
	t.AddRow("interface invocation", ifaceCall, ratio(ifaceCall, direct))
	t.AddRow("pre-resolved handle", handleCall, ratio(handleCall, direct))
	t.AddRow("delegated invocation", delegated, ratio(delegated, direct))

	// Interposer chains, each depth calling through a fresh handle.
	var target obj.Instance = o
	for depth := 1; depth <= 4; depth++ {
		ip := obj.NewInterposer(fmt.Sprintf("mon%d", depth), target)
		ip.SetMeter(w.K.Meter)
		if err := ip.Wrap("bench.counter.v1", "inc", func(next obj.Method, args ...any) ([]any, error) {
			return next(args...)
		}); err != nil {
			panic(err)
		}
		target = ip
		c := perOp(w, iters, calls(resolve(target, "bench.counter.v1", "inc")))
		t.AddRow(fmt.Sprintf("interposed depth %d", depth), c, ratio(c, direct))
	}
	return t
}

func ratio(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// newEcho registers an echo server in a server domain and returns its
// same-domain handle and a client domain's cross-domain handle on it.
func newEcho(w *World) (local, remote obj.MethodHandle) {
	decl := obj.MustInterfaceDecl("bench.echo.v1",
		obj.MethodDecl{Name: "echo", NumIn: 1, NumOut: 1})
	server := obj.New("echo", w.K.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("echo", func(args ...any) ([]any, error) { return []any{args[0]}, nil })
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	remote = w.export("/services/echo", server, serverDom, clientDom, "bench.echo.v1", "echo")
	return resolve(server, "bench.echo.v1", "echo"), remote
}

// t2CrossDomain compares invocation across protection regimes for a
// range of argument sizes: same-domain interface call, Paramecium
// fault-driven proxy, and the monolithic kernel's trap-per-call path.
func t2CrossDomain() Table {
	t := Table{
		ID:     "T2",
		Title:  "Cross-domain invocation (cycles/call)",
		Claim:  `cross-domain calls are "implemented using per page fault-handlers" (§3)`,
		Header: []string{"arg bytes", "same-domain", "proxy cross-domain", "monolith syscall"},
	}
	w := NewWorld()
	local, remote := newEcho(w)

	mono := baseline.New(w.K.Machine)
	if err := mono.AddService("echo", func(args ...any) ([]any, error) {
		return []any{args[0]}, nil
	}); err != nil {
		panic(err)
	}
	mono.Seal()

	for _, size := range []int{0, 64, 1024, 4096} {
		arg := make([]byte, size)
		lc := perOp(w, iters, calls(local, arg))
		pc := perOp(w, iters, calls(remote, arg))
		mc := perOp(w, iters, repeat(func() error {
			_, err := mono.Syscall("echo", arg)
			return err
		}))
		t.AddRow(size, lc, pc, mc)
	}
	t.Notes = append(t.Notes,
		"proxy pays trap + fault decode + 2 context switches + arg/result copy; the monolith pays trap + copy only, but cannot relocate the service")
	return t
}

// interruptRig is a machine, a scheduler and an event service with IRQ
// 3 bound under one dispatch policy, routed to the boot CPU.
type interruptRig struct {
	machine *hw.Machine
	sched   *threads.Scheduler
	mtx     *threads.Mutex
	q       *threads.Queue
	// block makes the handler take the rig's mutex, so it blocks while
	// holdMutex has parked a holder.
	block bool
}

// newInterruptRig binds IRQ 3 under dispatch policy d, routed to the
// boot CPU, where every interrupt of these experiments arrives. A
// thread-free handler does nothing and never needs a thread; otherwise
// the handler takes its thread and, while the rig's block is set, the
// rig's mutex.
func newInterruptRig(d event.Dispatch, threadFree bool) *interruptRig {
	machine := hw.New(hw.Config{PhysFrames: 16})
	sched := threads.NewScheduler(machine.Meter)
	events := event.New(machine, sched)
	q, err := threads.NewQueue(sched, 1)
	if err != nil {
		panic(err)
	}
	r := &interruptRig{machine: machine, sched: sched, mtx: threads.NewMutex(sched), q: q}
	if threadFree {
		err = events.RegisterThreadFreeIRQOn(3, "bench", mmu.KernelContext, d, mmu.BootCPU, func(hw.TrapFrame) {})
	} else {
		err = events.RegisterIRQOn(3, "bench", mmu.KernelContext, d, mmu.BootCPU, func(_ hw.TrapFrame, th *threads.Thread) {
			if r.block && th != nil {
				r.mtx.Lock(th)
				r.mtx.Unlock(th)
			}
		})
	}
	if err != nil {
		panic(err)
	}
	return r
}

// interrupts is the rig's loop: n interrupts to the boot CPU, then the
// system run to idle.
func interrupts(d event.Dispatch, threadFree bool) Setup {
	return func() (func(int) error, *clock.Meter) {
		r := newInterruptRig(d, threadFree)
		return r.raise, r.machine.Meter
	}
}

// raise delivers n interrupts to the boot CPU, then runs the system to
// idle.
func (r *interruptRig) raise(n int) error {
	for i := 0; i < n; i++ {
		if err := r.machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
			return err
		}
	}
	r.sched.RunUntilIdle()
	return nil
}

// holdMutex parks a thread holding the rig's mutex, so the next
// handler that takes it must block and promote.
func (r *interruptRig) holdMutex() {
	r.sched.Spawn("holder", func(th *threads.Thread) {
		r.mtx.Lock(th)
		r.q.Pop(th)
		r.mtx.Unlock(th)
	})
	r.sched.RunUntilIdle()
}

// raiseBlocked delivers one interrupt to the boot CPU while
// holdMutex's holder is parked, then lets the holder go and runs the
// system to idle.
func (r *interruptRig) raiseBlocked() error {
	if err := r.machine.RaiseIRQOn(3, mmu.BootCPU); err != nil {
		return err
	}
	r.q.TryPush(struct{}{})
	r.sched.RunUntilIdle()
	return nil
}

// t3Interrupt measures interrupt-to-completion cost per dispatch
// policy, including the promotion path. Every interrupt arrives on
// the boot CPU.
func t3Interrupt() Table {
	t := Table{
		ID:     "T3",
		Title:  "Interrupt handling cost (cycles/event)",
		Claim:  `proto-threads give "fast interrupt processing of user code with proper thread semantics" (§3)`,
		Header: []string{"dispatch", "handler", "cycles/event"},
	}
	perEvent := func(name string) uint64 { return find(name).Setup.cycles(iters) / iters }
	r := newInterruptRig(event.DispatchProto, false)
	r.block = true
	var promoted uint64
	for i := 0; i < iters; i++ {
		r.holdMutex()
		watch := r.machine.Meter.Clock.StartWatch()
		if err := r.raiseBlocked(); err != nil {
			panic(err)
		}
		promoted += watch.Elapsed()
	}
	t.AddRow("raw call-back", "non-blocking", perEvent("P11_InterruptPath/path=raw"))
	t.AddRow("proto-thread", "non-blocking (runs inline)", perEvent("T3_Interrupt"))
	t.AddRow("proto-thread", "blocking (promoted)", promoted/iters)
	t.AddRow("eager pop-up thread", "non-blocking", perEvent("F3_BlockingFraction"))
	t.Notes = append(t.Notes,
		"proto non-blocking ~ raw + proto-thread cost; promotion pays thread creation only when the handler actually blocks")
	return t
}

// certifiedImage returns a pseudo-random image of size bytes and its
// kernel-residence certificate.
func certifiedImage(w *World, size int) ([]byte, *cert.Certificate) {
	image := make([]byte, size)
	clock.NewRand(uint64(size)).Bytes(image)
	c, err := w.Admin.Certify("img", image, cert.PrivKernelResident)
	if err != nil {
		panic(err)
	}
	return image, c
}

// validates is the loop of n validations of image against c. A cold
// loop empties the validator's cache before each, so each pays the
// digest and the signature check.
func validates(w *World, image []byte, c *cert.Certificate, cold bool) func(int) error {
	return repeat(func() error {
		if cold {
			w.K.Validator.InvalidateCache()
		}
		return w.K.Validator.Validate(image, c, cert.PrivKernelResident)
	})
}

// t4Certification measures load-time validation: image size sweep,
// cache effect, and delegation chain registration by depth.
func t4Certification() Table {
	t := Table{
		ID:     "T4",
		Title:  "Certificate validation cost (cycles)",
		Claim:  `"certificates include a message digest of the component ... validated by the kernel" (§3, §4); cached: "it does not require any further software checks" (§4)`,
		Header: []string{"case", "parameter", "cycles"},
	}
	w := NewWorld()
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		image, c := certifiedImage(w, size)
		cold := perOp(w, 1, validates(w, image, c, true))
		warm := perOp(w, 1, validates(w, image, c, false))
		t.AddRow("validate (cold)", fmt.Sprintf("%d KiB image", size/1024), cold)
		t.AddRow("validate (cached)", fmt.Sprintf("%d KiB image", size/1024), warm)
	}

	// Delegation chains: registration cost by depth.
	for depth := 1; depth <= 4; depth++ {
		w2 := NewWorld()
		keys := make([]cert.KeyPair, depth)
		for i := range keys {
			keys[i] = cert.GenerateKey(uint64(4000 + i))
		}
		watch := w2.K.Meter.Clock.StartWatch()
		parent := w2.Auth.Delegate("d0", keys[0].Pub, cert.PrivKernelResident)
		if err := w2.K.Validator.AddDelegation(parent); err != nil {
			panic(err)
		}
		for i := 1; i < depth; i++ {
			d := cert.SubDelegate(parent, keys[i-1], fmt.Sprintf("d%d", i), keys[i].Pub, cert.PrivKernelResident)
			if err := w2.K.Validator.AddDelegation(d); err != nil {
				panic(err)
			}
			parent = d
		}
		t.AddRow("register delegation chain", fmt.Sprintf("depth %d", depth), watch.Elapsed())
	}
	return t
}

// accepts is the loop of n filter decisions of lf on frame.
func accepts(lf *core.LoadedFilter, frame []byte) func(int) error {
	return repeat(func() error {
		_, err := lf.Accept(frame)
		return err
	})
}

// t5FilterPlacement measures per-packet filter cost across the three
// Paramecium placements and the monolith's fixed path.
func t5FilterPlacement() Table {
	t := Table{
		ID:     "T5",
		Title:  "Packet filter placement (cycles/packet)",
		Claim:  `"verifying a certificate at load-time obviates the need for run time fault checks thus allowing components to be more efficient" (§5)`,
		Header: []string{"placement", "cycles/packet", "vs certified"},
	}
	w := NewWorld()
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)
	f := frame(7, 256)

	costs := map[string]uint64{}
	for _, p := range []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser} {
		costs[p.String()] = perOp(w, iters, accepts(w.load("portfilter", p), f))
	}

	mono := baseline.New(w.K.Machine)
	mono.Seal()
	path := baseline.NewNetPath(mono, 7)
	costs["monolith fixed path"] = perOp(w, iters, repeat(func() error {
		path.Deliver(f)
		return nil
	}))

	certified := costs[core.PlaceKernelCertified.String()]
	for _, name := range []string{
		core.PlaceKernelCertified.String(),
		core.PlaceKernelSandboxed.String(),
		"monolith fixed path",
		core.PlaceUser.String(),
	} {
		t.AddRow(name, costs[name], ratio(costs[name], certified))
	}
	t.Notes = append(t.Notes,
		"the monolith's path is native (no interpretation) but admits no application filters; Paramecium certified matches its structure while staying extensible")
	return t
}

// binds is the loop of n binds of path through v.
func binds(v *names.View, path string) func(int) error {
	return repeat(func() error {
		_, err := v.Bind(path)
		return err
	})
}

// t6Reconfiguration measures the dynamic-configuration primitives.
func t6Reconfiguration() Table {
	t := Table{
		ID:     "T6",
		Title:  "Reconfiguration primitives (cycles/op)",
		Claim:  `"late binding and dynamic loading to instantiate components at run time" (§1); interposition "is trivial" (§2)`,
		Header: []string{"operation", "cycles"},
	}
	w := NewWorld()
	w.AddPVM("f", netstack.PortFilterProgram(7), true)

	watch := w.K.Meter.Clock.StartWatch()
	lf := w.load("f", core.PlaceKernelCertified)
	t.AddRow("dynamic load (cold, incl. validation)", watch.Elapsed())
	if err := w.K.Unload(lf); err == nil {
		watch = w.K.Meter.Clock.StartWatch()
		w.load("f", core.PlaceKernelCertified)
		t.AddRow("dynamic load (warm, cached validation)", watch.Elapsed())
	}

	path := "/services/f." + core.PlaceKernelCertified.String()
	t.AddRow("name-space bind", perOp(w, iters, binds(w.K.RootView, path)))

	watch = w.K.Meter.Clock.StartWatch()
	if _, err := w.K.Interpose(path, func(target obj.Instance) (obj.Instance, error) {
		return obj.NewInterposer("monitor", target), nil
	}); err != nil {
		panic(err)
	}
	t.AddRow("interpose (handle replacement)", watch.Elapsed())

	watch = w.K.Meter.Clock.StartWatch()
	if err := w.K.Unwrap(path); err != nil {
		panic(err)
	}
	t.AddRow("unwrap interposer", watch.Elapsed())

	dom := w.K.NewDomain("app")
	mock := obj.New("mock", w.K.Meter)
	watch = w.K.Meter.Clock.StartWatch()
	if err := dom.View.Override(path, mock); err != nil {
		panic(err)
	}
	t.AddRow("install per-domain override", watch.Elapsed())
	return t
}

// filteredStack builds a network stack bound to port 7 over an empty
// driver, with the repository's port filter loaded at placement p.
// Frames are fed to the stack by Deliver, so the driver is never
// called.
func filteredStack(w *World, p core.Placement) *netstack.Stack {
	drv := obj.New("nulldrv", w.K.Meter)
	bi, err := drv.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3},
	), nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("send", func(...any) ([]any, error) { return nil, nil }).
		MustBind("recv", func(...any) ([]any, error) { return []any{[]byte(nil)}, nil }).
		MustBind("stats", func(...any) ([]any, error) { return []any{uint64(0), uint64(0), uint64(0)}, nil })
	iv, _ := drv.Iface("paramecium.netdev.v1")
	stack, err := netstack.NewStack("stack-"+p.String(), w.K.Meter, iv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		panic(err)
	}
	stack.AttachFilter(w.load("portfilter", p))
	if _, err := stack.Bind(7); err != nil {
		panic(err)
	}
	return stack
}

// delivers is the loop of n deliveries of frame up stack's receive
// path.
func delivers(stack *netstack.Stack, frame []byte) func(int) error {
	return repeat(func() error {
		stack.Deliver(frame)
		return nil
	})
}

// f1Throughput derives delivered-vs-offered curves for the three
// filter placements from measured per-packet full-path cost
// (filter + stack parse + demux).
func f1Throughput() Table {
	t := Table{
		ID:     "F1",
		Title:  "Delivered throughput vs offered load (packets per Mcycle)",
		Claim:  `shared-driver motivation: application filters in a shared network driver (§1)`,
		Header: []string{"offered", "certified", "sandboxed", "user-level"},
	}
	w := NewWorld()
	w.AddPVM("portfilter", netstack.PortFilterProgram(7), true)

	// Measure the full receive path per placement: filter + parse.
	perPacket := map[core.Placement]uint64{}
	for _, p := range []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser} {
		perPacket[p] = perOp(w, iters, delivers(filteredStack(w, p), frame(7, 256)))
	}

	// Saturation curve: delivered = min(offered, capacity). Offered
	// rates span from below the slowest placement's capacity (all
	// keep up) to beyond the fastest's (all saturated).
	capacity := func(p core.Placement) float64 { return 1e6 / float64(perPacket[p]) }
	userCap := capacity(core.PlaceUser)
	certCap := capacity(core.PlaceKernelCertified)
	offeredRates := []float64{
		0.5 * userCap, 0.9 * userCap, 1.5 * userCap,
		0.9 * capacity(core.PlaceKernelSandboxed),
		0.9 * certCap, 1.2 * certCap,
	}
	for _, offered := range offeredRates {
		row := []any{offered}
		for _, p := range []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser} {
			row = append(row, min(offered, capacity(p)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured per-packet cycles: certified=%d sandboxed=%d user=%d",
			perPacket[core.PlaceKernelCertified], perPacket[core.PlaceKernelSandboxed], perPacket[core.PlaceUser]),
		"delivered = min(offered, 1e6/per-packet): each placement saturates at its measured capacity")
	return t
}

// f2BreakEven computes the invocation count at which paying the
// one-time certification validation beats per-call SFI overhead, as a
// function of filter complexity.
func f2BreakEven() Table {
	t := Table{
		ID:     "F2",
		Title:  "Certification break-even vs filter complexity",
		Claim:  `certification "is efficient ... all run time checks can then be omitted" (§4)`,
		Header: []string{"filter work (bytes summed)", "validate cycles", "cert cycles/pkt", "sfi cycles/pkt", "break-even packets"},
	}
	f := frame(7, 1024)
	for _, work := range []int{0, 64, 256, 1024} {
		w := NewWorld()
		src := netstack.PortFilterProgram(7)
		if work > 0 {
			src = netstack.WorkFilterProgram(7, work)
		}
		w.AddPVM("f", src, true)

		img, err := w.K.Repo.Get("f")
		if err != nil {
			panic(err)
		}
		validate := perOp(w, 1, validates(w, img.Data, img.Cert, false))
		w.K.Validator.InvalidateCache()

		lfC := w.load("f", core.PlaceKernelCertified)
		lfS := w.load("f", core.PlaceKernelSandboxed)
		certCost := perOp(w, iters, accepts(lfC, f))
		sfiCost := perOp(w, iters, accepts(lfS, f))

		breakEven := "never"
		if sfiCost > certCost {
			breakEven = fmt.Sprint(validate/(sfiCost-certCost) + 1)
		}
		t.AddRow(work, validate, certCost, sfiCost, breakEven)
	}
	t.Notes = append(t.Notes,
		"break-even = validation cycles / per-packet saving; more filter work per packet amortizes certification sooner")
	return t
}

// f3BlockingFraction measures interrupt cost for proto vs eager
// dispatch as the fraction of handlers that block varies.
func f3BlockingFraction() Table {
	t := Table{
		ID:     "F3",
		Title:  "Interrupt cost vs blocking fraction (cycles/event)",
		Claim:  `"only when the proto-thread is about to block or be rescheduled do we turn it into a real thread" (§3)`,
		Header: []string{"% handlers blocking", "proto-thread", "eager pop-up", "proto saving"},
	}
	const events = 100
	for _, pct := range []int{0, 25, 50, 75, 100} {
		proto := blockingMix(event.DispatchProto, pct, events)
		eager := blockingMix(event.DispatchEager, pct, events)
		saving := "-"
		if eager > proto {
			saving = fmt.Sprintf("%.0f%%", 100*float64(eager-proto)/float64(eager))
		}
		t.AddRow(pct, proto, eager, saving)
	}
	t.Notes = append(t.Notes,
		"proto wins by the full thread-creation cost on non-blocking events and converges toward eager as every handler blocks")
	return t
}

// blockingMix delivers events to the boot CPU, of which pct% block on
// a held mutex, returning average cycles per event.
func blockingMix(d event.Dispatch, pct, events int) uint64 {
	r := newInterruptRig(d, false)
	rand := clock.NewRand(42)
	watch := r.machine.Meter.Clock.StartWatch()
	for i := 0; i < events; i++ {
		r.block = rand.Intn(100) < pct
		var err error
		if r.block {
			// Park a holder so a blocking handler really blocks.
			r.holdMutex()
			err = r.raiseBlocked()
		} else {
			err = r.raise(1)
		}
		if err != nil {
			panic(err)
		}
	}
	return watch.Elapsed() / uint64(events)
}

// deepPath is the depth-4 path the F4 and P2 rows bind.
const deepPath = "/a/b/c/d"

// deepLeaf boots a world with a leaf object registered at deepPath.
func deepLeaf() *World {
	w := NewWorld()
	if err := w.K.Space.Register(deepPath, obj.New("leaf", w.K.Meter)); err != nil {
		panic(err)
	}
	return w
}

// deepBind is a bind of deepPath through the root view.
func deepBind() (func(int) error, *clock.Meter) {
	w := deepLeaf()
	return binds(w.K.RootView, deepPath), w.K.Meter
}

// f4Namespace measures lookup cost vs path depth and override/alias
// configurations.
func f4Namespace() Table {
	t := Table{
		ID:     "F4",
		Title:  "Name-space lookup cost (cycles/bind)",
		Claim:  `instance naming and overrides make reconfiguration cheap (§2)`,
		Header: []string{"case", "cycles/bind"},
	}
	w := NewWorld()
	target := obj.New("leaf", w.K.Meter)

	// pathAt builds a non-overlapping path of the given depth:
	// /n<depth>/c0/c1/... (depth components total).
	pathAt := func(depth int) string {
		path := fmt.Sprintf("/n%d", depth)
		for i := 1; i < depth; i++ {
			path += fmt.Sprintf("/c%d", i)
		}
		return path
	}
	for _, depth := range []int{1, 2, 4, 8} {
		path := pathAt(depth)
		if err := w.K.Space.Register(path, target); err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprintf("depth %d, direct", depth), perOp(w, iters, binds(w.K.RootView, path)))
	}

	// Override hit: constant cost regardless of path depth.
	deep := pathAt(8)
	v := w.K.RootView.Child()
	if err := v.Override(deep, target); err != nil {
		panic(err)
	}
	t.AddRow("depth 8, override hit", perOp(w, iters, binds(v, deep)))

	// Alias chain: one redirect then the real lookup.
	v2 := w.K.RootView.Child()
	if err := v2.Alias("/short", pathAt(1)); err != nil {
		panic(err)
	}
	t.AddRow("alias -> depth 1", perOp(w, iters, binds(v2, "/short")))
	return t
}

// noopCall is a cross-domain call to a method with no arguments and no
// results, on the default cost model.
func noopCall() (func(int) error, *clock.Meter) {
	w := NewWorld()
	decl := obj.MustInterfaceDecl("bench.noop.v1", obj.MethodDecl{Name: "noop", NumIn: 0, NumOut: 0})
	server := obj.New("noop", w.K.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("noop", func(...any) ([]any, error) { return nil, nil })
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	return calls(w.export("/services/noop", server, serverDom, clientDom, "bench.noop.v1", "noop")), w.K.Meter
}

// f5TrapCostSweep is the ablation: cross-domain proxy call cost as the
// hardware trap and context-switch costs vary, plus the
// TLB-flush-on-switch configuration.
func f5TrapCostSweep() Table {
	t := Table{
		ID:     "F5",
		Title:  "Proxy call cost vs hardware cost model (cycles/call)",
		Claim:  `fault-driven proxies inherit the hardware's trap/switch costs (§3, ablation)`,
		Header: []string{"trap cost", "ctx-switch cost", "tlb", "cycles/call"},
	}
	for _, trapCost := range []uint64{60, 120, 300, 600} {
		for _, switchCost := range []uint64{100, 200, 400} {
			for _, flush := range []bool{false, true} {
				costs := clock.DefaultCosts().
					WithCost(clock.OpTrapEnter, trapCost).
					WithCost(clock.OpCtxSwitch, switchCost)
				c := measureProxyCall(costs, flush)
				tlb := "asid"
				if flush {
					tlb = "flush"
				}
				t.AddRow(trapCost, switchCost, tlb, c)
			}
		}
	}
	t.Notes = append(t.Notes,
		"rows sweep the simulated SPARC's privileged-operation costs; flush = TLB flushed on every context switch (no ASIDs), which adds refill misses to every call that touches domain memory")
	return t
}

// measureProxyCall builds a two-domain service under the given cost
// model and measures one cross-domain call that also touches a page of
// domain memory (so TLB policy matters). The server's touch goes
// through the boot CPU deliberately: this single-CPU experiment sweeps
// trap/switch/TLB costs, and one fixed TLB keeps the refill pattern
// comparable across cost models.
func measureProxyCall(costs clock.CostModel, flushOnSwitch bool) uint64 {
	w := newWorld(core.Config{Machine: hw.Config{
		PhysFrames: 64,
		Costs:      &costs,
		MMU:        mmu.Config{FlushOnSwitch: flushOnSwitch, TLBSize: 16},
	}})
	k := w.K
	serverDom := k.NewDomain("server")
	clientDom := k.NewDomain("client")

	// Server touches its own memory per call (a page of state).
	if err := k.Mem.AllocPageOn(mmu.BootCPU, serverDom.Ctx, 0x10000, mmu.PermRead|mmu.PermWrite); err != nil {
		panic(err)
	}
	decl := obj.MustInterfaceDecl("bench.touch.v1", obj.MethodDecl{Name: "touch", NumIn: 0, NumOut: 0})
	server := obj.New("toucher", k.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 64)
	bi.MustBind("touch", func(...any) ([]any, error) {
		return nil, k.Machine.LoadOn(mmu.BootCPU, serverDom.Ctx, 0x10000, buf)
	})
	touch := calls(w.export("/services/touch", server, serverDom, clientDom, "bench.touch.v1", "touch"))
	// Warm up, then measure.
	if err := touch(1); err != nil {
		panic(err)
	}
	return perOp(w, iters, touch)
}
