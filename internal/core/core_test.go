package core

import (
	"errors"
	"testing"

	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/repoz"
	"paramecium/internal/sandbox"
)

// testWorld is a booted kernel plus the trust infrastructure the
// tests certify components with.
type testWorld struct {
	k     *Kernel
	auth  *cert.Authority
	admin *cert.KeyCertifier
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	auth := cert.NewAuthority(1000)
	k, err := Boot(Config{AuthorityKey: auth.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	admin := cert.NewKeyCertifier("sysadmin", cert.GenerateKey(1001),
		cert.PrivKernelResident|cert.PrivDeviceAccess|cert.PrivSharedService)
	if err := k.Validator.AddDelegation(auth.Delegate("sysadmin", admin.Key().Pub,
		cert.PrivKernelResident|cert.PrivDeviceAccess|cert.PrivSharedService)); err != nil {
		t.Fatal(err)
	}
	return &testWorld{k: k, auth: auth, admin: admin}
}

// addFilterImage stores the port-7 filter in the repository,
// optionally certified.
func (w *testWorld) addFilterImage(t *testing.T, name string, certified bool) {
	t.Helper()
	prog := sandbox.MustAssemble(netstack.PortFilterProgram(7))
	img := &repoz.Image{Name: name, Kind: repoz.KindPVM, Data: prog.Encode()}
	if certified {
		c, err := w.admin.Certify(name, img.Data, cert.PrivKernelResident)
		if err != nil {
			t.Fatal(err)
		}
		img.Cert = c
	}
	if err := w.k.Repo.Add(img); err != nil {
		t.Fatal(err)
	}
}

func testFrame(port uint16) []byte {
	return netstack.BuildUDPFrame(
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.MAC{2, 0, 0, 0, 0, 2},
		netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
		999, port, []byte("data"))
}

func TestBootNucleusComposition(t *testing.T) {
	w := newWorld(t)
	if w.k.Nucleus.Origin() != obj.LinkTime {
		t.Fatal("nucleus is not a static composition")
	}
	roles := w.k.Nucleus.Roles()
	if len(roles) != 4 {
		t.Fatalf("roles = %v", roles)
	}
	// Each service is bindable through the name space.
	for _, role := range []string{"events", "memory", "directory", "certify"} {
		inst, err := w.k.RootView.Bind("/nucleus/" + role)
		if err != nil {
			t.Fatalf("bind %s: %v", role, err)
		}
		iv, ok := inst.Iface("nucleus." + role + ".v1")
		if !ok {
			t.Fatalf("%s facade missing", role)
		}
		res, err := obj.Invoke(iv, "describe")
		if err != nil || res[0].(string) != "nucleus."+role {
			t.Fatalf("describe = %v, %v", res, err)
		}
	}
}

func TestLoadFilterCertified(t *testing.T) {
	w := newWorld(t)
	w.addFilterImage(t, "portfilter", true)
	lf, err := w.k.LoadFilter("portfilter", PlaceKernelCertified)
	if err != nil {
		t.Fatal(err)
	}
	if lf.placement != PlaceKernelCertified {
		t.Fatal("placement wrong")
	}
	ok, err := lf.Accept(testFrame(7))
	if err != nil || !ok {
		t.Fatalf("accept(7) = %v, %v", ok, err)
	}
	ok, err = lf.Accept(testFrame(8))
	if err != nil || ok {
		t.Fatalf("accept(8) = %v, %v", ok, err)
	}
	// Certified placement pays no SFI checks.
	if w.k.Meter.Count(clock.OpSFICheck) != 0 {
		t.Fatal("certified filter charged SFI checks")
	}
	// It is registered in the name space.
	if _, err := w.k.RootView.Bind("/services/portfilter.kernel-certified"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFilterUncertifiedRefusedFromKernel(t *testing.T) {
	w := newWorld(t)
	w.addFilterImage(t, "rogue", false)
	if _, err := w.k.LoadFilter("rogue", PlaceKernelCertified); !errors.Is(err, ErrNotCertified) {
		t.Fatalf("uncertified kernel load: %v", err)
	}
}

func TestLoadFilterTamperedImageRefused(t *testing.T) {
	w := newWorld(t)
	w.addFilterImage(t, "tampered", true)
	img, _ := w.k.Repo.Get("tampered")
	// Tamper after certification: re-encode a modified program.
	prog := sandbox.MustAssemble(netstack.AcceptAllProgram)
	img.Data = prog.Encode()
	if _, err := w.k.LoadFilter("tampered", PlaceKernelCertified); !errors.Is(err, ErrNotCertified) {
		t.Fatalf("tampered load: %v", err)
	}
}

func TestLoadFilterSandboxed(t *testing.T) {
	w := newWorld(t)
	w.addFilterImage(t, "sfi-filter", false) // no certificate needed
	lf, err := w.k.LoadFilter("sfi-filter", PlaceKernelSandboxed)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := lf.Accept(testFrame(7))
	if err != nil || !ok {
		t.Fatalf("accept = %v, %v", ok, err)
	}
	if w.k.Meter.Count(clock.OpSFICheck) == 0 {
		t.Fatal("sandboxed filter paid no checks")
	}
}

func TestLoadFilterUser(t *testing.T) {
	w := newWorld(t)
	w.addFilterImage(t, "user-filter", false)
	lf, err := w.k.LoadFilter("user-filter", PlaceUser)
	if err != nil {
		t.Fatal(err)
	}
	before := w.k.Meter.Count(clock.OpCtxSwitch)
	ok, err := lf.Accept(testFrame(7))
	if err != nil || !ok {
		t.Fatalf("accept = %v, %v", ok, err)
	}
	// The call crossed into the filter's domain and back.
	if got := w.k.Meter.Count(clock.OpCtxSwitch) - before; got < 2 {
		t.Fatalf("context switches = %d, want >= 2", got)
	}
	if w.k.Meter.Count(clock.OpSFICheck) != 0 {
		t.Fatal("user filter charged SFI checks")
	}
}

func TestPlacementCostOrdering(t *testing.T) {
	// The paper's T5 shape: certified < sandboxed < user (per call).
	w := newWorld(t)
	w.addFilterImage(t, "f", true)
	frame := testFrame(7)

	measure := func(p Placement) uint64 {
		lf, err := w.k.LoadFilter("f", p)
		if err != nil {
			t.Fatal(err)
		}
		watch := w.k.Meter.Clock.StartWatch()
		for i := 0; i < 50; i++ {
			if _, err := lf.Accept(frame); err != nil {
				t.Fatal(err)
			}
		}
		return watch.Elapsed()
	}
	certified := measure(PlaceKernelCertified)
	sandboxed := measure(PlaceKernelSandboxed)
	user := measure(PlaceUser)
	if !(certified < sandboxed && sandboxed < user) {
		t.Fatalf("cost ordering violated: certified=%d sandboxed=%d user=%d",
			certified, sandboxed, user)
	}
}

func TestUnloadFilter(t *testing.T) {
	w := newWorld(t)
	w.addFilterImage(t, "f", false)
	lf, err := w.k.LoadFilter("f", PlaceUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.k.Unload(lf); err != nil {
		t.Fatal(err)
	}
	if _, err := w.k.RootView.Bind("/services/f.user"); err == nil {
		t.Fatal("filter still bound after unload")
	}
	// Its domain is gone.
	if w.k.Machine.MMU.HasContext(lf.domain.Ctx) {
		t.Fatal("filter domain survived unload")
	}
}

func TestDomainBindSameDomainIsDirect(t *testing.T) {
	w := newWorld(t)
	d := w.k.NewDomain("app")
	o := obj.New("local", w.k.Meter)
	if err := w.k.Register("/services/local", o, d.Ctx); err != nil {
		t.Fatal(err)
	}
	got, err := d.Bind("/services/local")
	if err != nil {
		t.Fatal(err)
	}
	if got != obj.Instance(o) {
		t.Fatal("same-domain bind returned a proxy")
	}
}

func TestDomainBindCrossDomainIsProxy(t *testing.T) {
	w := newWorld(t)
	server := w.k.NewDomain("server")
	client := w.k.NewDomain("client")

	o := obj.New("svc", w.k.Meter)
	decl := obj.MustInterfaceDecl("s.v1", obj.MethodDecl{Name: "ping", NumIn: 0, NumOut: 1})
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("ping", func(...any) ([]any, error) { return []any{"pong"}, nil })
	if err := w.k.Register("/services/svc", o, server.Ctx); err != nil {
		t.Fatal(err)
	}

	got, err := client.Bind("/services/svc")
	if err != nil {
		t.Fatal(err)
	}
	if got == obj.Instance(o) {
		t.Fatal("cross-domain bind returned the raw instance")
	}
	iv, ok := got.Iface("s.v1")
	if !ok {
		t.Fatal("proxy lost interface")
	}
	res, err := obj.Invoke(iv, "ping")
	if err != nil || res[0].(string) != "pong" {
		t.Fatalf("ping = %v, %v", res, err)
	}
	// Binding again reuses the cached proxy.
	again, err := client.Bind("/services/svc")
	if err != nil || again != got {
		t.Fatal("proxy not cached")
	}
}

func TestKernelBindToUserDomain(t *testing.T) {
	w := newWorld(t)
	d := w.k.NewDomain("app")
	o := obj.New("usersvc", w.k.Meter)
	if err := w.k.Register("/services/usersvc", o, d.Ctx); err != nil {
		t.Fatal(err)
	}
	got, err := w.k.KernelBind("/services/usersvc")
	if err != nil {
		t.Fatal(err)
	}
	if got == obj.Instance(o) {
		t.Fatal("kernel got a direct reference into a user domain")
	}
}

func TestViewOverridePerDomain(t *testing.T) {
	// Two domains bind the same path to different implementations via
	// per-domain overrides — the paper's "control the child objects it
	// will import".
	w := newWorld(t)
	real := obj.New("real", w.k.Meter)
	mock := obj.New("mock", w.k.Meter)
	if err := w.k.Register("/services/net", real, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}
	w.k.registerPlacement(mock, mmu.KernelContext)

	normal := w.k.NewDomain("normal")
	debug := w.k.NewDomain("debug")
	if err := debug.View.Override("/services/net", mock); err != nil {
		t.Fatal(err)
	}
	a, err := normal.Bind("/services/net")
	if err != nil {
		t.Fatal(err)
	}
	b, err := debug.Bind("/services/net")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("override did not isolate the debug domain")
	}
}

func TestInterposeAndUnwrap(t *testing.T) {
	w := newWorld(t)
	o := obj.New("target", w.k.Meter)
	decl := obj.MustInterfaceDecl("t.v1", obj.MethodDecl{Name: "f", NumIn: 0, NumOut: 1})
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("f", func(...any) ([]any, error) { return []any{1}, nil })
	if err := w.k.Register("/services/target", o, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}

	calls := 0
	if _, err := w.k.Interpose("/services/target", func(target obj.Instance) (obj.Instance, error) {
		ip := obj.NewInterposer("monitor", target)
		err := ip.Wrap("t.v1", "f", func(next obj.Method, args ...any) ([]any, error) {
			calls++
			return next(args...)
		})
		return ip, err
	}); err != nil {
		t.Fatal(err)
	}

	iv, err := w.k.RootView.BindInterface("/services/target", "t.v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(iv, "f"); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("monitor saw %d calls", calls)
	}

	if err := w.k.Unwrap("/services/target"); err != nil {
		t.Fatal(err)
	}
	iv, err = w.k.RootView.BindInterface("/services/target", "t.v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(iv, "f"); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("unwrap did not remove the monitor")
	}
	if err := w.k.Unwrap("/services/target"); err == nil {
		t.Fatal("double unwrap succeeded")
	}
}

// newTracedService registers a "svc" object whose work method burns
// the cycles it is passed and whose fail method always fails, then
// interposes a tracer on it.
func newTracedService(t *testing.T, k *Kernel) *probe.Tracer {
	t.Helper()
	o := obj.New("svc", k.Meter)
	bi, err := o.AddInterface(obj.MustInterfaceDecl("svc.v1",
		obj.MethodDecl{Name: "work", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "fail", NumIn: 0, NumOut: 0},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("work", func(args ...any) ([]any, error) {
		k.Meter.Clock.Advance(args[0].(uint64))
		return nil, nil
	}).MustBind("fail", func(...any) ([]any, error) {
		return nil, errors.New("deliberate")
	})
	if err := k.Register("/services/svc", o, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}
	tr, err := k.Trace("/services/svc")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracerCountsAndTimes(t *testing.T) {
	w := newWorld(t)
	tr := newTracedService(t, w.k)
	iv, err := w.k.RootView.BindInterface("/services/svc", "svc.v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := obj.Invoke(iv, "work", uint64(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.Invoke(iv, "fail"); err == nil {
		t.Fatal("fail did not fail")
	}
	st, ok := tr.Stats("svc.v1.work")
	if !ok || st.Hist.Count != 3 || st.Errors != 0 {
		t.Fatalf("work stats = %+v, %v", st, ok)
	}
	if st.Hist.Sum < 300 {
		t.Fatalf("work cycles = %d, want >= 300", st.Hist.Sum)
	}
	st, _ = tr.Stats("svc.v1.fail")
	if st.Hist.Count != 1 || st.Errors != 1 {
		t.Fatalf("fail stats = %+v", st)
	}
	if _, ok := tr.Stats("svc.v1.missing"); ok {
		t.Fatal("phantom stats")
	}
}

// TestTracerTransparency: the traced object behaves as the original,
// and calls through the tracer bill what direct calls do.
func TestTracerTransparency(t *testing.T) {
	w := newWorld(t)
	newTracedService(t, w.k)
	agent, err := w.k.RootView.Bind("/services/svc")
	if err != nil {
		t.Fatal(err)
	}
	if agent.Class() != "svc-tracer" {
		t.Fatalf("class = %q", agent.Class())
	}
	names := agent.InterfaceNames()
	if len(names) != 1 || names[0] != "svc.v1" {
		t.Fatalf("interfaces = %v", names)
	}
	iv, _ := agent.Iface("svc.v1")
	if _, err := obj.Invoke(iv, "work", uint64(1), 2); err == nil {
		t.Fatal("arity check lost through tracer")
	}
	raw, _ := agent.(*obj.Interposer).Target().Iface("svc.v1")
	cost := func(iv obj.Invoker) uint64 {
		watch := w.k.Meter.Clock.StartWatch()
		if _, err := obj.Invoke(iv, "work", uint64(10)); err != nil {
			t.Fatal(err)
		}
		return watch.Elapsed()
	}
	if traced, direct := cost(iv), cost(raw); traced != direct {
		t.Fatalf("traced call billed %d cycles, direct call %d", traced, direct)
	}
}

func TestConstructNativeComponent(t *testing.T) {
	w := newWorld(t)
	img := &repoz.Image{Name: "alloc", Kind: repoz.KindNative, Data: []byte("cfg")}
	c, err := w.admin.Certify("alloc", img.Data, cert.PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	img.Cert = c
	if err := w.k.Repo.Add(img); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Repo.RegisterConstructor("alloc", func(data []byte) (obj.Instance, error) {
		return obj.New("alloc", w.k.Meter), nil
	}); err != nil {
		t.Fatal(err)
	}
	inst, ctx, err := w.k.construct("alloc", "/services/alloc", true)
	if err != nil {
		t.Fatal(err)
	}
	if ctx != mmu.KernelContext {
		t.Fatalf("ctx = %d", ctx)
	}
	if inst.Class() != "alloc" {
		t.Fatal("wrong instance")
	}
}

func TestConstructUncertifiedNativeRefusedFromKernel(t *testing.T) {
	w := newWorld(t)
	if err := w.k.Repo.Add(&repoz.Image{Name: "x", Kind: repoz.KindNative}); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Repo.RegisterConstructor("x", func([]byte) (obj.Instance, error) {
		return obj.New("x", nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.k.construct("x", "/services/x", true); !errors.Is(err, ErrNotCertified) {
		t.Fatalf("uncertified native kernel load: %v", err)
	}
	// User placement works without a certificate.
	if _, ctx, err := w.k.construct("x", "/services/x", false); err != nil || ctx == mmu.KernelContext {
		t.Fatalf("user construct = ctx %d, %v", ctx, err)
	}
}

func TestDestroyDomain(t *testing.T) {
	w := newWorld(t)
	d := w.k.NewDomain("doomed")
	ctx := d.Ctx
	if err := w.k.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
	if w.k.Machine.MMU.HasContext(ctx) {
		t.Fatal("context survived")
	}
	if err := w.k.DestroyDomain(d); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("double destroy: %v", err)
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceKernelCertified.String() != "kernel-certified" ||
		PlaceKernelSandboxed.String() != "kernel-sandboxed" ||
		PlaceUser.String() != "user" {
		t.Fatal("placement names")
	}
	if Placement(9).String() != "placement(9)" {
		t.Fatal("unknown placement name")
	}
}

func TestEndToEndSharedStackWithFilterPlacements(t *testing.T) {
	// The full scenario: a shared protocol stack in the kernel, one
	// filter per placement, frames flowing end to end.
	w := newWorld(t)
	w.addFilterImage(t, "portfilter", true)

	lfCert, err := w.k.LoadFilter("portfilter", PlaceKernelCertified)
	if err != nil {
		t.Fatal(err)
	}

	// A stack fed directly (no device needed for this test).
	drv := obj.New("nulldrv", w.k.Meter)
	bi, err := drv.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("send", func(...any) ([]any, error) { return nil, nil }).
		MustBind("recv", func(...any) ([]any, error) { return []any{[]byte(nil)}, nil }).
		MustBind("stats", func(...any) ([]any, error) { return []any{uint64(0), uint64(0), uint64(0)}, nil })
	drvIv, _ := drv.Iface("paramecium.netdev.v1")

	stack, err := netstack.NewStack("stack", w.k.Meter, drvIv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.k.Register("/shared/network", stack, mmu.KernelContext); err != nil {
		t.Fatal(err)
	}
	stack.AttachFilter(lfCert)

	ep, err := stack.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	stack.Deliver(testFrame(7))
	stack.Deliver(testFrame(9)) // filtered out
	if _, ok := ep.Recv(); !ok {
		t.Fatal("endpoint has no datagram")
	}
	if _, ok := ep.Recv(); ok {
		t.Fatal("endpoint has a second datagram")
	}
	st := stack.Stats()
	if st.Delivered != 1 || st.Filtered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
