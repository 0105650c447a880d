// Tests and runnable examples for the public embedding API. This file
// imports only the paramecium and paramecium/api packages, so it
// doubles as proof that the public surface is self-sufficient.
package paramecium_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium"
	"paramecium/api"
)

// ExampleBoot boots a system, defines a component as an object with a
// named interface, registers it in the name space, and calls it from
// an application domain across the protection boundary.
func ExampleBoot() {
	sys, err := paramecium.Boot()
	if err != nil {
		panic(err)
	}
	decl := api.MustInterfaceDecl("example.adder.v1",
		api.MethodDecl{Name: "add", NumIn: 2, NumOut: 1})
	adder := sys.NewObject("adder")
	bi, err := adder.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("add", func(args ...any) ([]any, error) {
		return []any{args[0].(int) + args[1].(int)}, nil
	})
	if err := sys.Register("/services/adder", adder); err != nil {
		panic(err)
	}

	app := sys.NewDomain("app")
	h, err := app.Bind("/services/adder")
	if err != nil {
		panic(err)
	}
	res, err := h.Invoke("example.adder.v1", "add", 2, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("2 + 3 =", res[0])
	// Output: 2 + 3 = 5
}

// ExampleHandle_Resolve shows the bind-once / invoke-many fast path:
// a method is resolved to a handle once, then called repeatedly with
// no per-call name lookup. The handle tracks the slot, so rebinding
// the method later is still observed — late binding is preserved.
func ExampleHandle_Resolve() {
	sys, err := paramecium.Boot()
	if err != nil {
		panic(err)
	}
	decl := api.MustInterfaceDecl("example.counter.v1",
		api.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	counter := sys.NewObject("counter")
	n := 0
	bi, err := counter.AddInterface(decl, &n)
	if err != nil {
		panic(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) { n++; return []any{n}, nil })
	if err := sys.Register("/services/counter", counter); err != nil {
		panic(err)
	}

	h, err := sys.Bind("/services/counter")
	if err != nil {
		panic(err)
	}
	inc, err := h.Resolve("example.counter.v1", "inc")
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := inc.Call(); err != nil {
			panic(err)
		}
	}
	res, _ := inc.Call()
	fmt.Println("count =", res[0])

	// Rebind the slot; the live handle sees the new implementation.
	bi.MustBind("inc", func(...any) ([]any, error) { return []any{-1}, nil })
	res, _ = inc.Call()
	fmt.Println("after rebind =", res[0])
	// Output:
	// count = 4
	// after rebind = -1
}

// TestInvokeHandleErrorAgreement is the contract of the one by-name
// path: Handle.Invoke is Resolve then Call, so through every kind of
// Invoker a call by name and a call through a pre-resolved handle
// return the same results, fail with the same sentinel errors
// (undeclared method, unbound slot, wrong argument or result arity)
// and charge the same virtual cycles. An undeclared method fails in
// Resolve, before anything is charged, interposers included.
func TestInvokeHandleErrorAgreement(t *testing.T) {
	const path = "/services/probe"
	decl := api.MustInterfaceDecl("test.v1",
		api.MethodDecl{Name: "ok", NumIn: 1, NumOut: 1},
		api.MethodDecl{Name: "unbound", NumIn: 0, NumOut: 0},
		api.MethodDecl{Name: "liar", NumIn: 0, NumOut: 2},
	)
	// Each path registers the probe object at path and returns a
	// handle that reaches it through one kind of Invoker.
	var tracer *api.Tracer
	interpose := func(sys *paramecium.System, wrap bool) (*paramecium.Handle, error) {
		return sys.Interpose(path, func(target api.Instance) (api.Instance, error) {
			ip := sys.NewInterposer("probe-agent", target)
			if wrap {
				err := ip.Wrap("test.v1", "ok", func(next api.Method, args ...any) ([]any, error) {
					res, err := next(args...)
					if err != nil {
						return nil, err
					}
					return []any{res[0].(int) + 1}, nil
				})
				return ip, err
			}
			return ip, nil
		})
	}
	paths := []struct {
		name string
		bind func(sys *paramecium.System, o *api.Object) (*paramecium.Handle, error)
	}{
		{"object", func(sys *paramecium.System, o *api.Object) (*paramecium.Handle, error) {
			if err := sys.Register(path, o); err != nil {
				return nil, err
			}
			return sys.Bind(path)
		}},
		{"interposer", func(sys *paramecium.System, o *api.Object) (*paramecium.Handle, error) {
			if err := sys.Register(path, o); err != nil {
				return nil, err
			}
			return interpose(sys, false)
		}},
		{"wrapping interposer", func(sys *paramecium.System, o *api.Object) (*paramecium.Handle, error) {
			if err := sys.Register(path, o); err != nil {
				return nil, err
			}
			return interpose(sys, true)
		}},
		{"tracer", func(sys *paramecium.System, o *api.Object) (*paramecium.Handle, error) {
			if err := sys.Register(path, o); err != nil {
				return nil, err
			}
			h, err := sys.Bind(path)
			if err != nil {
				return nil, err
			}
			if tracer, err = h.Trace(); err != nil {
				return nil, err
			}
			return sys.Bind(path) // binds made after Trace reach the tracer
		}},
		{"proxy", func(sys *paramecium.System, o *api.Object) (*paramecium.Handle, error) {
			if err := sys.NewDomain("home").Register(path, o); err != nil {
				return nil, err
			}
			return sys.NewDomain("client").Bind(path)
		}},
	}
	cases := []struct {
		name   string
		method string
		args   []any
		want   error
	}{
		{"call", "ok", []any{7}, nil},
		{"undeclared", "nope", nil, api.ErrNoMethod},
		{"unbound slot", "unbound", nil, api.ErrUnbound},
		{"too few args", "ok", nil, api.ErrArity},
		{"too many args", "ok", []any{1, 2}, api.ErrArity},
		{"wrong result count", "liar", nil, api.ErrArity},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			sys, err := paramecium.Boot()
			if err != nil {
				t.Fatal(err)
			}
			o := sys.NewObject("probe")
			bi, err := o.AddInterface(decl, nil)
			if err != nil {
				t.Fatal(err)
			}
			bi.MustBind("ok", func(args ...any) ([]any, error) { return []any{args[0]}, nil }).
				MustBind("liar", func(...any) ([]any, error) { return []any{1}, nil }) // declares 2 results, returns 1
			h, err := p.bind(sys, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				// One untimed call first, so both timed calls find the
				// same warm translations.
				_, _ = h.Invoke("test.v1", tc.method, tc.args...)

				before := sys.Cycles()
				byName, nameErr := h.Invoke("test.v1", tc.method, tc.args...)
				nameCycles := sys.Cycles() - before

				before = sys.Cycles()
				var byHandle []any
				m, handleErr := h.Resolve("test.v1", tc.method)
				if handleErr == nil {
					byHandle, handleErr = m.Call(tc.args...)
				}
				handleCycles := sys.Cycles() - before

				if !errors.Is(nameErr, tc.want) || !errors.Is(handleErr, tc.want) {
					t.Errorf("%s: by name = %v, by handle = %v, want %v", tc.name, nameErr, handleErr, tc.want)
				}
				if fmt.Sprint(byName) != fmt.Sprint(byHandle) {
					t.Errorf("%s: by name = %v, by handle = %v", tc.name, byName, byHandle)
				}
				if nameCycles != handleCycles {
					t.Errorf("%s: by name charged %d cycles, by handle %d", tc.name, nameCycles, handleCycles)
				}
				if tc.want == api.ErrNoMethod && nameCycles != 0 {
					t.Errorf("%s: charged %d cycles, want 0", tc.name, nameCycles)
				}
			}
			// The "call" case's three calls pass the tracer's wrapper;
			// the arity errors fail before it.
			if p.name == "tracer" {
				if st, _ := tracer.Stats("test.v1.ok"); st.Calls != 3 {
					t.Errorf("tracer saw %d calls of ok, want 3", st.Calls)
				}
			}
		})
	}
}

// TestOptions exercises the functional boot options.
func TestOptions(t *testing.T) {
	costs := paramecium.DefaultCosts()
	sys, err := paramecium.Boot(
		paramecium.WithAuthority(nil),
		paramecium.WithMachine(paramecium.MachineConfig{PhysFrames: 32, Costs: &costs}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cycles() != 0 {
		t.Fatalf("fresh system clock = %d", sys.Cycles())
	}
	o := sys.NewObject("x")
	decl := api.MustInterfaceDecl("x.v1", api.MethodDecl{Name: "f", NumIn: 0, NumOut: 0})
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("f", func(...any) ([]any, error) { return nil, nil })
	if err := sys.Register("/services/x", o); err != nil {
		t.Fatal(err)
	}
	h, err := sys.Bind("/services/x")
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.Resolve("x.v1", "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(); err != nil {
		t.Fatal(err)
	}
	if sys.Cycles() == 0 {
		t.Fatal("invocation charged no cycles")
	}
}

// ExampleDomain_CallBatch vectors many cross-domain calls into one
// protection crossing: the batch pays the trap and context-switch
// pair once for the whole group.
func ExampleDomain_CallBatch() {
	sys, err := paramecium.Boot()
	if err != nil {
		panic(err)
	}
	decl := api.MustInterfaceDecl("example.acc.v1",
		api.MethodDecl{Name: "add", NumIn: 1, NumOut: 1})
	acc := sys.NewObject("accumulator")
	sum := 0
	bi, err := acc.AddInterface(decl, &sum)
	if err != nil {
		panic(err)
	}
	bi.MustBind("add", func(args ...any) ([]any, error) {
		sum += args[0].(int)
		return []any{sum}, nil
	})
	server := sys.NewDomain("server")
	if err := server.Register("/services/acc", acc); err != nil {
		panic(err)
	}

	client := sys.NewDomain("client")
	h, err := client.Bind("/services/acc")
	if err != nil {
		panic(err)
	}
	add, err := h.Resolve("example.acc.v1", "add")
	if err != nil {
		panic(err)
	}

	b := h.Batch(4)
	for i := 1; i <= 4; i++ {
		if err := b.Add(add, i); err != nil {
			panic(err)
		}
	}
	if err := client.CallBatch(b); err != nil {
		panic(err)
	}
	res, _ := b.Results(3)
	fmt.Println("sum =", res[0])
	// Output:
	// sum = 10
}

// TestBatchAmortizesCrossings: through the public API, a batch of N
// cross-domain calls costs strictly fewer virtual cycles than N
// single calls of the same method — the vectored plane's whole point.
func TestBatchAmortizesCrossings(t *testing.T) {
	boot := func() (*paramecium.System, api.MethodHandle, *paramecium.Domain) {
		sys, err := paramecium.Boot()
		if err != nil {
			t.Fatal(err)
		}
		decl := api.MustInterfaceDecl("bench.v1",
			api.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
		o := sys.NewObject("counter")
		n := 0
		bi, err := o.AddInterface(decl, &n)
		if err != nil {
			t.Fatal(err)
		}
		bi.MustBind("inc", func(...any) ([]any, error) { n++; return []any{n}, nil })
		server := sys.NewDomain("server")
		if err := server.Register("/s/c", o); err != nil {
			t.Fatal(err)
		}
		client := sys.NewDomain("client")
		h, err := client.Bind("/s/c")
		if err != nil {
			t.Fatal(err)
		}
		inc, err := h.Resolve("bench.v1", "inc")
		if err != nil {
			t.Fatal(err)
		}
		return sys, inc, client
	}

	const size = 16
	sysA, incA, _ := boot()
	startA := sysA.Cycles()
	for i := 0; i < size; i++ {
		if _, err := incA.Call(); err != nil {
			t.Fatal(err)
		}
	}
	single := sysA.Cycles() - startA

	sysB, incB, clientB := boot()
	b := paramecium.NewBatch(size)
	for i := 0; i < size; i++ {
		if err := b.Add(incB); err != nil {
			t.Fatal(err)
		}
	}
	startB := sysB.Cycles()
	if err := clientB.CallBatch(b); err != nil {
		t.Fatal(err)
	}
	batched := sysB.Cycles() - startB

	if batched*4 > single {
		t.Fatalf("batch of %d cost %d cycles vs %d for singles: less than 4x amortization", size, batched, single)
	}
	for i := 0; i < size; i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if res[0].(int) != i+1 {
			t.Fatalf("entry %d = %v, want in-order results", i, res[0])
		}
	}
}

// TestBatchGroupedAmortizesMixedTargets: through the public API, a
// batch alternating two server domains in BatchGrouped mode costs at
// most a third of the same interleave in the default in-order mode —
// one crossing per distinct target instead of one per entry — and
// every result still lands in the caller's original entry slot, in
// queue order.
func TestBatchGroupedAmortizesMixedTargets(t *testing.T) {
	sys, err := paramecium.Boot()
	if err != nil {
		t.Fatal(err)
	}
	decl := api.MustInterfaceDecl("mixed.v1",
		api.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	const targets = 2
	client := sys.NewDomain("client")
	incs := make([]api.MethodHandle, targets)
	for i := 0; i < targets; i++ {
		o := sys.NewObject(fmt.Sprintf("counter%d", i))
		n := 0
		bi, err := o.AddInterface(decl, &n)
		if err != nil {
			t.Fatal(err)
		}
		bi.MustBind("inc", func(...any) ([]any, error) { n++; return []any{n}, nil })
		server := sys.NewDomain(fmt.Sprintf("server%d", i))
		path := fmt.Sprintf("/s/mixed%d", i)
		if err := server.Register(path, o); err != nil {
			t.Fatal(err)
		}
		h, err := client.Bind(path)
		if err != nil {
			t.Fatal(err)
		}
		if incs[i], err = h.Resolve("mixed.v1", "inc"); err != nil {
			t.Fatal(err)
		}
	}

	const size = 16
	run := func(mode paramecium.BatchMode) (uint64, *paramecium.Batch) {
		b := paramecium.NewBatch(size)
		b.SetMode(mode)
		for i := 0; i < size; i++ {
			if err := b.Add(incs[i%targets]); err != nil {
				t.Fatal(err)
			}
		}
		start := sys.Cycles()
		if err := client.CallBatch(b); err != nil {
			t.Fatal(err)
		}
		return sys.Cycles() - start, b
	}

	inOrder, _ := run(paramecium.BatchInOrder)
	grouped, b := run(paramecium.BatchGrouped)
	if grouped*3 > inOrder {
		t.Fatalf("grouped mixed batch cost %d cycles vs %d in-order: less than 3x amortization",
			grouped, inOrder)
	}
	for i := 0; i < size; i++ {
		res, err := b.Results(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		// Second round on each counter: entry i is its target's
		// (i/targets)'th call, on top of the in-order round's 8.
		if want := size/targets + i/targets + 1; res[0].(int) != want {
			t.Fatalf("entry %d = %v, want %d (per-target order, scattered to its slot)",
				i, res[0], want)
		}
	}
}

// TestBatchIntoDestroyedDomainFails: batches drain like single calls —
// destroying the server domain fails every entry of a later batch
// instead of reaching freed state.
func TestBatchIntoDestroyedDomainFails(t *testing.T) {
	sys, err := paramecium.Boot()
	if err != nil {
		t.Fatal(err)
	}
	decl := api.MustInterfaceDecl("gone.v1",
		api.MethodDecl{Name: "f", NumIn: 0, NumOut: 0})
	o := sys.NewObject("victim")
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	bi.MustBind("f", func(...any) ([]any, error) { ran = true; return nil, nil })
	server := sys.NewDomain("server")
	if err := server.Register("/s/victim", o); err != nil {
		t.Fatal(err)
	}
	client := sys.NewDomain("client")
	h, err := client.Bind("/s/victim")
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.Resolve("gone.v1", "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Destroy(); err != nil {
		t.Fatal(err)
	}
	b := paramecium.NewBatch(3)
	for i := 0; i < 3; i++ {
		if err := b.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.CallBatch(b); err == nil {
		t.Fatal("batch into destroyed domain reported no error")
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Results(i); err == nil {
			t.Fatalf("entry %d carried no error", i)
		}
	}
	if ran {
		t.Fatal("method executed in a destroyed domain")
	}
}

// TestSharedLeasesUnderUniprocessorStress: a WithCPUs(1) system under
// concurrent cross-domain load must oversubscribe its single CPU —
// AcquireCPU falls back to sharing, and the forced shares are counted
// and surfaced, quantifying that the workload wants more CPUs.
func TestSharedLeasesUnderUniprocessorStress(t *testing.T) {
	sys, err := paramecium.Boot(paramecium.WithCPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	decl := api.MustInterfaceDecl("stress.v1",
		api.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	o := sys.NewObject("counter")
	var n atomic.Int64
	bi, err := o.AddInterface(decl, &n)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) {
		// Yield inside the call so concurrent callers genuinely overlap
		// the CPU-lease window even on a GOMAXPROCS=1 host.
		runtime.Gosched()
		return []any{n.Add(1)}, nil
	})
	server := sys.NewDomain("server")
	if err := server.Register("/s/counter", o); err != nil {
		t.Fatal(err)
	}
	client := sys.NewDomain("client")
	h, err := client.Bind("/s/counter")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := h.Resolve("stress.v1", "inc")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const each = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := inc.Call(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n.Load() != workers*each {
		t.Fatalf("count = %d, want %d", n.Load(), workers*each)
	}
	if sys.SharedCPULeases() == 0 {
		t.Fatalf("no shared CPU leases counted across %d concurrent calls on one CPU", workers*each)
	}
	if sys.NumCPUs() != 1 {
		t.Fatalf("NumCPUs = %d", sys.NumCPUs())
	}
}

// TestHandleAgreementAcrossProxy re-runs the error contract through a
// cross-domain proxy: the fault-driven path must classify errors
// exactly like a local bound interface.
func TestHandleAgreementAcrossProxy(t *testing.T) {
	sys, err := paramecium.Boot()
	if err != nil {
		t.Fatal(err)
	}
	decl := api.MustInterfaceDecl("test.v1",
		api.MethodDecl{Name: "echo", NumIn: 1, NumOut: 1})
	o := sys.NewObject("echo")
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("echo", func(args ...any) ([]any, error) { return []any{args[0]}, nil })

	home := sys.NewDomain("home")
	if err := home.Register("/services/echo", o); err != nil {
		t.Fatal(err)
	}
	client := sys.NewDomain("client")
	h, err := client.Bind("/services/echo")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := h.Resolve("test.v1", "nope"); !errors.Is(err, api.ErrNoMethod) {
		t.Fatalf("proxy Resolve undeclared = %v, want ErrNoMethod", err)
	}
	echo, err := h.Resolve("test.v1", "echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echo.Call(); !errors.Is(err, api.ErrArity) {
		t.Fatalf("proxy handle bad arity = %v, want ErrArity", err)
	}
	if _, err := h.Invoke("test.v1", "echo"); !errors.Is(err, api.ErrArity) {
		t.Fatalf("proxy Invoke bad arity = %v, want ErrArity", err)
	}
	res, err := echo.Call("ping")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "ping" {
		t.Fatalf("proxy handle call = %v", res)
	}
	if err := client.Destroy(); err != nil {
		t.Fatal(err)
	}
}
