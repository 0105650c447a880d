package proxy

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paramecium/internal/clock"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
)

// atomicCounterDecl exports one method whose implementation is itself
// safe for concurrent invocation, so tests exercise only the proxy's
// own concurrency.
var atomicCounterDecl = obj.MustInterfaceDecl("test.atomic.v1",
	obj.MethodDecl{Name: "inc", NumIn: 1, NumOut: 1},
)

func newAtomicCounter(meter *clock.Meter) (*obj.Object, *atomic.Int64) {
	o := obj.New("atomic-counter", meter)
	n := new(atomic.Int64)
	bi, err := o.AddInterface(atomicCounterDecl, n)
	if err != nil {
		panic(err)
	}
	bi.MustBind("inc", func(args ...any) ([]any, error) {
		return []any{n.Add(int64(args[0].(int)))}, nil
	})
	return o, n
}

// TestConcurrentCallsSharedHandle drives many goroutines through ONE
// MethodHandle of one proxy interface: the exact sharing pattern the
// per-call frame table exists for. Every call must observe its own
// results; no update may be lost.
func TestConcurrentCallsSharedHandle(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	target, n := newAtomicCounter(m.Meter)
	p, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.atomic.v1")
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const callsEach = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				res, err := inc.Call(1)
				if err != nil {
					errs <- err
					return
				}
				if res[0].(int64) < 1 {
					errs <- errors.New("result from another call's frame")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := n.Load(); got != goroutines*callsEach {
		t.Fatalf("lost updates: counter = %d, want %d", got, goroutines*callsEach)
	}
	if got := p.Calls(); got != goroutines*callsEach {
		t.Fatalf("Calls() = %d, want %d", got, goroutines*callsEach)
	}
}

// TestConcurrentInvokeAndResolve mixes the string-keyed path, handle
// resolution and handle calls on one interface concurrently.
func TestConcurrentInvokeAndResolve(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	target, n := newAtomicCounter(m.Meter)
	p, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.atomic.v1")

	const goroutines = 8
	const callsEach = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				if g%2 == 0 {
					if _, err := iv.Invoke("inc", 1); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				h, err := iv.Resolve("inc")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := h.Call(1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := n.Load(); got != goroutines*callsEach {
		t.Fatalf("lost updates: counter = %d, want %d", got, goroutines*callsEach)
	}
}

// TestProxyCloseRace is the regression test for the close/call race:
// callers racing with Close must either complete normally or fail
// with ErrClosed — never ErrNoDelivery, which before the per-call
// frame redesign could leak out when Close unregistered the fault
// handler between the caller's closed-check and its entry-page touch.
func TestProxyCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		f, svc, m := setup()
		serverCtx := svc.NewDomain()
		clientCtx := svc.NewDomain()
		target, _ := newAtomicCounter(m.Meter)
		p, err := f.New(clientCtx, serverCtx, target)
		if err != nil {
			t.Fatal(err)
		}
		iv, _ := p.Iface("test.atomic.v1")
		inc, err := iv.Resolve("inc")
		if err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					_, err := inc.Call(1)
					if err == nil || errors.Is(err, ErrClosed) {
						continue
					}
					t.Errorf("round %d: call racing Close: %v", round, err)
					return
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := p.Close(); err != nil {
				t.Errorf("round %d: close: %v", round, err)
			}
		}()
		close(start)
		wg.Wait()

		// After Close every call must fail with ErrClosed.
		if _, err := inc.Call(1); !errors.Is(err, ErrClosed) {
			t.Fatalf("call after close = %v, want ErrClosed", err)
		}
	}
}

// TestConcurrentCrossingsChargeDeterministically is the regression
// test for the context-register TOCTOU: a cross-domain call charges
// exactly one context switch in and one back, no matter how calls
// interleave. Before the per-call crossing model, a concurrent handler
// could observe another call's transient target context in the shared
// register and skip its own switch pair, making the charge total (and
// the final register value) interleaving-dependent.
func TestConcurrentCrossingsChargeDeterministically(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	targetA, _ := newAtomicCounter(m.Meter)
	targetB, _ := newAtomicCounter(m.Meter)
	pA, err := f.New(svc.NewDomain(), serverCtx, targetA)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := f.New(svc.NewDomain(), serverCtx, targetB)
	if err != nil {
		t.Fatal(err)
	}
	ivA, _ := pA.Iface("test.atomic.v1")
	ivB, _ := pB.Iface("test.atomic.v1")
	incA, _ := ivA.Resolve("inc")
	incB, _ := ivB.Resolve("inc")

	const goroutines = 8
	const callsEach = 100
	m.Meter.ResetCounts()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h := incA
		if g%2 == 1 {
			h = incB
		}
		wg.Add(1)
		go func(h obj.MethodHandle) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				if _, err := h.Call(1); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	want := uint64(2 * goroutines * callsEach)
	if got := m.Meter.Count(clock.OpCtxSwitch); got != want {
		t.Fatalf("context switches = %d, want exactly %d", got, want)
	}
}

// TestProxyCloseQuiesces: Close must not return while a call is still
// executing in the target's domain, so teardown that follows Close
// (destroying the target context, freeing target state) cannot race an
// in-flight cross-domain call.
func TestProxyCloseQuiesces(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()

	entered := make(chan struct{})
	release := make(chan struct{})
	o := obj.New("blocker", m.Meter)
	decl := obj.MustInterfaceDecl("test.block.v1",
		obj.MethodDecl{Name: "block", NumIn: 0, NumOut: 0})
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("block", func(...any) ([]any, error) {
		close(entered)
		<-release
		return nil, nil
	})
	p, err := f.New(clientCtx, serverCtx, o)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.block.v1")

	callDone := make(chan error, 1)
	go func() {
		_, err := iv.Invoke("block")
		callDone <- err
	}()
	<-entered // the call is now mid-invoke in the target domain

	// Two concurrent closers: the winner and the loser must BOTH wait
	// for the drain — teardown sequenced after any returned Close,
	// ErrClosed or not, must be safe.
	closeErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { closeErrs <- p.Close() }()
	}
	select {
	case err := <-closeErrs:
		t.Fatalf("Close returned (%v) while a call was executing in the target domain", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	var wins, losses int
	for i := 0; i < 2; i++ {
		switch err := <-closeErrs; {
		case err == nil:
			wins++
		case errors.Is(err, ErrClosed):
			losses++
		default:
			t.Fatal(err)
		}
	}
	if wins != 1 || losses != 1 {
		t.Fatalf("close results: %d nil, %d ErrClosed; want 1 and 1", wins, losses)
	}
	if err := <-callDone; err != nil {
		t.Fatal(err)
	}
	// Quiescence achieved: the target domain can now be torn down
	// without racing the (finished) call.
	if err := svc.DestroyDomain(serverCtx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCloseIdempotent: exactly one Close wins; the rest get
// ErrClosed.
func TestConcurrentCloseIdempotent(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	target, _ := newAtomicCounter(m.Meter)
	p, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	const closers = 8
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch err := p.Close(); {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrClosed):
			default:
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d Close calls succeeded, want exactly 1", wins.Load())
	}
}

// TestConcurrentCallsTwoProxies: independent proxies built from one
// factory share the frame table; their calls must not cross.
func TestConcurrentCallsTwoProxies(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientA := svc.NewDomain()
	clientB := svc.NewDomain()
	targetA, nA := newAtomicCounter(m.Meter)
	targetB, nB := newAtomicCounter(m.Meter)
	pA, err := f.New(clientA, serverCtx, targetA)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := f.New(clientB, serverCtx, targetB)
	if err != nil {
		t.Fatal(err)
	}
	ivA, _ := pA.Iface("test.atomic.v1")
	ivB, _ := pB.Iface("test.atomic.v1")
	incA, _ := ivA.Resolve("inc")
	incB, _ := ivB.Resolve("inc")

	const callsEach = 300
	var wg sync.WaitGroup
	for _, h := range []obj.MethodHandle{incA, incB, incA, incB} {
		wg.Add(1)
		go func(h obj.MethodHandle) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				if _, err := h.Call(1); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	if nA.Load() != 2*callsEach || nB.Load() != 2*callsEach {
		t.Fatalf("cross-talk: A=%d B=%d, want %d each", nA.Load(), nB.Load(), 2*callsEach)
	}
}

// TestCloseTargetCondemnsNewProxies: after CloseTarget(ctx) the
// factory must refuse to build proxies onto ctx — otherwise a bind
// racing domain teardown could create a fresh route into a context
// about to be destroyed, reopening the quiescence hole CloseTarget
// exists to plug.
func TestCloseTargetCondemnsNewProxies(t *testing.T) {
	f, svc, m := setup()
	serverCtx := svc.NewDomain()
	clientCtx := svc.NewDomain()
	target, _ := newAtomicCounter(m.Meter)
	p, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := p.Iface("test.atomic.v1")
	inc, err := iv.Resolve("inc")
	if err != nil {
		t.Fatal(err)
	}

	f.CloseTarget(serverCtx)
	if _, err := inc.Call(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("call through closed-by-target proxy = %v, want ErrClosed", err)
	}
	if _, err := f.New(clientCtx, serverCtx, target); err == nil {
		t.Fatal("factory built a proxy onto a condemned target context")
	}
	// Other targets are unaffected.
	otherCtx := svc.NewDomain()
	p2, err := f.New(clientCtx, otherCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	// Absolve lifts the gate (done by the kernel once the MMU context
	// itself is destroyed).
	f.Absolve(serverCtx)
	p3, err := f.New(clientCtx, serverCtx, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDestroyDuringCallStress races calls through a proxy against the
// destruction of its target domain: raw, with the MMU context vanishing
// under in-flight crossings, and the kernel's way, with CloseTarget
// first. Every call succeeds or fails with ErrClosed or "target domain
// gone" (mmu.ErrNoContext), none panics, and no frame stays live.
func TestDestroyDuringCallStress(t *testing.T) {
	f, svc, m := setup()
	clientCtx := svc.NewDomain()
	const rounds, callers, calls = 16, 4, 64
	for r := 0; r < rounds; r++ {
		serverCtx := svc.NewDomain()
		target, _ := newAtomicCounter(m.Meter)
		p, err := f.New(clientCtx, serverCtx, target)
		if err != nil {
			t.Fatal(err)
		}
		iv, _ := p.Iface("test.atomic.v1")
		inc, err := iv.Resolve("inc")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		started := make(chan struct{}, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started <- struct{}{}
				for i := 0; i < calls; i++ {
					_, err := inc.Call(1)
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, mmu.ErrNoContext) {
						t.Errorf("call racing destroy: %v", err)
						return
					}
				}
			}()
		}
		for c := 0; c < callers; c++ {
			<-started
		}
		if r%2 == 1 {
			f.CloseTarget(serverCtx)
		}
		if err := svc.DestroyDomain(serverCtx); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if _, err := inc.Call(1); err == nil {
			t.Fatalf("round %d: call into destroyed domain succeeded", r)
		}
		_ = p.Close()
		f.Absolve(serverCtx)
	}
	if n := liveFrames(f); n != 0 {
		t.Fatalf("%d frames live after the stress", n)
	}
}
