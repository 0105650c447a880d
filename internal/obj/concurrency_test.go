package obj

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestBoundInterfaceConcurrentCallAndRebind: slot dispatch is a single
// atomic load, so calls may race Bind rewiring the same slot; every
// call lands on one implementation or the other, never in between.
func TestBoundInterfaceConcurrentCallAndRebind(t *testing.T) {
	decl := MustInterfaceDecl("t.v1", MethodDecl{Name: "m", NumIn: 0, NumOut: 1})
	o := New("t", nil)
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b atomic.Int64
	implA := func(...any) ([]any, error) { return []any{a.Add(1)}, nil }
	implB := func(...any) ([]any, error) { return []any{b.Add(1)}, nil }
	bi.MustBind("m", implA)
	h, err := bi.Resolve("m")
	if err != nil {
		t.Fatal(err)
	}

	const calls = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := h.Call(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			bi.MustBind("m", implB)
			bi.MustBind("m", implA)
		}
	}()
	wg.Wait()
	if got := a.Load() + b.Load(); got != 4*calls {
		t.Fatalf("dispatched %d calls, want %d", got, 4*calls)
	}
}

// TestInterposerConcurrentWrapAndCall is the regression test for the
// wrap-set race: Wrap used to mutate a map that live handles read
// without synchronization. Calls through both Invoke and a resolved
// handle race Wrap installs; every call must route through either the
// bare target or the wrapper.
func TestInterposerConcurrentWrapAndCall(t *testing.T) {
	decl := MustInterfaceDecl("t.v1", MethodDecl{Name: "m", NumIn: 0, NumOut: 1})
	o := New("t", nil)
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	var direct atomic.Int64
	bi.MustBind("m", func(...any) ([]any, error) { return []any{direct.Add(1)}, nil })

	ip := NewInterposer("wrapper", o)
	iv, ok := ip.Iface("t.v1")
	if !ok {
		t.Fatal("interposer hides interface")
	}
	h, err := iv.Resolve("m")
	if err != nil {
		t.Fatal(err)
	}

	var wrapped atomic.Int64
	wrap := func(next Method, args ...any) ([]any, error) {
		wrapped.Add(1)
		return next(args...)
	}

	const calls = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var err error
				if w%2 == 0 {
					_, err = h.Call()
				} else {
					_, err = Invoke(iv, "m")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := ip.Wrap("t.v1", "m", wrap); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := direct.Load(); got != 4*calls {
		t.Fatalf("target saw %d calls, want %d", got, 4*calls)
	}
}
