package names

import (
	"fmt"
	"sync"
	"testing"

	"paramecium/internal/obj"
)

// TestDeepViewChainBindRacesOverrideChurn: binds through a deep view
// chain probe copy-on-write snapshots at every level, so they stay
// lock-free and correct while every view in the chain churns its
// override set. Each bind must observe either the global instance or
// one of the legitimately published overrides — never a torn state.
func TestDeepViewChainBindRacesOverrideChurn(t *testing.T) {
	space := NewSpace(nil)
	global := obj.New("global", nil)
	if err := space.Register("/svc/x", global); err != nil {
		t.Fatal(err)
	}
	const depth = 8
	views := make([]*View, depth)
	views[0] = RootView(space)
	for i := 1; i < depth; i++ {
		views[i] = views[i-1].Child()
	}
	leaf := views[depth-1]
	legit := map[obj.Instance]bool{global: true}
	overrides := make([]obj.Instance, depth)
	for i := range overrides {
		overrides[i] = obj.New(fmt.Sprintf("ovr-%d", i), nil)
		legit[overrides[i]] = true
	}

	const iters = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inst, err := leaf.Bind("/svc/x")
				if err != nil {
					t.Errorf("bind: %v", err)
					return
				}
				if !legit[inst] {
					t.Errorf("bind resolved to unknown instance %v", inst)
					return
				}
			}
		}()
	}
	for i := 0; i < iters; i++ {
		v := views[i%depth]
		if err := v.Override("/svc/x", overrides[i%depth]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := v.clearOverride("/svc/x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestOverridePublishIsAtomic: a bind concurrent with the very first
// override on a fresh view sees the old state or the new — and an
// alias plus its target override published in sequence are observed in
// order (no alias pointing at a not-yet-visible override, because each
// mutation publishes a complete snapshot).
func TestOverrideSnapshotsAreImmutable(t *testing.T) {
	space := NewSpace(nil)
	base := obj.New("base", nil)
	if err := space.Register("/a", base); err != nil {
		t.Fatal(err)
	}
	v := RootView(space)
	// Capture the pre-mutation snapshot as a reader would.
	before := v.ovr.Load()
	repl := obj.New("repl", nil)
	if err := v.Override("/a", repl); err != nil {
		t.Fatal(err)
	}
	if _, ok := before.overrides["/a"]; ok {
		t.Fatal("published snapshot mutated in place")
	}
	inst, err := v.Bind("/a")
	if err != nil || inst != repl {
		t.Fatalf("bind = %v, %v; want the override", inst, err)
	}
	if err := v.clearOverride("/a"); err != nil {
		t.Fatal(err)
	}
	inst, err = v.Bind("/a")
	if err != nil || inst != base {
		t.Fatalf("bind after clear = %v, %v; want the global", inst, err)
	}
}
