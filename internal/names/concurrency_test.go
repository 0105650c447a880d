package names

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"paramecium/internal/obj"
)

// TestSpaceConcurrentStress hammers one Space with parallel Register,
// Bind, Replace, Unregister, List and Walk. The copy-on-write tree
// must keep every reader on a consistent snapshot: a Bind either
// finds a complete entry or a clean not-found, never a torn tree.
func TestSpaceConcurrentStress(t *testing.T) {
	s := NewSpace(nil)
	inst := func(class string) obj.Instance { return obj.New(class, nil) }

	// A stable population that must survive the churn untouched.
	for i := 0; i < 8; i++ {
		if err := s.Register(fmt.Sprintf("/stable/svc%d", i), inst("stable")); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/churn/w%d/leaf", w)
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					if err := s.Register(path, inst("churn")); err != nil {
						t.Errorf("register: %v", err)
						return
					}
				case 1:
					if _, err := s.Replace(path, inst("churn2")); err != nil {
						t.Errorf("replace: %v", err)
						return
					}
				case 2:
					if _, err := s.Bind(path); err != nil {
						t.Errorf("bind own leaf: %v", err)
						return
					}
				case 3:
					if err := s.Unregister(path); err != nil {
						t.Errorf("unregister: %v", err)
						return
					}
				}
				// Readers on the stable population, every iteration.
				if _, err := s.Bind(fmt.Sprintf("/stable/svc%d", i%8)); err != nil {
					t.Errorf("stable bind: %v", err)
					return
				}
			}
		}(w)
	}
	// Dedicated snapshot readers: List and Walk while writers churn.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := s.list("/stable"); err != nil {
					t.Errorf("list: %v", err)
					return
				}
				seen := 0
				err := s.Walk(func(string, obj.Instance) error { seen++; return nil })
				if err != nil {
					t.Errorf("walk: %v", err)
					return
				}
				if seen < 8 {
					t.Errorf("walk saw %d instances, stable population is 8", seen)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The churn paths are all unregistered (rounds%4==0 ends each
	// worker on an unregister); the stable population remains.
	for i := 0; i < 8; i++ {
		if _, err := s.Bind(fmt.Sprintf("/stable/svc%d", i)); err != nil {
			t.Fatalf("stable svc%d lost: %v", i, err)
		}
	}
	for w := 0; w < workers; w++ {
		_, err := s.Bind(fmt.Sprintf("/churn/w%d/leaf", w))
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("churn leaf w%d should be gone, got %v", w, err)
		}
	}
}

// TestSpaceConcurrentRegisterDisjoint: parallel registrations under
// one shared parent must all land.
func TestSpaceConcurrentRegisterDisjoint(t *testing.T) {
	s := NewSpace(nil)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Register(fmt.Sprintf("/services/s%d", i), obj.New("svc", nil)); err != nil {
				t.Errorf("register s%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	ls, err := s.list("/services")
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != n {
		t.Fatalf("listed %d entries, want %d", len(ls), n)
	}
}

// TestViewConcurrentBindAndOverride: view override mutation racing
// lock-free space lookups through the view chain.
func TestViewConcurrentBindAndOverride(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Register("/svc/a", obj.New("real", nil)); err != nil {
		t.Fatal(err)
	}
	root := RootView(s)
	child := root.Child()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inst, err := child.Bind("/svc/a")
				if err != nil {
					t.Errorf("bind: %v", err)
					return
				}
				if c := inst.Class(); c != "real" && c != "override" {
					t.Errorf("bind resolved to %q", c)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := child.Override("/svc/a", obj.New("override", nil)); err != nil {
				t.Errorf("override: %v", err)
				return
			}
			if err := child.clearOverride("/svc/a"); err != nil {
				t.Errorf("clear: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
