package names

import (
	"errors"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

func inst(class string) obj.Instance { return obj.New(class, nil) }

func TestSplitAndClean(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"/shared/network", "/shared/network"},
		{"shared/network", "/shared/network"},
		{"//shared///network/", "/shared/network"},
		{"/", "/"},
		{"", "/"},
		{"/a/./b", "/a/b"},
	}
	for _, c := range cases {
		got, err := Clean(c.in)
		if err != nil {
			t.Errorf("Clean(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := Clean("/a/../b"); !errors.Is(err, ErrBadPath) {
		t.Errorf("dotdot: %v", err)
	}
	if _, err := Clean("/a\x00b"); !errors.Is(err, ErrBadPath) {
		t.Errorf("NUL: %v", err)
	}
}

func TestJoin(t *testing.T) {
	if got := Join("shared", "network"); got != "/shared/network" {
		t.Errorf("Join = %q", got)
	}
	if got := Join("/a/", "/b/"); got != "/a/b" {
		t.Errorf("Join = %q", got)
	}
}

func TestRegisterBind(t *testing.T) {
	s := NewSpace(nil)
	net := inst("netdriver")
	if err := s.Register("/shared/network", net); err != nil {
		t.Fatal(err)
	}
	got, err := s.Bind("/shared/network")
	if err != nil {
		t.Fatal(err)
	}
	if got != net {
		t.Fatal("bound wrong instance")
	}
	// Normalized path variants resolve identically.
	got2, err := s.Bind("shared//network/")
	if err != nil || got2 != net {
		t.Fatalf("normalized bind = %v, %v", got2, err)
	}
}

func TestRegisterErrors(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Register("/x", nil); !errors.Is(err, ErrBadPath) {
		t.Fatalf("nil instance: %v", err)
	}
	if err := s.Register("/", inst("a")); !errors.Is(err, ErrBadPath) {
		t.Fatalf("root: %v", err)
	}
	if err := s.Register("/a", inst("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("/a", inst("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
	// A leaf cannot be used as a directory.
	if err := s.Register("/a/b", inst("c")); !errors.Is(err, ErrNotDir) {
		t.Fatalf("leaf as dir: %v", err)
	}
}

func TestBindErrors(t *testing.T) {
	s := NewSpace(nil)
	if _, err := s.Bind("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if err := s.Register("/d/leaf", inst("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir: %v", err)
	}
	if _, err := s.Bind("/d/leaf/deeper"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("through leaf: %v", err)
	}
	if _, err := s.Bind("/"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("root: %v", err)
	}
}

func TestReplaceInterposes(t *testing.T) {
	s := NewSpace(nil)
	orig := inst("netdriver")
	if err := s.Register("/shared/network", orig); err != nil {
		t.Fatal(err)
	}
	agent := obj.NewInterposer("monitor", orig)
	prev, err := s.Replace("/shared/network", agent)
	if err != nil {
		t.Fatal(err)
	}
	if prev != orig {
		t.Fatal("Replace returned wrong previous instance")
	}
	got, err := s.Bind("/shared/network")
	if err != nil {
		t.Fatal(err)
	}
	if got != obj.Instance(agent) {
		t.Fatal("bind did not return interposer")
	}
}

func TestReplaceErrors(t *testing.T) {
	s := NewSpace(nil)
	if _, err := s.Replace("/none", inst("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if err := s.Register("/d/leaf", inst("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replace("/d", inst("y")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir: %v", err)
	}
	if _, err := s.Replace("/d/leaf", nil); !errors.Is(err, ErrBadPath) {
		t.Fatalf("nil: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Register("/a/b", inst("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("/a"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := s.Unregister("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind("/a/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after unregister: %v", err)
	}
	// Now the empty directory can be removed.
	if err := s.Unregister("/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double: %v", err)
	}
	if err := s.Unregister("/"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("root: %v", err)
	}
}

func TestList(t *testing.T) {
	s := NewSpace(nil)
	for _, p := range []string{"/svc/net", "/svc/disk", "/svc/sub/x"} {
		if err := s.Register(p, inst(p)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.list("/svc")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"disk", "net", "sub/"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if _, err := s.list("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if _, err := s.list("/svc/net"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("leaf: %v", err)
	}
	root, err := s.list("/")
	if err != nil || len(root) != 1 || root[0] != "svc/" {
		t.Fatalf("root list = %v, %v", root, err)
	}
}

func TestWalk(t *testing.T) {
	s := NewSpace(nil)
	paths := []string{"/a/x", "/a/y", "/b"}
	for _, p := range paths {
		if err := s.Register(p, inst(p)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	if err := s.Walk(func(p string, _ obj.Instance) error {
		seen = append(seen, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != "/a/x" || seen[1] != "/a/y" || seen[2] != "/b" {
		t.Fatalf("walk order = %v", seen)
	}
	// Walk propagates the callback error.
	sentinel := errors.New("stop")
	if err := s.Walk(func(string, obj.Instance) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("walk error: %v", err)
	}
}

func TestBindChargesHopsPerComponent(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	s := NewSpace(meter)
	if err := s.Register("/a/b/c/d", inst("deep")); err != nil {
		t.Fatal(err)
	}
	meter.ResetCounts()
	if _, err := s.Bind("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if got := meter.Count(clock.OpNameLookupHop); got != 4 {
		t.Fatalf("hops = %d, want 4", got)
	}
}

func TestViewInheritsParent(t *testing.T) {
	s := NewSpace(nil)
	net := inst("net")
	if err := s.Register("/services/net", net); err != nil {
		t.Fatal(err)
	}
	root := RootView(s)
	child := root.Child().Child() // two levels of inheritance
	got, err := child.Bind("/services/net")
	if err != nil || got != net {
		t.Fatalf("inherited bind = %v, %v", got, err)
	}
}

func TestViewOverride(t *testing.T) {
	s := NewSpace(nil)
	real := inst("net")
	fake := inst("mocknet")
	if err := s.Register("/services/net", real); err != nil {
		t.Fatal(err)
	}
	root := RootView(s)
	child := root.Child()
	if err := child.Override("/services/net", fake); err != nil {
		t.Fatal(err)
	}
	// Child sees the override.
	got, err := child.Bind("/services/net")
	if err != nil || got != fake {
		t.Fatalf("child bind = %v, %v", got, err)
	}
	// The root view and the space are untouched.
	got, err = root.Bind("/services/net")
	if err != nil || got != real {
		t.Fatalf("root bind = %v, %v", got, err)
	}
	// A grandchild inherits the override.
	got, err = child.Child().Bind("/services/net")
	if err != nil || got != fake {
		t.Fatalf("grandchild bind = %v, %v", got, err)
	}
}

func TestViewOverrideShadowsParentOverride(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Register("/x", inst("base")); err != nil {
		t.Fatal(err)
	}
	a, b := inst("a"), inst("b")
	parent := RootView(s).Child()
	if err := parent.Override("/x", a); err != nil {
		t.Fatal(err)
	}
	child := parent.Child()
	if err := child.Override("/x", b); err != nil {
		t.Fatal(err)
	}
	got, _ := child.Bind("/x")
	if got != b {
		t.Fatal("child override did not shadow parent's")
	}
}

func TestViewAlias(t *testing.T) {
	s := NewSpace(nil)
	debug := inst("net-debug")
	if err := s.Register("/services/net", inst("net")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("/services/net-debug", debug); err != nil {
		t.Fatal(err)
	}
	v := RootView(s).Child()
	if err := v.Alias("/services/net", "/services/net-debug"); err != nil {
		t.Fatal(err)
	}
	got, err := v.Bind("/services/net")
	if err != nil || got != debug {
		t.Fatalf("aliased bind = %v, %v", got, err)
	}
	if err := v.Alias("/a", "/a"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("self alias: %v", err)
	}
}

func TestViewAliasCycleDetected(t *testing.T) {
	s := NewSpace(nil)
	v := RootView(s).Child()
	if err := v.Alias("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if err := v.Alias("/b", "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Bind("/a"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("cycle: %v", err)
	}
}

func TestViewClearOverride(t *testing.T) {
	s := NewSpace(nil)
	real := inst("real")
	if err := s.Register("/x", real); err != nil {
		t.Fatal(err)
	}
	v := RootView(s).Child()
	if err := v.Override("/x", inst("fake")); err != nil {
		t.Fatal(err)
	}
	if err := v.clearOverride("/x"); err != nil {
		t.Fatal(err)
	}
	got, _ := v.Bind("/x")
	if got != real {
		t.Fatal("override still active after clear")
	}
	if err := v.clearOverride("/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double clear: %v", err)
	}
	// Clearing an alias works too.
	if err := v.Alias("/x", "/y"); err != nil {
		t.Fatal(err)
	}
	if err := v.clearOverride("/x"); err != nil {
		t.Fatal(err)
	}
}

func TestViewOverridesListing(t *testing.T) {
	s := NewSpace(nil)
	v := RootView(s).Child()
	if err := v.Override("/b", inst("x")); err != nil {
		t.Fatal(err)
	}
	if err := v.Alias("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got := v.overrides()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("Overrides = %v", got)
	}
}

func TestViewOverrideValidation(t *testing.T) {
	v := RootView(NewSpace(nil))
	if err := v.Override("/x", nil); !errors.Is(err, ErrBadPath) {
		t.Fatalf("nil: %v", err)
	}
	if err := v.Override("/", inst("x")); !errors.Is(err, ErrBadPath) {
		t.Fatalf("root: %v", err)
	}
}

func TestBindInterface(t *testing.T) {
	s := NewSpace(nil)
	o := obj.New("ctr", nil)
	decl := obj.MustInterfaceDecl("i.v1", obj.MethodDecl{Name: "f", NumIn: 0, NumOut: 0})
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	bi.MustBind("f", func(...any) ([]any, error) { called = true; return nil, nil })
	if err := s.Register("/o", o); err != nil {
		t.Fatal(err)
	}
	v := RootView(s)
	iv, err := v.BindInterface("/o", "i.v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(iv, "f"); err != nil || !called {
		t.Fatalf("invoke: %v, called=%v", err, called)
	}
	if _, err := v.BindInterface("/o", "missing"); !errors.Is(err, obj.ErrNoInterface) {
		t.Fatalf("missing iface: %v", err)
	}
	if _, err := v.BindInterface("/missing", "i.v1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing path: %v", err)
	}
}

// Property: register-then-bind returns the same instance for any
// well-formed path.
func TestRegisterBindProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		s := NewSpace(nil)
		p := Join("d"+string(rune('a'+a%26)), "leaf"+string(rune('a'+b%26)))
		x := inst(p)
		if err := s.Register(p, x); err != nil {
			return false
		}
		got, err := s.Bind(p)
		return err == nil && got == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: view overrides never leak into the parent view.
func TestOverrideIsolationProperty(t *testing.T) {
	f := func(n uint8) bool {
		s := NewSpace(nil)
		base := inst("base")
		if err := s.Register("/svc", base); err != nil {
			return false
		}
		root := RootView(s)
		views := make([]*View, 0, int(n%8)+1)
		for i := 0; i <= int(n%8); i++ {
			v := root.Child()
			if err := v.Override("/svc", inst("override")); err != nil {
				return false
			}
			views = append(views, v)
		}
		got, err := root.Bind("/svc")
		if err != nil || got != base {
			return false
		}
		for _, v := range views {
			got, err := v.Bind("/svc")
			if err != nil || got == base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
