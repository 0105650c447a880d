package obj

import (
	"errors"
	"testing"
)

func handleTestIface(t *testing.T) (*Object, *BoundInterface, Invoker) {
	t.Helper()
	decl := MustInterfaceDecl("h.v1",
		MethodDecl{Name: "a", NumIn: 0, NumOut: 1},
		MethodDecl{Name: "b", NumIn: 1, NumOut: 0},
	)
	o := New("h", nil)
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := o.Iface("h.v1")
	return o, bi, iv
}

func TestDeclSlotAssignment(t *testing.T) {
	decl := MustInterfaceDecl("s.v1",
		MethodDecl{Name: "x"}, MethodDecl{Name: "y"}, MethodDecl{Name: "z"})
	for i, name := range []string{"x", "y", "z"} {
		md, ok := decl.Method(name)
		if !ok || md.Slot() != i {
			t.Fatalf("method %q slot = %d, want %d", name, md.Slot(), i)
		}
	}
}

func TestResolveSeesLaterBind(t *testing.T) {
	_, bi, iv := handleTestIface(t)
	h, err := iv.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	// Resolved before any binding: the slot is empty.
	if _, err := h.Call(); !errors.Is(err, ErrUnbound) {
		t.Fatalf("call on empty slot = %v, want ErrUnbound", err)
	}
	bi.MustBind("a", func(...any) ([]any, error) { return []any{1}, nil })
	res, err := h.Call()
	if err != nil || res[0] != 1 {
		t.Fatalf("call after bind = %v, %v", res, err)
	}
	// Rebind: same handle, new implementation.
	bi.MustBind("a", func(...any) ([]any, error) { return []any{2}, nil })
	res, err = h.Call()
	if err != nil || res[0] != 2 {
		t.Fatalf("call after rebind = %v, %v", res, err)
	}
}

func TestZeroHandleInvalid(t *testing.T) {
	var h MethodHandle
	if h.Valid() {
		t.Fatal("zero handle claims validity")
	}
	if _, err := h.Call(); !errors.Is(err, ErrUnbound) {
		t.Fatalf("zero handle call = %v, want ErrUnbound", err)
	}
	if NewMethodHandle(nil, nil).Valid() {
		t.Fatal("NewMethodHandle(nil, nil) claims validity")
	}
}

func TestResultArityValidatedBothPaths(t *testing.T) {
	_, bi, iv := handleTestIface(t)
	bi.MustBind("a", func(...any) ([]any, error) { return []any{1, 2}, nil }) // declares 1 result
	if _, err := Invoke(iv, "a"); !errors.Is(err, ErrArity) {
		t.Fatalf("Invoke wrong result count = %v, want ErrArity", err)
	}
	h, err := iv.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(); !errors.Is(err, ErrArity) {
		t.Fatalf("handle wrong result count = %v, want ErrArity", err)
	}
	// Errors are exempt: a failing method may return any result list.
	bi.MustBind("b", func(...any) ([]any, error) { return []any{1, 2, 3}, errors.New("boom") })
	if _, err := Invoke(iv, "b", 0); err == nil || errors.Is(err, ErrArity) {
		t.Fatalf("failing method = %v, want its own error", err)
	}
}

func TestDelegatePrefersOwnBindings(t *testing.T) {
	decl := MustInterfaceDecl("d.v1",
		MethodDecl{Name: "own", NumIn: 0, NumOut: 1},
		MethodDecl{Name: "shared", NumIn: 0, NumOut: 1},
	)
	backend := New("backend", nil)
	bbi, err := backend.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bbi.MustBind("own", func(...any) ([]any, error) { return []any{"backend"}, nil }).
		MustBind("shared", func(...any) ([]any, error) { return []any{"backend"}, nil })

	front := New("front", nil)
	fbi, err := front.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	fbi.MustBind("own", func(...any) ([]any, error) { return []any{"front"}, nil })
	if err := front.Delegate("d.v1", backend); err != nil {
		t.Fatal(err)
	}
	iv, _ := front.Iface("d.v1")
	for method, want := range map[string]string{"own": "front", "shared": "backend"} {
		h, err := iv.Resolve(method)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Call()
		if err != nil || res[0] != want {
			t.Fatalf("%s = %v, %v; want %q", method, res, err, want)
		}
	}
	if !front.FullyBound() {
		t.Fatal("delegated object not fully bound")
	}
}

func TestInterposerResolveTransparent(t *testing.T) {
	o, bi, _ := handleTestIface(t)
	bi.MustBind("a", func(...any) ([]any, error) { return []any{10}, nil }).
		MustBind("b", func(...any) ([]any, error) { return nil, nil })

	ip := NewInterposer("mon", o)
	calls := 0
	if err := ip.Wrap("h.v1", "a", func(next Method, args ...any) ([]any, error) {
		calls++
		return next(args...)
	}); err != nil {
		t.Fatal(err)
	}
	iv, ok := ip.Iface("h.v1")
	if !ok {
		t.Fatal("interface lost")
	}
	ha, err := iv.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ha.Call()
	if err != nil || res[0] != 10 || calls != 1 {
		t.Fatalf("wrapped handle = %v, %v (calls=%d)", res, err, calls)
	}
	// Unwrapped method on an unmetered interposer resolves straight
	// through to the target's own handle.
	hb, err := iv.Resolve("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Call(1); err != nil {
		t.Fatal(err)
	}
	if _, err := iv.Resolve("nope"); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("Resolve undeclared through interposer = %v", err)
	}
}

func TestInterposerWrapAfterResolveObserved(t *testing.T) {
	o, bi, _ := handleTestIface(t)
	bi.MustBind("a", func(...any) ([]any, error) { return []any{1}, nil })
	ip := NewInterposer("mon", o)
	// Ensure the interface's wrap set exists before Iface, as it would
	// for any interposer that wraps at least one method.
	if err := ip.Wrap("h.v1", "b", func(next Method, args ...any) ([]any, error) {
		return next(args...)
	}); err != nil {
		t.Fatal(err)
	}
	iv, _ := ip.Iface("h.v1")
	h, err := iv.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.Call(); err != nil || res[0] != 1 {
		t.Fatalf("pre-wrap call = %v, %v", res, err)
	}
	// A wrapper installed after Resolve must be observed by the live
	// handle, exactly as a call by name observes it.
	if err := ip.Wrap("h.v1", "a", func(next Method, args ...any) ([]any, error) {
		return []any{99}, nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Invoke(iv, "a")
	if err != nil || res[0] != 99 {
		t.Fatalf("Invoke after late wrap = %v, %v", res, err)
	}
	res, err = h.Call()
	if err != nil || res[0] != 99 {
		t.Fatalf("handle Call after late wrap = %v, %v; diverges from Invoke", res, err)
	}
}

func TestCompositionExportUsesHandles(t *testing.T) {
	decl := MustInterfaceDecl("c.v1", MethodDecl{Name: "f", NumIn: 0, NumOut: 1})
	child := New("child", nil)
	cbi, err := child.AddInterface(decl, nil)
	if err != nil {
		t.Fatal(err)
	}
	cbi.MustBind("f", func(...any) ([]any, error) { return []any{"child"}, nil })
	comp := NewComposition("comp", nil)
	if err := comp.AddChild("part", child); err != nil {
		t.Fatal(err)
	}
	if err := comp.ExportChildInterface("part", "c.v1"); err != nil {
		t.Fatal(err)
	}
	iv, _ := comp.Iface("c.v1")
	h, err := iv.Resolve("f")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Call()
	if err != nil || res[0] != "child" {
		t.Fatalf("composed handle = %v, %v", res, err)
	}
}
