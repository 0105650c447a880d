package obj

import (
	"errors"
	"testing"

	"paramecium/internal/clock"
)

var counterDecl = MustInterfaceDecl("test.counter.v1",
	MethodDecl{Name: "inc", NumIn: 1, NumOut: 1},
	MethodDecl{Name: "get", NumIn: 0, NumOut: 1},
)

// newCounter builds a counter object exporting test.counter.v1.
func newCounter(meter *clock.Meter) *Object {
	o := New("counter", meter)
	state := new(int)
	bi, err := o.AddInterface(counterDecl, state)
	if err != nil {
		panic(err)
	}
	bi.MustBind("inc", func(args ...any) ([]any, error) {
		*state += args[0].(int)
		return []any{*state}, nil
	}).MustBind("get", func(args ...any) ([]any, error) {
		return []any{*state}, nil
	})
	return o
}

func TestInterfaceDeclValidation(t *testing.T) {
	if _, err := NewInterfaceDecl(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewInterfaceDecl("x", MethodDecl{Name: ""}); err == nil {
		t.Fatal("unnamed method accepted")
	}
	if _, err := NewInterfaceDecl("x", MethodDecl{Name: "a"}, MethodDecl{Name: "a"}); err == nil {
		t.Fatal("duplicate method accepted")
	}
	d, err := NewInterfaceDecl("x", MethodDecl{Name: "a", NumIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := d.Method("a"); !ok || m.NumIn != 2 {
		t.Fatal("Method lookup failed")
	}
	if _, ok := d.Method("b"); ok {
		t.Fatal("phantom method found")
	}
}

func TestMustInterfaceDeclPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustInterfaceDecl("")
}

func TestMethodNamesSorted(t *testing.T) {
	d := MustInterfaceDecl("x", MethodDecl{Name: "zz"}, MethodDecl{Name: "aa"})
	names := d.MethodNames()
	if len(names) != 2 || names[0] != "aa" || names[1] != "zz" {
		t.Fatalf("names = %v", names)
	}
}

func TestObjectInvoke(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	o := newCounter(meter)
	iv, ok := o.Iface("test.counter.v1")
	if !ok {
		t.Fatal("interface missing")
	}
	res, err := Invoke(iv, "inc", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int) != 5 {
		t.Fatalf("inc = %v", res)
	}
	res, err = Invoke(iv, "get")
	if err != nil || res[0].(int) != 5 {
		t.Fatalf("get = %v, %v", res, err)
	}
	if meter.Count(clock.OpIndirect) != 2 {
		t.Fatalf("indirect calls charged = %d", meter.Count(clock.OpIndirect))
	}
	if iv.State() == nil {
		t.Fatal("state pointer lost")
	}
}

func TestInvokeErrors(t *testing.T) {
	o := newCounter(nil)
	iv, _ := o.Iface("test.counter.v1")
	if _, err := Invoke(iv, "nonexistent"); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("no method: %v", err)
	}
	if _, err := Invoke(iv, "inc"); !errors.Is(err, ErrArity) {
		t.Fatalf("bad arity: %v", err)
	}
	if _, err := Invoke(iv, "inc", 1, 2); !errors.Is(err, ErrArity) {
		t.Fatalf("bad arity: %v", err)
	}
}

func TestUnboundMethod(t *testing.T) {
	o := New("partial", nil)
	bi, err := o.AddInterface(counterDecl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.FullyBound() {
		t.Fatal("object with unbound methods reports FullyBound")
	}
	if _, err := Invoke(bi, "inc", 1); !errors.Is(err, ErrUnbound) {
		t.Fatalf("unbound: %v", err)
	}
}

func TestBindValidation(t *testing.T) {
	o := New("x", nil)
	bi, _ := o.AddInterface(counterDecl, nil)
	if err := bi.Bind("nope", func(...any) ([]any, error) { return nil, nil }); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("bind undeclared: %v", err)
	}
	if err := bi.Bind("inc", nil); err == nil {
		t.Fatal("nil implementation accepted")
	}
}

func TestDuplicateInterface(t *testing.T) {
	o := New("x", nil)
	if _, err := o.AddInterface(counterDecl, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddInterface(counterDecl, nil); err == nil {
		t.Fatal("duplicate interface accepted")
	}
}

func TestRemoveInterface(t *testing.T) {
	o := newCounter(nil)
	if err := o.RemoveInterface("test.counter.v1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Iface("test.counter.v1"); ok {
		t.Fatal("interface still present")
	}
	if err := o.RemoveInterface("test.counter.v1"); !errors.Is(err, ErrNoInterface) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestInterfaceEvolution(t *testing.T) {
	// Adding a measurement interface must not disturb the original.
	o := newCounter(nil)
	measureDecl := MustInterfaceDecl("test.measure.v1", MethodDecl{Name: "stats", NumIn: 0, NumOut: 1})
	bi, err := o.AddInterface(measureDecl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("stats", func(...any) ([]any, error) { return []any{"ok"}, nil })
	names := o.InterfaceNames()
	if len(names) != 2 || names[0] != "test.counter.v1" || names[1] != "test.measure.v1" {
		t.Fatalf("names = %v", names)
	}
	iv, _ := o.Iface("test.counter.v1")
	if _, err := Invoke(iv, "inc", 1); err != nil {
		t.Fatalf("original interface broken: %v", err)
	}
}

func TestDelegation(t *testing.T) {
	backend := newCounter(nil)
	front := New("front", nil)
	if _, err := front.AddInterface(counterDecl, nil); err != nil {
		t.Fatal(err)
	}
	// Bind "get" locally, delegate the rest ("inc") to backend.
	bi, _ := front.Bound("test.counter.v1")
	localGets := 0
	bi.MustBind("get", func(...any) ([]any, error) {
		localGets++
		biv, _ := backend.Iface("test.counter.v1")
		return Invoke(biv, "get")
	})
	if err := front.Delegate("test.counter.v1", backend); err != nil {
		t.Fatal(err)
	}
	if !front.FullyBound() {
		t.Fatal("delegation left methods unbound")
	}
	iv, _ := front.Iface("test.counter.v1")
	if _, err := Invoke(iv, "inc", 7); err != nil {
		t.Fatal(err)
	}
	res, err := Invoke(iv, "get")
	if err != nil || res[0].(int) != 7 {
		t.Fatalf("get via front = %v, %v", res, err)
	}
	if localGets != 1 {
		t.Fatal("locally bound method was overridden by delegation")
	}
}

func TestDelegateErrors(t *testing.T) {
	a, b := New("a", nil), New("b", nil)
	if err := a.Delegate("missing", b); !errors.Is(err, ErrNoInterface) {
		t.Fatalf("delegate missing iface: %v", err)
	}
	if _, err := a.AddInterface(counterDecl, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Delegate("test.counter.v1", b); !errors.Is(err, ErrNoInterface) {
		t.Fatalf("delegate to object without iface: %v", err)
	}
}

func TestOrigin(t *testing.T) {
	if New("x", nil).Origin() != RunTime {
		t.Fatal("New should be run-time")
	}
	if NewStatic("x", nil).Origin() != LinkTime {
		t.Fatal("NewStatic should be link-time")
	}
	if LinkTime.String() != "link-time" || RunTime.String() != "run-time" {
		t.Fatal("origin strings")
	}
}

func TestCompositionChildren(t *testing.T) {
	c := NewComposition("kernel", nil)
	irq := newCounter(nil)
	if err := c.AddChild("interrupts", irq); err != nil {
		t.Fatal(err)
	}
	if err := c.AddChild("interrupts", irq); err == nil {
		t.Fatal("duplicate role accepted")
	}
	if err := c.AddChild("x", nil); err == nil {
		t.Fatal("nil child accepted")
	}
	got, ok := c.Child("interrupts")
	if !ok || got != Instance(irq) {
		t.Fatal("Child lookup failed")
	}
	if _, ok := c.Child("nope"); ok {
		t.Fatal("phantom child")
	}
	if roles := c.Roles(); len(roles) != 1 || roles[0] != "interrupts" {
		t.Fatalf("roles = %v", roles)
	}
}

func TestCompositionReplaceChild(t *testing.T) {
	c := NewComposition("kernel", nil)
	first := newCounter(nil)
	second := newCounter(nil)
	if _, err := c.ReplaceChild("r", second); err == nil {
		t.Fatal("replace of missing role accepted")
	}
	if err := c.AddChild("r", first); err != nil {
		t.Fatal(err)
	}
	prev, err := c.ReplaceChild("r", second)
	if err != nil || prev != Instance(first) {
		t.Fatalf("ReplaceChild = %v, %v", prev, err)
	}
	got, _ := c.Child("r")
	if got != Instance(second) {
		t.Fatal("child not replaced")
	}
	if _, err := c.ReplaceChild("r", nil); err == nil {
		t.Fatal("nil replacement accepted")
	}
}

func TestCompositionRemoveChild(t *testing.T) {
	c := NewComposition("k", nil)
	if err := c.RemoveChild("r"); err == nil {
		t.Fatal("remove of missing role accepted")
	}
	if err := c.AddChild("r", newCounter(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveChild("r"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Child("r"); ok {
		t.Fatal("child still present")
	}
}

func TestCompositionExportChildInterface(t *testing.T) {
	c := NewComposition("facade", nil)
	inner := newCounter(nil)
	if err := c.AddChild("ctr", inner); err != nil {
		t.Fatal(err)
	}
	if err := c.ExportChildInterface("nope", "test.counter.v1"); err == nil {
		t.Fatal("export from missing child accepted")
	}
	if err := c.ExportChildInterface("ctr", "missing"); !errors.Is(err, ErrNoInterface) {
		t.Fatalf("export missing iface: %v", err)
	}
	if err := c.ExportChildInterface("ctr", "test.counter.v1"); err != nil {
		t.Fatal(err)
	}
	iv, ok := c.Iface("test.counter.v1")
	if !ok {
		t.Fatal("exported interface missing")
	}
	if _, err := Invoke(iv, "inc", 3); err != nil {
		t.Fatal(err)
	}
	// The call must have reached the child.
	innerIv, _ := inner.Iface("test.counter.v1")
	res, _ := Invoke(innerIv, "get")
	if res[0].(int) != 3 {
		t.Fatal("call did not reach child")
	}
}

func TestRecursiveComposition(t *testing.T) {
	outer := NewComposition("system", nil)
	innerComp := NewComposition("kernel", nil)
	if err := innerComp.AddChild("ctr", newCounter(nil)); err != nil {
		t.Fatal(err)
	}
	if err := outer.AddChild("kernel", innerComp); err != nil {
		t.Fatal(err)
	}
	k, ok := outer.Child("kernel")
	if !ok {
		t.Fatal("nested composition lost")
	}
	kc, ok := k.(*Composition)
	if !ok {
		t.Fatal("child is not a composition")
	}
	if _, ok := kc.Child("ctr"); !ok {
		t.Fatal("grandchild lost")
	}
}

func TestStaticComposition(t *testing.T) {
	c := NewStaticComposition("nucleus", nil)
	if c.Origin() != LinkTime {
		t.Fatal("static composition is not link-time")
	}
}

func TestInterposerForwardsByDefault(t *testing.T) {
	target := newCounter(nil)
	ip := NewInterposer("monitor", target)
	iv, ok := ip.Iface("test.counter.v1")
	if !ok {
		t.Fatal("interposer hides target interface")
	}
	if _, err := Invoke(iv, "inc", 2); err != nil {
		t.Fatal(err)
	}
	res, err := Invoke(iv, "get")
	if err != nil || res[0].(int) != 2 {
		t.Fatalf("forwarded get = %v, %v", res, err)
	}
	if ip.Target() != Instance(target) {
		t.Fatal("Target() wrong")
	}
}

func TestInterposerWrap(t *testing.T) {
	target := newCounter(nil)
	ip := NewInterposer("doubler", target)
	if err := ip.Wrap("test.counter.v1", "inc", func(next Method, args ...any) ([]any, error) {
		return next(args[0].(int) * 2) // double every increment
	}); err != nil {
		t.Fatal(err)
	}
	iv, _ := ip.Iface("test.counter.v1")
	if _, err := Invoke(iv, "inc", 3); err != nil {
		t.Fatal(err)
	}
	res, _ := Invoke(iv, "get")
	if res[0].(int) != 6 {
		t.Fatalf("wrapped inc: get = %v", res)
	}
}

func TestInterposerWrapSuppresses(t *testing.T) {
	target := newCounter(nil)
	ip := NewInterposer("firewall", target)
	if err := ip.Wrap("test.counter.v1", "inc", func(next Method, args ...any) ([]any, error) {
		return nil, errors.New("denied")
	}); err != nil {
		t.Fatal(err)
	}
	iv, _ := ip.Iface("test.counter.v1")
	if _, err := Invoke(iv, "inc", 3); err == nil {
		t.Fatal("suppressed call went through")
	}
	res, _ := Invoke(iv, "get")
	if res[0].(int) != 0 {
		t.Fatal("target state changed despite suppression")
	}
}

func TestInterposerWrapValidation(t *testing.T) {
	ip := NewInterposer("m", newCounter(nil))
	if err := ip.Wrap("missing", "inc", nil); !errors.Is(err, ErrNoInterface) {
		t.Fatalf("wrap missing iface: %v", err)
	}
	if err := ip.Wrap("test.counter.v1", "missing", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("wrap missing method: %v", err)
	}
}

func TestInterposerExtraInterface(t *testing.T) {
	target := newCounter(nil)
	ip := NewInterposer("measured", target)

	extraObj := New("stats", nil)
	statsDecl := MustInterfaceDecl("test.stats.v1", MethodDecl{Name: "count", NumIn: 0, NumOut: 1})
	bi, _ := extraObj.AddInterface(statsDecl, nil)
	bi.MustBind("count", func(...any) ([]any, error) { return []any{42}, nil })
	extraIv, _ := extraObj.Iface("test.stats.v1")

	if err := ip.AddExtraInterface(extraIv); err != nil {
		t.Fatal(err)
	}
	if err := ip.AddExtraInterface(extraIv); err == nil {
		t.Fatal("duplicate extra accepted")
	}
	names := ip.InterfaceNames()
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	iv, ok := ip.Iface("test.stats.v1")
	if !ok {
		t.Fatal("extra interface missing")
	}
	res, err := Invoke(iv, "count")
	if err != nil || res[0].(int) != 42 {
		t.Fatalf("extra invoke = %v, %v", res, err)
	}
	// Cannot add an extra that shadows a target interface.
	ctrIv, _ := target.Iface("test.counter.v1")
	if err := ip.AddExtraInterface(ctrIv); err == nil {
		t.Fatal("shadowing extra accepted")
	}
}

func TestInterposerChaining(t *testing.T) {
	// Interposers stack: monitor(doubler(counter)).
	target := newCounter(nil)
	doubler := NewInterposer("doubler", target)
	if err := doubler.Wrap("test.counter.v1", "inc", func(next Method, args ...any) ([]any, error) {
		return next(args[0].(int) * 2)
	}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	monitor := NewInterposer("monitor", doubler)
	if err := monitor.Wrap("test.counter.v1", "inc", func(next Method, args ...any) ([]any, error) {
		calls++
		return next(args...)
	}); err != nil {
		t.Fatal(err)
	}
	iv, _ := monitor.Iface("test.counter.v1")
	if _, err := Invoke(iv, "inc", 5); err != nil {
		t.Fatal(err)
	}
	res, _ := Invoke(iv, "get")
	if res[0].(int) != 10 {
		t.Fatalf("chained result = %v", res)
	}
	if calls != 1 {
		t.Fatalf("monitor saw %d calls", calls)
	}
}

func TestInterposerMissingIface(t *testing.T) {
	ip := NewInterposer("m", newCounter(nil))
	if _, ok := ip.Iface("missing"); ok {
		t.Fatal("phantom interface")
	}
}

func TestCheckArityNegativeMeansVariadic(t *testing.T) {
	d := &MethodDecl{Name: "v", NumIn: -1}
	if err := CheckArity(d, []any{1, 2, 3}); err != nil {
		t.Fatalf("variadic decl rejected args: %v", err)
	}
	if err := CheckArity(d, nil); err != nil {
		t.Fatalf("variadic decl rejected empty: %v", err)
	}
}
