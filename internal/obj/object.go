package obj

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
)

// Origin records whether an object instance was composed statically
// (at link time, like the resident nucleus) or dynamically (at run
// time, the common case).
type Origin int

// Origins.
const (
	LinkTime Origin = iota
	RunTime
)

func (o Origin) String() string {
	if o == LinkTime {
		return "link-time"
	}
	return "run-time"
}

// Object is a concrete component instance: methods plus instance data,
// exporting one or more named interfaces. Objects are coarse grained —
// a scheduler, an IP layer, a device driver, a memory allocator.
type Object struct {
	class  string
	origin Origin
	meter  *clock.Meter

	mu     sync.RWMutex
	ifaces map[string]*BoundInterface
}

// New creates an empty object of the given class. meter may be nil
// (no cycle accounting), which the unit tests of higher layers use.
func New(class string, meter *clock.Meter) *Object {
	return &Object{
		class:  class,
		origin: RunTime,
		meter:  meter,
		ifaces: make(map[string]*BoundInterface),
	}
}

// NewStatic creates a link-time object (used for the resident nucleus).
func NewStatic(class string, meter *clock.Meter) *Object {
	o := New(class, meter)
	o.origin = LinkTime
	return o
}

// Class implements Instance.
func (o *Object) Class() string { return o.class }

// Origin reports how the instance was composed.
func (o *Object) Origin() Origin { return o.origin }

// AddInterface exports a new named interface with the given state
// pointer. All methods start unbound; use Bind or Delegate. Exporting
// an additional interface never disturbs existing interfaces — this is
// the paper's interface-evolution story.
func (o *Object) AddInterface(decl *InterfaceDecl, state any) (*BoundInterface, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.ifaces[decl.Name]; dup {
		return nil, fmt.Errorf("obj: object %q already exports %q", o.class, decl.Name)
	}
	bi := newBoundInterface(decl, state, o.meter)
	o.ifaces[decl.Name] = bi
	return bi, nil
}

// RemoveInterface withdraws an exported interface.
func (o *Object) RemoveInterface(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.ifaces[name]; !ok {
		return fmt.Errorf("%w: %q on %q", ErrNoInterface, name, o.class)
	}
	delete(o.ifaces, name)
	return nil
}

// Iface implements Instance.
func (o *Object) Iface(name string) (Invoker, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	bi, ok := o.ifaces[name]
	if !ok {
		return nil, false
	}
	return bi, true
}

// Bound returns the concrete bound interface (for binding methods).
func (o *Object) Bound(name string) (*BoundInterface, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	bi, ok := o.ifaces[name]
	return bi, ok
}

// InterfaceNames implements Instance.
func (o *Object) InterfaceNames() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]string, 0, len(o.ifaces))
	for n := range o.ifaces {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Delegate binds every still-unbound method of the named interface to
// the same-named interface of another instance, forwarding calls. This
// is the paper's method delegation: the delegating object shares the
// delegate's code while keeping its own identity and any methods it
// bound itself. Forwarding goes through a handle pre-resolved at
// delegation time, so delegated calls skip the target's name lookup.
func (o *Object) Delegate(ifaceName string, to Instance) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	bi, ok := o.ifaces[ifaceName]
	if !ok {
		return fmt.Errorf("%w: %q on %q", ErrNoInterface, ifaceName, o.class)
	}
	target, ok := to.Iface(ifaceName)
	if !ok {
		return fmt.Errorf("%w: delegate %q does not export %q", ErrNoInterface, to.Class(), ifaceName)
	}
	for i := range bi.decl.Methods {
		m := &bi.decl.Methods[i]
		var fn Method
		if h, err := target.Resolve(m.Name); err == nil {
			fn = h.Call
		} else {
			// The target declares a different method set; keep the
			// late-bound forward so the mismatch surfaces per call.
			name := m.Name
			fn = func(args ...any) ([]any, error) {
				return target.Invoke(name, args...)
			}
		}
		// Only bind slots still empty: methods the object bound itself
		// take precedence over the delegate's.
		bi.slots[m.slot].CompareAndSwap(nil, &methodImpl{fn: fn})
	}
	return nil
}

// FullyBound reports whether every declared method of every exported
// interface has an implementation. The repository loader refuses to
// register incompletely bound instances.
func (o *Object) FullyBound() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, bi := range o.ifaces {
		if !bi.fullyBound() {
			return false
		}
	}
	return true
}

// BoundInterface is an interface exported by a concrete object: the
// declaration, the state pointer, and the bound method slots. Slots
// are a flat array indexed by the declaration's slot numbers; each
// slot is an atomic pointer so the invocation path never takes a
// lock, while Bind and Delegate may still rewire methods at run time.
type BoundInterface struct {
	decl  *InterfaceDecl
	state any
	meter *clock.Meter

	slots   []atomic.Pointer[methodImpl]
	handles []MethodHandle
}

// methodImpl is one slot's implementation: the plain dispatch form and
// optionally the buffer-threading form. fn is always set (BindInto
// wraps the into form), so every caller of the plain path works no
// matter how the method was bound.
type methodImpl struct {
	fn   Method
	into MethodInto
}

// newBoundInterface allocates the slot array and pre-builds one
// dispatch handle per declared method.
func newBoundInterface(decl *InterfaceDecl, state any, meter *clock.Meter) *BoundInterface {
	b := &BoundInterface{
		decl:    decl,
		state:   state,
		meter:   meter,
		slots:   make([]atomic.Pointer[methodImpl], len(decl.Methods)),
		handles: make([]MethodHandle, len(decl.Methods)),
	}
	for i := range decl.Methods {
		md := &decl.Methods[i]
		slot := &b.slots[i]
		b.handles[i] = MethodHandle{
			decl: md,
			call: func(args ...any) ([]any, error) {
				m := slot.Load()
				if m == nil {
					return nil, fmt.Errorf("%w: %q.%s", ErrUnbound, decl.Name, md.Name)
				}
				if meter != nil {
					meter.ChargeFor(clock.KernelDomain, clock.OpIndirect)
				}
				return m.fn(args...)
			},
			into: func(out []any, args ...any) ([]any, error) {
				m := slot.Load()
				if m == nil {
					return nil, fmt.Errorf("%w: %q.%s", ErrUnbound, decl.Name, md.Name)
				}
				if meter != nil {
					meter.ChargeFor(clock.KernelDomain, clock.OpIndirect)
				}
				if m.into != nil {
					return m.into(out, args...)
				}
				res, err := m.fn(args...)
				if err != nil {
					return nil, err
				}
				return append(out, res...), nil
			},
		}
	}
	return b
}

// Decl implements Invoker.
func (b *BoundInterface) Decl() *InterfaceDecl { return b.decl }

// State implements Invoker.
func (b *BoundInterface) State() any { return b.state }

// Bind installs the implementation of one declared method.
func (b *BoundInterface) Bind(method string, fn Method) error {
	md, ok := b.decl.Method(method)
	if !ok {
		return fmt.Errorf("%w: %q not declared by %q", ErrNoMethod, method, b.decl.Name)
	}
	if fn == nil {
		return fmt.Errorf("obj: nil implementation for %q.%s", b.decl.Name, method)
	}
	b.slots[md.slot].Store(&methodImpl{fn: fn})
	return nil
}

// MustBind is Bind that panics on error, for construction-time wiring.
func (b *BoundInterface) MustBind(method string, fn Method) *BoundInterface {
	if err := b.Bind(method, fn); err != nil {
		panic(err)
	}
	return b
}

// BindInto installs a method in the buffer-threading form: callers
// that go through MethodHandle.CallInto hand the implementation a
// result buffer to append into, so the invocation allocates nothing.
// Plain Invoke/Call callers are served by a wrapper that passes a nil
// buffer, preserving the ordinary return-a-fresh-slice semantics.
func (b *BoundInterface) BindInto(method string, fn MethodInto) error {
	md, ok := b.decl.Method(method)
	if !ok {
		return fmt.Errorf("%w: %q not declared by %q", ErrNoMethod, method, b.decl.Name)
	}
	if fn == nil {
		return fmt.Errorf("obj: nil implementation for %q.%s", b.decl.Name, method)
	}
	b.slots[md.slot].Store(&methodImpl{
		fn:   func(args ...any) ([]any, error) { return fn(nil, args...) },
		into: fn,
	})
	return nil
}

// MustBindInto is BindInto that panics on error.
func (b *BoundInterface) MustBindInto(method string, fn MethodInto) *BoundInterface {
	if err := b.BindInto(method, fn); err != nil {
		panic(err)
	}
	return b
}

// Resolve implements Invoker: one name lookup returns the method's
// pre-built handle. The handle tracks the slot, not the current
// implementation, so rebinding after Resolve is still observed.
func (b *BoundInterface) Resolve(method string) (MethodHandle, error) {
	md, ok := b.decl.Method(method)
	if !ok {
		return MethodHandle{}, fmt.Errorf("%w: %q.%s", ErrNoMethod, b.decl.Name, method)
	}
	return b.handles[md.slot], nil
}

// Invoke implements Invoker as the compatibility path: a name lookup
// followed by the same slot dispatch a pre-resolved handle performs
// (arity validation, one indirect-call charge, result validation).
func (b *BoundInterface) Invoke(method string, args ...any) ([]any, error) {
	h, err := b.Resolve(method)
	if err != nil {
		return nil, err
	}
	return h.Call(args...)
}

// fullyBound reports whether every slot holds an implementation.
func (b *BoundInterface) fullyBound() bool {
	for i := range b.slots {
		if b.slots[i].Load() == nil {
			return false
		}
	}
	return true
}

var _ Invoker = (*BoundInterface)(nil)
var _ Instance = (*Object)(nil)
