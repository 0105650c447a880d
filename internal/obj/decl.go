// Package obj implements the Paramecium software architecture of
// Section 2 of the paper: coarse-grained objects that export one or
// more *named interfaces*, where an interface is "a set of methods,
// state pointers and type information". The package also provides the
// two structuring mechanisms the paper builds on top of objects:
// method delegation (code sharing) and composition (encapsulation of
// object instances, applicable recursively).
//
// Both operating-system components (drivers, protocol stacks,
// schedulers) and application components (allocators, matrices) are
// expressed in this one architecture so that they can be interchanged
// and relocated between protection domains.
package obj

import (
	"errors"
	"fmt"
	"sort"
)

// Method is a late-bound method implementation. Arguments and results
// are dynamically typed; the interface declaration carries the arity
// used for call validation, mirroring the paper's "type information".
type Method func(args ...any) ([]any, error)

// MethodInto is the buffer-threading form of a method implementation:
// results are appended to out — a caller-owned slice, possibly empty
// but with capacity — and the extended slice is returned. A method
// bound in this form (BindInto) and invoked through
// MethodHandle.CallInto completes without allocating when out has
// room, which is what keeps the single-call invocation hot path
// allocation-free. Implementations must append to out (never replace
// it) and must not retain it after returning.
type MethodInto func(out []any, args ...any) ([]any, error)

// MethodDecl declares one method of an interface: its name and arity.
type MethodDecl struct {
	Name   string
	NumIn  int
	NumOut int

	// slot is the method's index within its interface, assigned by
	// NewInterfaceDecl. Bound interfaces store implementations in a
	// flat array indexed by slot, so a pre-resolved handle dispatches
	// without a map lookup.
	slot int
}

// Slot returns the method's index within its interface. Only
// meaningful on declarations obtained from an InterfaceDecl.
func (m *MethodDecl) Slot() int { return m.slot }

// InterfaceDecl is the type information of a named interface. Decls are
// immutable after construction and may be shared between many objects.
type InterfaceDecl struct {
	// Name identifies the interface, e.g. "paramecium.rpc.v1".
	// Objects may export several independently named interfaces; adding
	// a new one (say a measurement interface) never invalidates
	// existing users of the others.
	Name    string
	Methods []MethodDecl

	byName map[string]*MethodDecl
}

// NewInterfaceDecl builds a declaration. Method names must be unique.
func NewInterfaceDecl(name string, methods ...MethodDecl) (*InterfaceDecl, error) {
	if name == "" {
		return nil, errors.New("obj: empty interface name")
	}
	d := &InterfaceDecl{Name: name, Methods: methods, byName: make(map[string]*MethodDecl, len(methods))}
	for i := range methods {
		m := &d.Methods[i]
		if m.Name == "" {
			return nil, fmt.Errorf("obj: interface %q has an unnamed method", name)
		}
		if _, dup := d.byName[m.Name]; dup {
			return nil, fmt.Errorf("obj: interface %q declares method %q twice", name, m.Name)
		}
		m.slot = i
		d.byName[m.Name] = m
	}
	return d, nil
}

// MustInterfaceDecl is NewInterfaceDecl that panics on error; intended
// for package-level declarations of well-known interfaces.
func MustInterfaceDecl(name string, methods ...MethodDecl) *InterfaceDecl {
	d, err := NewInterfaceDecl(name, methods...)
	if err != nil {
		panic(err)
	}
	return d
}

// Method returns the declaration of a method by name.
func (d *InterfaceDecl) Method(name string) (*MethodDecl, bool) {
	m, ok := d.byName[name]
	return m, ok
}

// MethodNames returns the declared method names in sorted order.
func (d *InterfaceDecl) MethodNames() []string {
	out := make([]string, 0, len(d.Methods))
	for _, m := range d.Methods {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// Invoker is the universal calling surface of a bound interface. Real
// objects, interposers and cross-domain proxies all satisfy it, which
// is what lets the name space hand out any of them interchangeably.
type Invoker interface {
	// Decl returns the interface's type information.
	Decl() *InterfaceDecl
	// State returns the interface's state pointer (may be nil).
	State() any
	// Resolve pre-binds a method, returning a handle whose Call
	// dispatches by slot index with no per-call name lookup. The
	// handle observes later rebinding of the slot (late binding is
	// preserved); it fails only for undeclared methods.
	Resolve(method string) (MethodHandle, error)
}

// Invoke calls a method of iv by name: Resolve, then Call. It is the
// one by-name path for every Invoker, so a call by name dispatches,
// charges and fails exactly as a pre-resolved handle does; it pays the
// name lookup on every call, so a hot path resolves once instead.
func Invoke(iv Invoker, method string, args ...any) ([]any, error) {
	h, err := iv.Resolve(method)
	if err != nil {
		return nil, err
	}
	return h.Call(args...)
}

// Instance is anything that can be registered in, and bound from, the
// name space: an object, a composition, an interposing agent or a
// proxy for an object in another protection domain.
type Instance interface {
	// Class is the component (not instance) name, e.g. "netdriver".
	Class() string
	// InterfaceNames lists the exported interfaces, sorted.
	InterfaceNames() []string
	// Iface returns the named exported interface.
	Iface(name string) (Invoker, bool)
}

// Errors shared across implementations of Invoker.
var (
	ErrNoInterface = errors.New("obj: no such interface")
	ErrNoMethod    = errors.New("obj: no such method")
	ErrUnbound     = errors.New("obj: method declared but not bound")
	ErrArity       = errors.New("obj: wrong number of arguments")
)

// CheckArity validates an argument list against a method declaration.
func CheckArity(d *MethodDecl, args []any) error {
	if d.NumIn >= 0 && len(args) != d.NumIn {
		return fmt.Errorf("%w: %s takes %d args, got %d", ErrArity, d.Name, d.NumIn, len(args))
	}
	return nil
}

// CheckResults validates a result list against a method declaration,
// so an implementation cannot silently return the wrong number of
// results past the interface's type information.
func CheckResults(d *MethodDecl, results []any) error {
	if d.NumOut >= 0 && len(results) != d.NumOut {
		return fmt.Errorf("%w: %s returns %d results, got %d", ErrArity, d.Name, d.NumOut, len(results))
	}
	return nil
}
