package obj

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
)

// Interposer is an interposing agent in the sense of Jones [3] as used
// by the paper: an object that "exports a superset of the original
// object's interfaces, reimplements those methods it sees fit and
// forwards the others to the original object". Replacing an object
// handle in the name space with an interposer transparently puts the
// agent on every future binding — the basis of the paper's monitoring
// and debugging tools.
//
// Like the name space, the interposer is copy-on-write: calls read an
// atomically published immutable snapshot of the wrap set, meter and
// extra interfaces, so the invocation path takes no lock no matter how
// many goroutines share it. Wrap, SetMeter and AddExtraInterface
// serialize among themselves and publish a new snapshot; a mutation
// made at any time — before or after Iface or Resolve — is observed by
// the very next call.
type Interposer struct {
	class  string
	target Instance

	state atomic.Pointer[ipState]
	wmu   sync.Mutex // serializes mutations
}

// ipState is one immutable snapshot of the interposer's configuration.
type ipState struct {
	meter  *clock.Meter
	wraps  map[string]map[string]WrapFunc // iface -> method -> wrapper
	extras map[string]Invoker             // additional interfaces (the superset part)
}

// WrapFunc reimplements one method. next invokes the original
// implementation, so a wrapper can run code before and after, modify
// arguments or results, or suppress the call entirely.
type WrapFunc func(next Method, args ...any) ([]any, error)

// NewInterposer wraps target. The interposer initially forwards
// everything; use Wrap and AddExtraInterface to specialize it.
func NewInterposer(class string, target Instance) *Interposer {
	ip := &Interposer{class: class, target: target}
	ip.state.Store(&ipState{
		wraps:  map[string]map[string]WrapFunc{},
		extras: map[string]Invoker{},
	})
	return ip
}

// Target returns the wrapped instance.
func (ip *Interposer) Target() Instance { return ip.target }

// SetMeter makes the interposer charge one indirect-call cost per
// invocation passing through it, so interposition layers are visible
// in virtual time (experiment T1).
func (ip *Interposer) SetMeter(m *clock.Meter) {
	ip.wmu.Lock()
	defer ip.wmu.Unlock()
	st := *ip.state.Load()
	st.meter = m
	ip.state.Store(&st)
}

// Class implements Instance.
func (ip *Interposer) Class() string { return ip.class }

// Wrap reimplements one method of one interface of the target.
func (ip *Interposer) Wrap(ifaceName, method string, w WrapFunc) error {
	target, ok := ip.target.Iface(ifaceName)
	if !ok {
		return fmt.Errorf("%w: target %q has no %q", ErrNoInterface, ip.target.Class(), ifaceName)
	}
	if _, ok := target.Decl().Method(method); !ok {
		return fmt.Errorf("%w: %q.%s", ErrNoMethod, ifaceName, method)
	}
	ip.wmu.Lock()
	defer ip.wmu.Unlock()
	st := *ip.state.Load()
	wraps := make(map[string]map[string]WrapFunc, len(st.wraps)+1)
	for n, m := range st.wraps {
		wraps[n] = m
	}
	methods := make(map[string]WrapFunc, len(wraps[ifaceName])+1)
	for n, f := range wraps[ifaceName] {
		methods[n] = f
	}
	methods[method] = w
	wraps[ifaceName] = methods
	st.wraps = wraps
	ip.state.Store(&st)
	return nil
}

// AddExtraInterface exports an interface the target does not have —
// the "superset" in the paper's definition (e.g. a measurement
// interface on a wrapped RPC object).
func (ip *Interposer) AddExtraInterface(iv Invoker) error {
	name := iv.Decl().Name
	if _, ok := ip.target.Iface(name); ok {
		return fmt.Errorf("obj: %q already exported by target; use Wrap", name)
	}
	ip.wmu.Lock()
	defer ip.wmu.Unlock()
	st := *ip.state.Load()
	if _, dup := st.extras[name]; dup {
		return fmt.Errorf("obj: extra interface %q already added", name)
	}
	extras := make(map[string]Invoker, len(st.extras)+1)
	for n, e := range st.extras {
		extras[n] = e
	}
	extras[name] = iv
	st.extras = extras
	ip.state.Store(&st)
	return nil
}

// InterfaceNames implements Instance: the union of the target's
// interfaces and the extras, sorted.
func (ip *Interposer) InterfaceNames() []string {
	names := ip.target.InterfaceNames()
	for n := range ip.state.Load().extras {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Iface implements Instance.
func (ip *Interposer) Iface(name string) (Invoker, bool) {
	if extra, ok := ip.state.Load().extras[name]; ok {
		return extra, true
	}
	target, ok := ip.target.Iface(name)
	if !ok {
		return nil, false
	}
	return &interposedIface{ip: ip, name: name, target: target}, true
}

// interposedIface presents one interface of the target with wrappers
// applied. Unwrapped methods forward directly. It keeps no wrap-set
// snapshot of its own: every call loads the interposer's current
// state — one atomic load, no lock — so a Wrap or SetMeter installed
// at any time is observed by the very next call, from any goroutine.
type interposedIface struct {
	ip     *Interposer
	name   string
	target Invoker
}

func (ii *interposedIface) Decl() *InterfaceDecl { return ii.target.Decl() }
func (ii *interposedIface) State() any           { return ii.target.State() }

// Resolve implements Invoker. The target's handle is resolved once,
// so repeated calls pay neither the interposer's nor the target's
// name lookup; the wrapper is looked up per call from the
// interposer's current state, so a Wrap installed after Resolve is
// observed by live handles.
func (ii *interposedIface) Resolve(method string) (MethodHandle, error) {
	th, err := ii.target.Resolve(method)
	if err != nil {
		return MethodHandle{}, err
	}
	return MethodHandle{decl: th.decl, call: func(args ...any) ([]any, error) {
		st := ii.ip.state.Load()
		if st.meter != nil {
			st.meter.ChargeFor(clock.KernelDomain, clock.OpIndirect)
		}
		if w, ok := st.wraps[ii.name][method]; ok {
			return w(th.Call, args...)
		}
		return th.call(args...)
	}}, nil
}

var _ Instance = (*Interposer)(nil)
var _ Invoker = (*interposedIface)(nil)
