package names

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

// View is an object's window onto the name space. "The name space is
// usually inherited from a parent, i.e., the object that created it.
// Each object, however, can provide a set of overrides which allows it
// to locally reconfigure its name space: that is, control the child
// objects it will import."
//
// A View resolves a path by consulting, in order: its own override set
// (instance overrides and aliases), then its parent view, and finally
// the global Space at the root of the chain.
//
// The override set is copy-on-write, mirroring Space: a probe loads an
// atomically published immutable snapshot and takes no lock at all, so
// binds through arbitrarily deep view chains are lock-free end to end.
// Mutations serialize on a writer lock, clone the set, and publish.
type View struct {
	space  *Space
	parent *View
	meter  *clock.Meter

	wmu sync.Mutex                  // serializes override mutations
	ovr atomic.Pointer[overrideSet] // current published snapshot
}

// overrideSet is one immutable snapshot of a view's local
// reconfiguration. Once published via View.ovr it is never mutated;
// writers clone it.
type overrideSet struct {
	overrides map[string]obj.Instance // canonical path -> instance
	aliases   map[string]string       // canonical path -> canonical path
}

var emptyOverrides = &overrideSet{}

// clone duplicates the set for a mutation, leaving room for one more
// entry.
func (os *overrideSet) clone() *overrideSet {
	ns := &overrideSet{
		overrides: make(map[string]obj.Instance, len(os.overrides)+1),
		aliases:   make(map[string]string, len(os.aliases)+1),
	}
	for k, v := range os.overrides {
		ns.overrides[k] = v
	}
	for k, v := range os.aliases {
		ns.aliases[k] = v
	}
	return ns
}

// RootView builds the top-level view over a space.
func RootView(space *Space) *View {
	v := &View{space: space, meter: space.meter}
	v.ovr.Store(emptyOverrides)
	return v
}

// Child derives a view that inherits this one. The child starts with
// no overrides of its own.
func (v *View) Child() *View {
	c := &View{space: v.space, parent: v, meter: v.meter}
	c.ovr.Store(emptyOverrides)
	return c
}

// mutate clones the current override set, applies fn, and publishes
// the result; fn returning an error publishes nothing.
func (v *View) mutate(fn func(*overrideSet) error) error {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	ns := v.ovr.Load().clone()
	if err := fn(ns); err != nil {
		return err
	}
	v.ovr.Store(ns)
	return nil
}

// Override makes path resolve to inst in this view (and views derived
// from it), without touching the global space or sibling views.
func (v *View) Override(path string, inst obj.Instance) error {
	if inst == nil {
		return fmt.Errorf("%w: nil instance for %q", ErrBadPath, path)
	}
	c, err := Clean(path)
	if err != nil {
		return err
	}
	if c == "/" {
		return fmt.Errorf("%w: cannot override root", ErrBadPath)
	}
	return v.mutate(func(os *overrideSet) error {
		os.overrides[c] = inst
		return nil
	})
}

// Alias redirects lookups of from to to (both resolved in this view's
// parent chain). Aliases let a parent steer a child at a different
// implementation that is already registered elsewhere, e.g.
// "/services/net" -> "/services/net-debug".
func (v *View) Alias(from, to string) error {
	cf, err := Clean(from)
	if err != nil {
		return err
	}
	ct, err := Clean(to)
	if err != nil {
		return err
	}
	if cf == ct {
		return fmt.Errorf("%w: alias %q to itself", ErrBadPath, cf)
	}
	return v.mutate(func(os *overrideSet) error {
		os.aliases[cf] = ct
		return nil
	})
}

// ClearOverride removes an override or alias for path in this view.
func (v *View) ClearOverride(path string) error {
	c, err := Clean(path)
	if err != nil {
		return err
	}
	return v.mutate(func(os *overrideSet) error {
		if _, ok := os.overrides[c]; ok {
			delete(os.overrides, c)
			return nil
		}
		if _, ok := os.aliases[c]; ok {
			delete(os.aliases, c)
			return nil
		}
		return fmt.Errorf("%w: no override for %q", ErrNotFound, c)
	})
}

// SweepInstances removes every override whose instance satisfies
// doomed. Domain teardown uses it so a view override pinned on a dead
// domain's object fails future binds (falling through to the — also
// swept — global space) instead of silently resolving placement-less
// to the orphaned object. Aliases are untouched: they redirect to
// paths, and the paths themselves fail after the sweep.
func (v *View) SweepInstances(doomed func(obj.Instance) bool) {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	os := v.ovr.Load()
	hit := false
	for _, inst := range os.overrides {
		if doomed(inst) {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	ns := os.clone()
	for p, inst := range ns.overrides {
		if doomed(inst) {
			delete(ns.overrides, p)
		}
	}
	v.ovr.Store(ns)
}

// Overrides lists the paths overridden (directly or via alias) in this
// view, sorted.
func (v *View) Overrides() []string {
	os := v.ovr.Load()
	out := make([]string, 0, len(os.overrides)+len(os.aliases))
	for p := range os.overrides {
		out = append(out, p)
	}
	for p := range os.aliases {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Bind resolves path through the override chain. Alias chains are
// followed up to a fixed depth to keep cyclic configurations from
// hanging the system.
func (v *View) Bind(path string) (obj.Instance, error) {
	c, err := Clean(path)
	if err != nil {
		return nil, err
	}
	const maxAliasDepth = 16
	for hop := 0; hop < maxAliasDepth; hop++ {
		inst, redirect, err := v.resolveOnce(c)
		if err != nil {
			return nil, err
		}
		if inst != nil {
			return inst, nil
		}
		c = redirect
	}
	return nil, fmt.Errorf("%w: alias chain too deep at %q", ErrBadPath, path)
}

// resolveOnce walks the view chain for one canonical path. It returns
// either the bound instance, or a redirect target to retry with. Each
// probe loads the view's published snapshot — no lock anywhere on the
// chain, matching the lock-free Space walk at its root.
func (v *View) resolveOnce(c string) (obj.Instance, string, error) {
	for w := v; w != nil; w = w.parent {
		os := w.ovr.Load()
		if inst, ok := os.overrides[c]; ok {
			// Override hits cost one hop regardless of depth: the
			// binding is immediate.
			if v.meter != nil {
				v.meter.ChargeFor(clock.KernelDomain, clock.OpNameLookupHop)
			}
			return inst, "", nil
		}
		if target, ok := os.aliases[c]; ok {
			if v.meter != nil {
				v.meter.ChargeFor(clock.KernelDomain, clock.OpNameLookupHop)
			}
			return nil, target, nil
		}
	}
	inst, err := v.space.Bind(c)
	if err != nil {
		return nil, "", err
	}
	return inst, "", nil
}

// BindInterface is the common bind-then-get-interface sequence: it
// resolves path and returns the named interface of the instance.
func (v *View) BindInterface(path, ifaceName string) (obj.Invoker, error) {
	inst, err := v.Bind(path)
	if err != nil {
		return nil, err
	}
	iv, ok := inst.Iface(ifaceName)
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", obj.ErrNoInterface, ifaceName, path)
	}
	return iv, nil
}

// ResolveMethod is the full late-binding sequence collapsed to one
// call: resolve path, select the interface, and pre-bind the method.
// The returned handle keeps no reference to the view, so later
// overrides affect future resolutions only — exactly the paper's
// handle-replacement semantics.
func (v *View) ResolveMethod(path, ifaceName, method string) (obj.MethodHandle, error) {
	iv, err := v.BindInterface(path, ifaceName)
	if err != nil {
		return obj.MethodHandle{}, err
	}
	return iv.Resolve(method)
}

// Space returns the global space underlying this view.
func (v *View) Space() *Space { return v.space }
