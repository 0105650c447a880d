package core

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/cert"
	"paramecium/internal/mmu"
	"paramecium/internal/names"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/repoz"
	"paramecium/internal/sandbox"
)

// Placement selects the protection regime of a loaded component.
type Placement int

// Placements.
const (
	// PlaceKernelCertified loads into the kernel protection domain;
	// the image's certificate must validate with PrivKernelResident.
	// The component then runs with no run-time checks.
	PlaceKernelCertified Placement = iota
	// PlaceKernelSandboxed loads into the kernel protection domain
	// without a certificate, Exokernel/SPIN-style: the component is
	// passed through the SFI rewriter and pays per-access checks.
	PlaceKernelSandboxed
	// PlaceUser loads into a fresh application protection domain; the
	// component runs unchecked but is reached through cross-domain
	// proxies.
	PlaceUser
)

func (p Placement) String() string {
	switch p {
	case PlaceKernelCertified:
		return "kernel-certified"
	case PlaceKernelSandboxed:
		return "kernel-sandboxed"
	case PlaceUser:
		return "user"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// FilterIface is the interface exported by loaded PVM filter
// components.
const FilterIface = "paramecium.filter.v1"

// FilterDecl is the filter interface's type information.
var FilterDecl = obj.MustInterfaceDecl(FilterIface,
	obj.MethodDecl{Name: "accept", NumIn: 1, NumOut: 1}, // (frame []byte) -> bool
)

// LoadedFilter is a PVM filter component placed somewhere in the
// system. It satisfies netstack.Filter regardless of placement, so
// the protocol stack does not know (or care) which regime it runs
// under — only the cycle meter can tell.
type LoadedFilter struct {
	name      string
	placement Placement
	iface     obj.Invoker      // the filter interface (object or proxy)
	accept    obj.MethodHandle // accept() pre-resolved through object/proxy machinery
	domain    *Domain          // non-nil for PlaceUser
	inst      obj.Instance

	// mu serializes Accept — the PVM filter behind it keeps one data
	// segment — and guards hop, the storage each accept() threads
	// through the handle so the per-frame hop allocates nothing.
	mu  sync.Mutex
	hop filterHop
}

// filterHop is one accept() invocation's storage: the frame's slice
// header, passed by reference (obj.BytesArg) so boxing it is free, the
// argument list holding that reference, and the result buffer.
type filterHop struct {
	frame []byte
	args  [1]any
	out   [1]any
}

// Name implements netstack.Filter.
func (lf *LoadedFilter) Name() string { return lf.name }

// Instance returns the underlying object (or proxy).
func (lf *LoadedFilter) Instance() obj.Instance { return lf.inst }

// Accept implements netstack.Filter. The per-frame path goes through
// the handle pre-resolved at load time: no method lookup per packet,
// whichever protection regime the filter runs under, and no
// allocation — the frame crosses by reference and the verdict lands in
// the filter's own result buffer. Calls on one filter serialize.
//
//paramecium:hotpath
func (lf *LoadedFilter) Accept(frame []byte) (bool, error) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	h := &lf.hop
	h.frame = frame
	res, err := lf.accept.CallInto(h.out[:0], h.args[:]...)
	h.frame = nil
	if err != nil {
		return false, err
	}
	ok, _ := res[0].(bool)
	return ok, nil
}

// LoadFilter fetches a PVM component from the repository and places
// it. This is the reproduction of the paper's central scenario: the
// same component image, three protection regimes.
func (k *Kernel) LoadFilter(component string, placement Placement) (*LoadedFilter, error) {
	img, err := k.Repo.Get(component)
	if err != nil {
		return nil, err
	}
	if img.Kind != repoz.KindPVM {
		return nil, fmt.Errorf("core: %q is not a PVM component", component)
	}
	prog, err := sandbox.Decode(img.Data)
	if err != nil {
		return nil, err
	}
	if err := sandbox.Verify(prog); err != nil {
		return nil, err
	}

	switch placement {
	case PlaceKernelCertified:
		// "Objects can be associated with a certificate that is
		// validated by the certification service before mapping it
		// into a protection domain."
		if img.Cert == nil {
			return nil, fmt.Errorf("%w: %q carries no certificate", ErrNotCertified, component)
		}
		if err := k.Validator.Validate(img.Data, img.Cert, cert.PrivKernelResident); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotCertified, err)
		}
		f, err := netstack.NewCertifiedFilter(component, prog, k.Meter)
		if err != nil {
			return nil, err
		}
		return k.wrapFilter(component, placement, f, mmu.KernelContext, nil)

	case PlaceKernelSandboxed:
		f, err := netstack.NewSandboxedFilter(component, prog, k.Meter)
		if err != nil {
			return nil, err
		}
		return k.wrapFilter(component, placement, f, mmu.KernelContext, nil)

	case PlaceUser:
		dom := k.NewDomain(component + "-domain")
		f, err := netstack.NewCertifiedFilter(component, prog, k.Meter)
		if err != nil {
			_ = k.DestroyDomain(dom)
			return nil, err
		}
		return k.wrapFilter(component, placement, f, dom.Ctx, dom)
	}
	return nil, fmt.Errorf("core: unknown placement %v", placement)
}

// wrapFilter builds the filter object, registers it in the name space
// under /services/<name>, and wires the calling surface according to
// placement (direct for kernel placements, proxied for user).
func (k *Kernel) wrapFilter(component string, placement Placement, f netstack.Filter, ctx mmu.ContextID, dom *Domain) (*LoadedFilter, error) {
	o := obj.New(component, k.Meter)
	bi, err := o.AddInterface(FilterDecl, nil)
	if err != nil {
		return nil, err
	}
	bi.MustBindInto("accept", func(out []any, args ...any) ([]any, error) {
		frame, ok := obj.BytesArg(args[0])
		if !ok {
			return nil, fmt.Errorf("core: accept wants []byte, got %T", args[0])
		}
		ok, err := f.Accept(frame)
		if err != nil {
			return nil, err
		}
		return append(out, ok), nil
	})

	path := names.Join(PathServices, component+"."+placement.String())
	if err := k.Register(path, o, ctx); err != nil {
		return nil, err
	}

	lf := &LoadedFilter{name: component, placement: placement, domain: dom, inst: o}
	lf.hop.args[0] = &lf.hop.frame
	if placement == PlaceUser {
		// The kernel-resident stack reaches the user filter through a
		// proxy: every accept() pays the cross-domain path.
		p, err := k.Proxies.New(mmu.KernelContext, ctx, o)
		if err != nil {
			return nil, err
		}
		lf.inst = p
		iv, ok := p.Iface(FilterIface)
		if !ok {
			return nil, errors.New("core: proxy lost filter interface")
		}
		lf.iface = iv
	} else {
		lf.iface, _ = o.Iface(FilterIface)
	}
	accept, err := lf.iface.Resolve("accept")
	if err != nil {
		return nil, err
	}
	lf.accept = accept
	return lf, nil
}

// Unload removes a loaded filter from the name space and, for user
// placements, destroys its domain.
func (k *Kernel) Unload(lf *LoadedFilter) error {
	path := names.Join(PathServices, lf.name+"."+lf.placement.String())
	if err := k.Space.Unregister(path); err != nil {
		return err
	}
	if lf.domain != nil {
		return k.DestroyDomain(lf.domain)
	}
	return nil
}

// construct loads a native component from the repository: certified
// components may be placed in the kernel context; uncertified ones
// land in their own fresh domain.
func (k *Kernel) construct(component, path string, wantKernel bool) (obj.Instance, mmu.ContextID, error) {
	img, err := k.Repo.Get(component)
	if err != nil {
		return nil, 0, err
	}
	ctx := mmu.ContextID(0)
	if wantKernel {
		if img.Cert == nil {
			return nil, 0, fmt.Errorf("%w: %q", ErrNotCertified, component)
		}
		if err := k.Validator.Validate(img.Data, img.Cert, cert.PrivKernelResident); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrNotCertified, err)
		}
	} else {
		ctx = k.NewDomain(component + "-domain").Ctx
	}
	inst, err := k.Repo.Construct(component)
	if err != nil {
		return nil, 0, err
	}
	if o, ok := inst.(*obj.Object); ok && !o.FullyBound() {
		return nil, 0, fmt.Errorf("core: component %q has unbound methods", component)
	}
	if err := k.Register(path, inst, ctx); err != nil {
		return nil, 0, err
	}
	return inst, ctx, nil
}
