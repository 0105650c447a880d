package paramecium

import (
	"fmt"
	"sync"

	"paramecium/api"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/hw"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/ring"
	"paramecium/internal/shm"
)

// MachineConfig configures the simulated hardware a system boots on:
// physical frame count, MMU shape and the virtual-cycle cost model.
type MachineConfig = hw.Config

// CostModel prices every hardware and software operation in virtual
// cycles; see DefaultCosts for the calibrated baseline.
type CostModel = clock.CostModel

// DefaultCosts returns the calibrated virtual-cycle cost model.
func DefaultCosts() CostModel { return clock.DefaultCosts() }

// Option configures Boot.
type Option func(*core.Config)

// WithAuthority sets the public key of the certification authority the
// kernel trusts. Without it certification is disabled and every
// kernel-resident placement request fails closed.
func WithAuthority(publicKey []byte) Option {
	return func(c *core.Config) { c.AuthorityKey = publicKey }
}

// WithMachine configures the simulated hardware.
func WithMachine(mc MachineConfig) Option {
	return func(c *core.Config) { c.Machine = mc }
}

// WithCPUs boots the machine with n virtual CPUs: per-CPU context
// registers and TLBs in the MMU, one run queue per CPU in the
// work-stealing thread scheduler, and per-CPU event routing. The
// default (and n <= 1) is a single CPU, which preserves every
// uniprocessor semantic — including deterministic cycle counts —
// exactly.
func WithCPUs(n int) Option {
	return func(c *core.Config) { c.CPUs = n }
}

// Topology is the machine's NUMA shape; see WithTopology. The zero
// value (no topology) is the classic flat machine.
type Topology = hw.Topology

// WithTopology boots the machine as a NUMA topology: nodes memory
// nodes of cpusPerNode CPUs each (the CPU count is nodes×cpusPerNode,
// overriding WithCPUs). Frames are homed on a node at allocation time
// — first-touch by default, explicitly via the memory service's
// AllocPageOnNode — and every access whose CPU's node differs from the
// touched frame's home is charged OpRemoteFrameAccess scaled by the
// node distance (uniform distance 1 here; hand WithMachine a
// hw.Topology with a Distance matrix for asymmetric interconnects).
// The thread scheduler places and steals node-aware. The default
// single-node machine charges nothing new, so uniprocessor and flat
// multiprocessor numbers are unchanged.
func WithTopology(nodes, cpusPerNode int) Option {
	return func(c *core.Config) { c.Machine.Topology = hw.NewTopology(nodes, cpusPerNode) }
}

// Boot assembles a Paramecium system: the simulated machine and the
// nucleus — "a protected and trusted component which implements only
// those services that cannot be moved into the application without
// jeopardizing the system's integrity" — with the root of the
// hierarchical name space over it.
func Boot(opts ...Option) (*System, error) {
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	k, err := core.Boot(cfg)
	if err != nil {
		return nil, err
	}
	return &System{k: k}, nil
}

// System is a booted Paramecium kernel as seen by an embedding
// program: a facade over the nucleus, the name space and the
// protection-domain machinery.
type System struct {
	k *core.Kernel

	// traceMu guards tracers: the Tracer installations made through
	// Handle.Trace, merged into TraceSnapshot.
	traceMu sync.Mutex
	tracers []tracedPath
}

// Cycles reports the machine's virtual clock: total cycles charged
// since boot.
func (s *System) Cycles() uint64 { return s.k.Meter.Clock.Now() }

// NumCPUs reports the number of virtual CPUs the system booted with.
func (s *System) NumCPUs() int { return s.k.Machine.NumCPUs() }

// SharedCPULeases reports how many cross-domain calls found every
// virtual CPU busy and were forced to share one (interleaving on its
// TLB). A steadily climbing count is the signal that the workload —
// concurrent callers, or calls nested inside other calls' target
// methods, which hold their outer lease — has outgrown the topology
// and needs WithCPUs(n) raised.
func (s *System) SharedCPULeases() uint64 { return s.k.Machine.SharedLeases() }

// Shutdown releases the scheduler's persistent dispatcher pool, so an
// embedding that discards a multi-CPU system does not strand one
// parked host goroutine per virtual CPU. The system remains usable;
// the next scheduler pump spawns a fresh pool. Single-CPU systems
// hold no pool and Shutdown is a no-op. Shutdown also retires this
// system's flight recorder (if it booted WithTracing): its share of
// the process-wide emit gate is released, so other systems in the
// process go back to the single-load disabled path.
func (s *System) Shutdown() {
	s.k.Sched.Shutdown()
	s.k.Meter.DisableTracing()
}

// NewObject creates an empty object of the given class, wired to the
// system's cycle meter. Export interfaces with AddInterface and bind
// methods before registering it.
func (s *System) NewObject(class string) *api.Object {
	return obj.New(class, s.k.Meter)
}

// NewComposition creates an object composed of other instances.
func (s *System) NewComposition(class string) *api.Composition {
	return obj.NewComposition(class, s.k.Meter)
}

// NewInterposer wraps target in an interposing agent that initially
// forwards everything; specialize it with Wrap and AddExtraInterface.
// The agent is wired to the system's cycle meter, so interposition
// layers are visible in virtual time.
func (s *System) NewInterposer(class string, target api.Instance) *api.Interposer {
	ip := obj.NewInterposer(class, target)
	ip.SetMeter(s.k.Meter)
	return ip
}

// Register places an instance in the name space, resident in the
// kernel protection domain. Domains that bind it are handed a proxy.
func (s *System) Register(path string, inst api.Instance) error {
	return s.k.Register(path, inst, mmu.KernelContext)
}

// Bind resolves path for a kernel-resident caller, returning a handle
// on the instance (reached through a proxy if it lives in an
// application domain).
func (s *System) Bind(path string) (*Handle, error) {
	inst, err := s.k.KernelBind(path)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, path: path, inst: inst}, nil
}

// Batch is an ordered list of pre-resolved invocations executed
// together: consecutive entries that resolved through one cross-domain
// proxy cross the protection boundary in a single trap — one
// context-switch pair for the whole group — amortizing the fixed
// crossing cost the way active-message systems vector requests. Build
// one with NewBatch (or Handle.Batch), Add resolved method handles,
// then run it with Domain.CallBatch or System.CallBatch and read each
// entry's results back with Results. A batch mixing targets keeps
// that amortization by opting in to grouped dispatch — see BatchMode.
type Batch = api.Batch

// BatchMode selects how a batch orders dispatch across targets:
// strictly in queue order (BatchInOrder, the default), or partitioned
// by target with one crossing per distinct target (BatchGrouped).
// Grouped mode preserves the relative order of entries sharing a
// target but reorders execution across targets, so it is an explicit
// opt-in via Batch.SetMode; results always land in queue order.
type BatchMode = api.BatchMode

// Batch dispatch modes; see BatchMode.
const (
	BatchInOrder = api.BatchInOrder
	BatchGrouped = api.BatchGrouped
)

// NewBatch returns an empty, reusable batch with room for n entries.
func NewBatch(n int) *Batch { return api.NewBatch(n) }

// CallBatch executes a batch from the kernel-resident embedding
// program's call site; routing is carried by each entry's resolved
// handle — see Domain.CallBatch.
func (s *System) CallBatch(b *Batch) error { return s.k.CallBatch(b) }

// NewCoalescer builds a coalescer over the system's virtual clock:
// calls Submitted to it queue into a batch that flushes automatically
// at the size threshold or after a queued call has aged delay virtual
// cycles. size <= 0 selects the measured default (16); delay == 0
// derives the deadline from the cost model's fixed crossing cost.
// See api.Coalescer and Handle.Coalesce.
func (s *System) NewCoalescer(size int, delay uint64) *api.Coalescer {
	return obj.NewCoalescer(s.k.Meter, size, delay)
}

// NewSegment creates a shared-memory segment of n pages owned by the
// kernel protection domain: the zero-copy bulk data plane. Grant it to
// application domains and pass the grant ref across calls; the grantee
// attaches the segment instead of receiving copied bytes. See Segment.
func (s *System) NewSegment(pages int) (*Segment, error) {
	seg, err := s.k.Shm.NewSegment(mmu.KernelContext, pages)
	if err != nil {
		return nil, err
	}
	return &Segment{s: s, seg: seg}, nil
}

// AttachGrant maps a granted segment into its grantee's protection
// domain and returns the live attachment — the grantee-side half of
// the zero-copy handshake, for holders that received a bare GrantRef
// through a call rather than the *Segment itself. Attaching twice
// returns the same attachment; a revoked grant fails with
// api.ErrSegmentRevoked and a forged ref with api.ErrNoGrant.
func (s *System) AttachGrant(ref api.GrantRef) (*api.Attachment, error) {
	return s.k.Shm.Attach(ref)
}

// Interpose replaces the instance at path with an interposing agent
// built by build, returning a handle on the agent. All future binds
// resolve to the agent; existing handles are unaffected — the paper's
// handle-replacement semantics.
func (s *System) Interpose(path string, build func(target api.Instance) (api.Instance, error)) (*Handle, error) {
	agent, err := s.k.Interpose(path, build)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, path: path, inst: agent}, nil
}

// Unwrap undoes an interposition at path, restoring the wrapped
// instance.
func (s *System) Unwrap(path string) error { return s.k.Unwrap(path) }

// NewDomain creates an application protection domain with its own
// view of the name space, inherited from the root view.
func (s *System) NewDomain(name string) *Domain {
	return &Domain{s: s, d: s.k.NewDomain(name)}
}

// Domain is an application protection domain: a private view of the
// name space plus an address-space context. Objects bound from
// another domain are reached through cross-domain proxies.
type Domain struct {
	s *System
	d *core.Domain
}

// Name reports the domain's name.
func (d *Domain) Name() string { return d.d.Name }

// Register places an instance in the name space, resident in this
// domain. Other domains (and the kernel) reach it through proxies.
func (d *Domain) Register(path string, inst api.Instance) error {
	return d.s.k.Register(path, inst, d.d.Ctx)
}

// Override makes path resolve to inst in this domain's view only,
// without touching the global name space or sibling domains.
func (d *Domain) Override(path string, inst api.Instance) error {
	return d.d.View.Override(path, inst)
}

// Alias redirects this domain's lookups of one path to another.
func (d *Domain) Alias(from, to string) error {
	return d.d.View.Alias(from, to)
}

// Bind resolves path in the domain's view. If the instance lives in
// another protection domain, the handle wraps a proxy — "importing an
// object from another protection domain, by means of the directory
// service, causes a proxy to appear."
func (d *Domain) Bind(path string) (*Handle, error) {
	inst, err := d.d.Bind(path)
	if err != nil {
		return nil, err
	}
	return &Handle{s: d.s, path: path, inst: inst}, nil
}

// CallBatch executes a batch of pre-resolved invocations: consecutive
// entries resolved through one cross-domain proxy are vectored across
// the protection boundary in a single crossing (one crossing per
// distinct target, in any order, if the batch opted in to
// BatchGrouped). Per-entry results and errors are read back from the
// batch; CallBatch returns the first group-level routing error, if
// any. Routing is carried by each entry's resolved handle (which was
// bound to its domain at Resolve time) — the receiver is the call
// site, not a routing input.
func (d *Domain) CallBatch(b *Batch) error { return d.d.CallBatch(b) }

// NewSegment creates a shared-memory segment of n pages owned by this
// domain; see System.NewSegment and Segment.
func (d *Domain) NewSegment(pages int) (*Segment, error) {
	seg, err := d.s.k.Shm.NewSegment(d.d.Ctx, pages)
	if err != nil {
		return nil, err
	}
	return &Segment{s: d.s, seg: seg}, nil
}

// NewRing creates a streaming ring produced by this domain and
// consumed by the to domain: a single-producer/single-consumer record
// ring over a shared segment, with one doorbell notify waking the
// consumer for a whole burst of records. Use it when the workload is
// a sustained stream rather than individual transfers — the ring
// amortizes the notification the way a Segment amortizes the payload
// and a Batch amortizes the call count. See Ring.
func (d *Domain) NewRing(to *Domain, slots, slotBytes int) (*Ring, error) {
	r, err := d.d.NewRing(to.d, slots, slotBytes)
	if err != nil {
		return nil, err
	}
	return &Ring{r: r}, nil
}

// Destroy tears the domain down, closing its proxies, revoking its
// shared-memory grants and segments, and releasing its address space.
func (d *Domain) Destroy() error { return d.s.k.DestroyDomain(d.d) }

// Segment is a shared-memory segment: N pages of refcounted physical
// frames owned by one protection domain, the zero-copy bulk data plane
// between domains. The lifecycle is create → Grant (a capability,
// passed across a call as one word) → Map (the grantee's attachment) →
// Revoke (unmaps it from the grantee everywhere, paying the
// per-remote-CPU TLB shootdown charge for pages still cached).
//
// Cost model: attaching charges the mapping machinery and later TLB
// fills; the payload bytes are charged only as the reading or writing
// domain's own memory traffic — they never cross the invocation plane.
// Prefer a segment over a batch whenever the payload, not the call
// count, is what's being amortized.
type Segment struct {
	s   *System
	seg *shm.Segment
}

// Pages reports the segment's length in pages.
func (sg *Segment) Pages() int { return sg.seg.Pages() }

// Size reports the segment's length in bytes.
func (sg *Segment) Size() int { return sg.seg.Size() }

// Grant issues a grant of the segment to a domain with the given
// rights and returns its unforgeable capability reference. Pass the
// ref to the grantee (typically as a call argument — it crosses as a
// single word); the grantee attaches with Segment.Map or
// System.AttachGrant. Grants are not transferable: the proxy rejects
// a ref delivered to any domain other than its grantee.
func (sg *Segment) Grant(to *Domain, rights api.SegmentRights) (api.GrantRef, error) {
	g, err := sg.seg.Grant(to.d.Ctx, rights)
	if err != nil {
		return 0, err
	}
	return g.Ref(), nil
}

// Map attaches a grant of this segment into its grantee's protection
// domain, returning the live attachment. Like System.AttachGrant but
// scoped: a ref naming some other segment's grant is rejected with
// api.ErrNoGrant instead of silently mapping the wrong segment.
func (sg *Segment) Map(ref api.GrantRef) (*api.Attachment, error) {
	return sg.seg.Attach(ref)
}

// Revoke withdraws one grant of this segment: the grantee's mapping is
// unmapped (TLB shootdowns charged for remotely cached pages), and
// every later attach or access through the grant fails with
// api.ErrSegmentRevoked. A ref naming some other segment's grant is
// rejected with api.ErrNoGrant — a mixed-up ref can never revoke a
// grant the caller didn't mean to touch. The unmaps initiate from the
// boot CPU.
func (sg *Segment) Revoke(ref api.GrantRef) error {
	return sg.seg.RevokeFrom(mmu.BootCPU, ref)
}

// Destroy revokes every grant of the segment and releases its frames,
// initiating the unmaps from the boot CPU.
func (sg *Segment) Destroy() error { return sg.seg.DestroyFrom(mmu.BootCPU) }

// Store copies p into the segment at off (owner-side access).
func (sg *Segment) Store(off int, p []byte) error { return sg.seg.Store(off, p) }

// Load copies from the segment at off into p (owner-side access).
func (sg *Segment) Load(off int, p []byte) error { return sg.seg.Load(off, p) }

// Ring is a streaming data-plane ring between two protection domains:
// single-producer/single-consumer record slots over a shared segment,
// control and descriptor words in the segment's first pages, one
// doorbell notify per burst. Created with Domain.NewRing; the segment
// is owned by the producing domain and granted read-write to the
// consuming one.
//
// Steady-state cost per record is a few cycles of bookkeeping plus
// the doorbell crossing divided by the burst size — at burst 64,
// under half the cost of a per-transfer segment share+notify. Records
// can be pushed by copy (Push/Pop) or produced and consumed in place
// through the mapping (ProduceOffset/PushInPlace, Peek/Release), in
// which case the payload never moves at all.
//
// Teardown needs no extra bookkeeping: destroying the producer domain
// destroys the segment, destroying the consumer domain revokes its
// grant, and either way the surviving endpoint's next access returns
// api.ErrRingHangup — the revoked-grant tombstone read as
// end-of-stream. Producer.Hangup signals it deliberately.
type Ring struct {
	r *ring.Ring
}

// Producer returns the publishing endpoint, for use by the producing
// domain's code. One goroutine at a time.
func (r *Ring) Producer() *api.RingProducer { return r.r.Producer() }

// Consumer returns the draining endpoint, for use by the consuming
// domain's code. One goroutine at a time.
func (r *Ring) Consumer() *api.RingConsumer { return r.r.Consumer() }

// Slots reports the ring's record capacity.
func (r *Ring) Slots() int { return r.r.Slots() }

// SlotBytes reports the maximum record payload size.
func (r *Ring) SlotBytes() int { return r.r.SlotBytes() }

// Pages reports the backing segment's size in pages.
func (r *Ring) Pages() int { return r.r.Pages() }

// GrantRef returns the consumer-side grant capability.
func (r *Ring) GrantRef() api.GrantRef { return r.r.GrantRef() }

// Close destroys the backing segment; the consumer side observes
// api.ErrRingHangup.
func (r *Ring) Close() error { return r.r.Close() }

// Handle is a typed handle on an instance bound from the name space.
// It pins the binding made at Bind time: later interpositions or
// overrides of the name affect future binds, not this handle.
type Handle struct {
	s    *System
	path string
	inst obj.Instance
}

// Path reports the name the handle was bound from.
func (h *Handle) Path() string { return h.path }

// Class reports the component (not instance) class name.
func (h *Handle) Class() string { return h.inst.Class() }

// Instance returns the underlying instance (object, composition,
// interposer or proxy).
func (h *Handle) Instance() api.Instance { return h.inst }

// Interfaces lists the instance's exported interface names, sorted.
func (h *Handle) Interfaces() []string { return h.inst.InterfaceNames() }

// Interface returns the named exported interface.
func (h *Handle) Interface(name string) (api.Invoker, error) {
	iv, ok := h.inst.Iface(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", obj.ErrNoInterface, name, h.path)
	}
	return iv, nil
}

// Resolve pre-binds one method of one interface: the bind-once /
// invoke-many fast path. The returned handle dispatches by slot index
// with no per-call name lookup.
func (h *Handle) Resolve(iface, method string) (api.MethodHandle, error) {
	iv, err := h.Interface(iface)
	if err != nil {
		return api.MethodHandle{}, err
	}
	return iv.Resolve(method)
}

// Batch returns an empty batch sized for n entries — a convenience
// for the common pattern of vectoring many calls through the methods
// of one bound handle. Entries resolved from other handles may be
// added too; grouping into single crossings follows each entry's own
// route. In the default in-order mode only CONSECUTIVE entries
// sharing one proxy vector in a single crossing, so order same-target
// entries together; a batch that genuinely interleaves independent
// targets should opt in to SetMode(BatchGrouped), which pays one
// crossing per distinct target regardless of entry order.
func (h *Handle) Batch(n int) *Batch { return api.NewBatch(n) }

// Coalesce returns a coalescer wired to the system's virtual clock:
// Submit single calls (typically methods resolved from this handle)
// and they are queued and vectored automatically, flushing at the
// size threshold or when a queued call has waited one crossing's
// worth of virtual time — the break-even thresholds measured by the
// P5 batch sweep. size <= 0 selects the default (16, the knee of the
// curve). For explicit control of both thresholds use
// System.NewCoalescer.
func (h *Handle) Coalesce(size int) *api.Coalescer {
	return h.s.NewCoalescer(size, 0)
}

// Invoke calls a method by name: the by-name path, which resolves the
// interface and the method on every call and then calls the handle.
// A caller that calls a method more than once resolves it first.
func (h *Handle) Invoke(iface, method string, args ...any) ([]any, error) {
	iv, err := h.Interface(iface)
	if err != nil {
		return nil, err
	}
	return obj.Invoke(iv, method, args...)
}
