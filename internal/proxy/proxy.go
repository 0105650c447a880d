// Package proxy implements Paramecium's cross-domain invocation:
// "Importing an object from another protection domain, by means of the
// directory service, causes a proxy to appear. This proxy provides
// exactly the same set of interfaces as the original object, but each
// interface entry will cause a page fault when referenced. Control is
// then transferred to a per page fault handler which will map in
// arguments into the object's protection domain, switch context, and
// invoke the actual method. Return values are handled similarly."
//
// A Proxy satisfies obj.Instance, so the directory service can hand it
// out exactly where a local object would appear; callers cannot tell
// the difference except in cycles.
//
// The invocation plane is fully concurrent: every call carries its own
// recycled call frame, keyed by a token threaded through the trap frame,
// so any number of goroutines may call through one proxy — even the
// same method of the same interface — without serializing on anything
// wider than the MMU's own short critical sections.
package proxy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
	"paramecium/internal/shm"
)

// Errors.
var (
	ErrClosed     = errors.New("proxy: proxy closed")
	ErrNoDelivery = errors.New("proxy: fault did not reach the call handler")

	errForeignEntry = errors.New("proxy: batch entry not resolved through this proxy")
)

// DefaultEntryBase is where proxy entry pages are placed in the
// caller's address space when the factory is built with base 0.
const DefaultEntryBase mmu.VAddr = 0x7000_0000

// callFrame carries one in-flight crossing: a group of calls behind a
// single page fault. The kernel half (the fault handler) executes the
// entries and writes err and done; the caller half owns the frame
// before and after the fault. A single call is a batch of one whose
// entry lives in the frame itself (one), and frames are recycled
// through the factory's frame slab, so steady-state invocation allocates
// nothing for the call machinery.
type callFrame struct {
	batch []obj.BatchCall // the group; entries carry their own targets
	mode  obj.BatchMode   // dispatch mode that formed the group (telemetry)
	err   error
	done  bool
	one   [1]obj.BatchCall // a single call's entry
}

// frameSlot is one frame of a factory's slab with its bookkeeping.
// Slots are allocated once and never freed, so a slot's address — and
// the frame inside it — stays valid for the factory's lifetime.
type frameSlot struct {
	// state is odd while the frame is live. acquire and release each
	// bump it once, so every live period has its own value and a token
	// minted for an earlier one no longer matches — until the word
	// wraps, 2^31 live periods of this one slot later.
	state atomic.Uint32
	// next links a free slot to the one below it on the free stack:
	// that slot's index+1, or 0 at the bottom.
	next atomic.Uint32
	fr   callFrame
}

// frameTable is the factory's slab of call frames. A token names one
// live period of one frame: state<<32 | index+1, so token 0 in a trap
// frame means "not a proxy call". Turning a token back into its
// frame (get) is a bounds check plus one atomic load; acquire and
// release pop and push a lock-free free stack. The mutex is taken only
// to grow the slab, by one frame whenever more calls are in flight than
// ever before.
type frameTable struct {
	// slots is the slab's directory, indexed by frame index. It is
	// published by pointer and only ever extended: a grow appends under
	// mu and stores the longer header, so a reader's slice never
	// changes under it.
	slots atomic.Pointer[[]*frameSlot]
	// free is the free stack's head: an ABA tag (bumped by every pop
	// and push) in the high half, the top slot's index+1 in the low
	// half, 0 when the stack is empty.
	free atomic.Uint64
	mu   sync.Mutex
}

// acquire pops a free frame — or grows the slab by one when none is
// free — and marks it live under a fresh token.
//
//paramecium:hotpath
func (t *frameTable) acquire() (uint64, *callFrame) {
	i, s := t.pop()
	if s == nil {
		i, s = t.grow()
	}
	return uint64(s.state.Add(1))<<32 | uint64(i+1), &s.fr
}

// pop takes the top slot off the free stack, or returns nil when the
// stack is empty.
func (t *frameTable) pop() (uint32, *frameSlot) {
	for {
		head := t.free.Load()
		top := uint32(head)
		if top == 0 {
			return 0, nil
		}
		// A slot is pushed only after the directory holding it is
		// published, so this load sees it.
		s := (*t.slots.Load())[top-1]
		if t.free.CompareAndSwap(head, (head>>32+1)<<32|uint64(s.next.Load())) {
			return top - 1, s
		}
	}
}

// grow adds one slot to the slab and returns it, not yet on the free
// stack.
func (t *frameTable) grow() (uint32, *frameSlot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var slots []*frameSlot
	if p := t.slots.Load(); p != nil {
		slots = *p
	}
	s := new(frameSlot)
	// Appending writes past every published length, so readers holding
	// the old header are undisturbed.
	slots = append(slots, s)
	t.slots.Store(&slots)
	return uint32(len(slots) - 1), s
}

// get returns the frame live under token, or nil: for token 0, an
// index past the slab, a frame that is free, or one whose state moved
// on since the token was minted (a stale or forged token).
func (t *frameTable) get(token uint64) *callFrame {
	i := uint32(token)
	p := t.slots.Load()
	if i == 0 || p == nil || int(i) > len(*p) {
		return nil
	}
	s := (*p)[i-1]
	if st := s.state.Load(); st&1 == 0 || st != uint32(token>>32) {
		return nil
	}
	return &s.fr
}

// release ends token's live period and pushes its frame, cleared so it
// pins no caller data, back on the free stack. token must come from
// acquire.
//
//paramecium:hotpath
func (t *frameTable) release(token uint64) {
	i := uint32(token)
	s := (*t.slots.Load())[i-1]
	s.fr = callFrame{}
	s.state.Add(1)
	for {
		head := t.free.Load()
		s.next.Store(uint32(head))
		if t.free.CompareAndSwap(head, (head>>32+1)<<32|uint64(i)) {
			return
		}
	}
}

// Factory creates proxies, managing the entry-page address space of
// each client context. All proxies of one factory share its frame
// slab; the per-page fault handler uses the trap frame's token to
// find the calling goroutine's own frame.
type Factory struct {
	svc    *mem.Service
	base   mmu.VAddr
	frames frameTable

	// grants, when set, validates shared-memory grant capabilities
	// passed as call arguments; see SetGrantRegistry. Written once at
	// boot, before the factory serves calls.
	grants *shm.Registry

	mu        sync.Mutex
	nextVA    map[mmu.ContextID]mmu.VAddr
	live      map[*Proxy]struct{}        // open proxies, for CloseTarget
	condemned map[mmu.ContextID]struct{} // targets being torn down
	// closeHooks run inside CloseTarget, right after the target is
	// condemned: subsystems whose per-domain teardown must be atomic
	// with the proxy condemn (the shared-memory registry) register
	// here, so one CloseTarget quiesces calls and mappings together.
	closeHooks []func(mmu.ContextID)
}

// NewFactory builds a factory allocating entry pages from base.
func NewFactory(svc *mem.Service, base mmu.VAddr) *Factory {
	if base == 0 {
		base = DefaultEntryBase
	}
	return &Factory{
		svc:       svc,
		base:      base,
		nextVA:    make(map[mmu.ContextID]mmu.VAddr),
		live:      make(map[*Proxy]struct{}),
		condemned: make(map[mmu.ContextID]struct{}),
	}
}

// CloseTarget closes every live proxy of this factory whose target
// lives in ctx, draining their in-flight calls, and condemns the
// context so the factory refuses to build new proxies onto it: when
// CloseTarget returns, no cross-domain call is executing in ctx
// through any of this factory's proxies, and none ever will again.
// Destroying a protection domain uses this to quiesce inbound calls —
// proxies held by other domains (or built by kernel-resident callers)
// that the dying domain's own bind cache knows nothing about. The
// condemn closes the remaining window, a racing New that would
// register its proxy after the snapshot below.
func (f *Factory) CloseTarget(ctx mmu.ContextID) {
	f.mu.Lock()
	f.condemned[ctx] = struct{}{}
	hooks := make([]func(mmu.ContextID), len(f.closeHooks))
	copy(hooks, f.closeHooks)
	var closing []*Proxy
	for p := range f.live {
		if p.targetCtx == ctx {
			closing = append(closing, p)
		}
	}
	f.mu.Unlock()
	// The hooks run after the condemn is visible but before the drain:
	// a pending segment attach into the dying domain either completed
	// before its registry's condemn (and was revoked by it) or fails
	// from here on — no fresh mapping appears after CloseTarget, just
	// as no fresh proxy route does.
	for _, h := range hooks {
		h(ctx)
	}
	for _, p := range closing {
		_ = p.Close()
	}
}

// OnCloseTarget registers a hook to run inside every future
// CloseTarget, after the target context is condemned. The kernel wires
// the shared-memory registry's CondemnDomainFrom here, so destroying a
// domain fails pending segment attaches through the same sweep that
// condemns its proxies.
func (f *Factory) OnCloseTarget(h func(mmu.ContextID)) {
	f.mu.Lock()
	f.closeHooks = append(f.closeHooks, h)
	f.mu.Unlock()
}

// SetGrantRegistry teaches the factory to validate shared-memory grant
// capabilities (shm.GrantRef arguments) before carrying a call across
// the boundary: a ref that is forged, revoked, or addressed to a
// domain other than the call's target fails the call up front, before
// any crossing cost is paid — the kernel validates capability words
// while decoding, not after delivering. Call once at boot, before the
// factory serves calls.
func (f *Factory) SetGrantRegistry(reg *shm.Registry) { f.grants = reg }

// Absolve forgets a condemned target context, bounding the condemned
// set for kernels that churn domains. Only safe once the context
// itself no longer exists (its MMU context destroyed): from then on
// every crossing into it fails at the MMU, so the condemn gate is
// redundant. A proxy built in the narrow absolved window is inert —
// its calls all fail "target domain gone" — and is evicted by the
// bind caches' staleness check.
func (f *Factory) Absolve(ctx mmu.ContextID) {
	f.mu.Lock()
	delete(f.condemned, ctx)
	f.mu.Unlock()
}

// allocEntryPage reserves one (never-mapped) page of entry slots in
// callerCtx.
func (f *Factory) allocEntryPage(callerCtx mmu.ContextID) mmu.VAddr {
	f.mu.Lock()
	defer f.mu.Unlock()
	va, ok := f.nextVA[callerCtx]
	if !ok {
		va = f.base
	}
	f.nextVA[callerCtx] = va + mmu.PageSize
	return va
}

// New builds a proxy in callerCtx for target living in targetCtx. One
// entry page per exported interface is reserved; each method occupies
// an 8-byte slot on its page.
func (f *Factory) New(callerCtx, targetCtx mmu.ContextID, target obj.Instance) (*Proxy, error) {
	if target == nil {
		return nil, errors.New("proxy: nil target")
	}
	p := &Proxy{
		factory:   f,
		class:     target.Class(),
		callerCtx: callerCtx,
		targetCtx: targetCtx,
		target:    target,
		ifaces:    make(map[string]*entryIface),
	}
	p.drainCv = sync.NewCond(&p.drainMu)
	for _, name := range target.InterfaceNames() {
		iv, ok := target.Iface(name)
		if !ok {
			continue
		}
		pageVA := f.allocEntryPage(callerCtx)
		// Entry slots are laid out by the declaration's slot indices,
		// the same numbering every bound interface dispatches by.
		ei := &entryIface{proxy: p, target: iv, pageVA: pageVA}
		if err := f.svc.RegisterFaultHandler(callerCtx, pageVA, ei.handleFault); err != nil {
			_ = p.Close()
			return nil, fmt.Errorf("proxy: entry page for %q: %w", name, err)
		}
		p.ifaces[name] = ei
	}
	// The condemned check is atomic with the live-registration, so a
	// CloseTarget cannot slip between them: a proxy either lands in
	// the snapshot CloseTarget closes, or fails here.
	f.mu.Lock()
	if _, dead := f.condemned[targetCtx]; dead {
		f.mu.Unlock()
		_ = p.Close()
		return nil, fmt.Errorf("proxy: target domain %d destroyed", targetCtx)
	}
	f.live[p] = struct{}{}
	f.mu.Unlock()
	return p, nil
}

// Proxy is a cross-domain stand-in for an object in another protection
// domain. A proxy is safe for unbounded concurrent use: the interface
// map is immutable after construction, the call path keeps its state
// in per-call frames, and close/call coordination is a single atomic
// flag.
type Proxy struct {
	factory   *Factory
	class     string
	callerCtx mmu.ContextID
	targetCtx mmu.ContextID
	target    obj.Instance

	closed    atomic.Bool
	calls     atomic.Uint64
	crossings atomic.Uint64
	inflight  atomic.Int64 // fault handlers currently executing
	// drainMu/drainCv let any number of Close callers wait for
	// inflight to hit zero; the last handler out broadcasts.
	drainMu sync.Mutex
	drainCv *sync.Cond
	ifaces  map[string]*entryIface // immutable after New
}

// Class implements obj.Instance. Proxies are transparent: they present
// the target's class name.
func (p *Proxy) Class() string { return p.class }

// InterfaceNames implements obj.Instance.
func (p *Proxy) InterfaceNames() []string {
	out := make([]string, 0, len(p.ifaces))
	for n := range p.ifaces {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Iface implements obj.Instance.
func (p *Proxy) Iface(name string) (obj.Invoker, bool) {
	ei, ok := p.ifaces[name]
	if !ok {
		return nil, false
	}
	return ei, true
}

// Calls reports the number of cross-domain invocations performed
// (every entry of a vectored call counts).
func (p *Proxy) Calls() uint64 {
	return p.calls.Load()
}

// Crossings reports the number of protection crossings this proxy has
// actually paid: a single call is one, a vectored group of N calls is
// also one. Calls/Crossings is therefore the amortization achieved —
// 1.0 for unbatched traffic, the batch size for perfectly vectored
// traffic. The mixed-target P8 tests pin grouped dispatch to exactly
// one crossing per distinct target with this counter.
func (p *Proxy) Crossings() uint64 {
	return p.crossings.Load()
}

// DispatchBatch implements obj.Batcher: it carries a group of calls
// resolved through this proxy across the domain boundary in a single
// crossing — one CPU lease, one page fault (the trap cost charged
// once), one context-switch pair — executing each entry in the
// target's context with per-entry results and errors. The frame is
// recycled through the factory's frame slab. A closed proxy fails
// every entry with ErrClosed, a dead target context fails them all
// with "target domain gone", and a failing method or a rejected grant
// fails only its own entry. Every group-level failure is recorded on
// the entries as well, and returned so Batch.Run can surface it.
//
//paramecium:hotpath
func (p *Proxy) DispatchBatch(calls []obj.BatchCall, mode obj.BatchMode) error {
	token, fr := p.factory.frames.acquire()
	// Deferred so a panicking target method cannot leak the frame.
	defer p.factory.frames.release(token)
	return p.dispatch(token, fr, calls, mode)
}

// call carries one invocation through h, a handle this proxy resolved,
// as a batch of one: the frame's own entry holds it, so the single
// call takes exactly the crossing path a group does.
//
//paramecium:hotpath
func (p *Proxy) call(h obj.MethodHandle, out, args []any) ([]any, error) {
	token, fr := p.factory.frames.acquire()
	defer p.factory.frames.release(token)
	fr.one[0].Fill(h, out, args)
	_ = p.dispatch(token, fr, fr.one[:], obj.InOrder) // recorded on the entry too
	return fr.one[0].Results()
}

// dispatch carries calls in fr, registered under token, across the
// boundary: it references the first entry's slot, taking the page
// fault that drives the kernel's call handler. The token rides in the
// trap frame, so the handler finds this group's frame however many
// calls are in flight on the same page, and the remaining entries
// cross without faulting again. The call claims a virtual CPU for its duration: the entry-page
// translation, crossing charges and any flush-on-switch TLB loss all
// land on that CPU.
//
//paramecium:hotpath
func (p *Proxy) dispatch(token uint64, fr *callFrame, calls []obj.BatchCall, mode obj.BatchMode) error {
	if len(calls) == 0 {
		return nil
	}
	if p.closed.Load() {
		return failAll(calls, ErrClosed)
	}
	// The key is checked, not asserted: a handle built by hand against
	// this proxy as Batcher (possible through the public
	// NewBatchableHandle) must fail its batch, not panic the fault path.
	key, ok := calls[0].Key().(batchKey)
	if !ok {
		return failAll(calls, errForeignEntry)
	}
	fr.batch, fr.mode = calls, mode
	lease := p.factory.svc.Machine().AcquireCPU()
	lease.CPU().TouchTagged(p.callerCtx, key.slotVA, mmu.AccessExec, token)
	lease.Release()

	if !fr.done {
		// The handler never saw the group: the proxy was closed (its
		// fault handler unregistered) between the closed check and the
		// touch, or the fault went astray.
		if p.closed.Load() {
			return failAll(calls, ErrClosed)
		}
		return failAll(calls, fmt.Errorf("%w: batch of %d", ErrNoDelivery, len(calls)))
	}
	p.calls.Add(uint64(len(calls)))
	p.crossings.Add(1)
	return fr.err
}

// failAll records err as the outcome of every entry and returns it.
func failAll(calls []obj.BatchCall, err error) error {
	for i := range calls {
		calls[i].SetResult(nil, err)
	}
	return err
}

// TargetContext reports the protection domain of the real object.
func (p *Proxy) TargetContext() mmu.ContextID { return p.targetCtx }

// Closed reports whether the proxy has been closed. Bind caches use it
// to evict dead entries (a proxy closed by CloseTarget when its target
// domain died) instead of handing them out forever.
func (p *Proxy) Closed() bool { return p.closed.Load() }

// Close releases the proxy's entry pages and fault handlers, then
// waits for in-flight cross-domain calls to drain: when Close returns,
// no call is executing in the target's domain, so the caller may
// safely destroy the target context and free target state. Calls
// racing with Close either complete normally or fail with ErrClosed.
//
// A Close that loses the race to a concurrent closer still waits for
// the drain before returning ErrClosed, so teardown sequenced after
// any returned Close — winner or loser — is safe.
//
// Close must not be called from inside a target method of this same
// proxy: the fault handler runs on the calling goroutine, so its own
// in-flight count could never drain — the same rule as
// sync.WaitGroup.Wait from inside a worker. Likewise anything Close
// transitively blocks on (core.Kernel.DestroyDomain closes proxies
// outside the domain lock for exactly this reason).
func (p *Proxy) Close() error {
	won := p.closed.CompareAndSwap(false, true)
	if won {
		p.factory.mu.Lock()
		delete(p.factory.live, p)
		p.factory.mu.Unlock()
		for _, ei := range p.ifaces {
			_ = p.factory.svc.UnregisterFaultHandler(p.callerCtx, ei.pageVA)
		}
	}
	// Quiesce. Handlers that entered before closed was set are counted
	// in inflight; handlers entering after will observe closed and do
	// no target-side work, so once the counter drains no call is (or
	// will be) executing in the target domain. The last handler out
	// broadcasts under drainMu, so any number of Close callers block
	// here without spinning or losing wakeups.
	p.drainMu.Lock()
	for p.inflight.Load() != 0 {
		p.drainCv.Wait()
	}
	p.drainMu.Unlock()
	if !won {
		return ErrClosed
	}
	return nil
}

// entryIface is one interface's entry page. It holds no per-call
// state: every invocation's frame lives in the factory's frame slab
// for exactly the duration of its fault, so concurrent calls through
// the same interface — or the same method — never serialize here.
type entryIface struct {
	proxy  *Proxy
	target obj.Invoker
	pageVA mmu.VAddr
}

// Decl implements obj.Invoker.
func (e *entryIface) Decl() *obj.InterfaceDecl { return e.target.Decl() }

// State implements obj.Invoker. Cross-domain state pointers are not
// addressable from the caller's domain; proxies return nil, exactly as
// a hardware implementation would have to.
func (e *entryIface) State() any { return nil }

// batchKey is the proxy's private routing key carried by each of its
// resolved handles (obj.NewBatchableHandle): the pre-resolved dispatch
// into the target and the entry slot a vectored group faults on.
type batchKey struct {
	th     obj.MethodHandle
	slotVA mmu.VAddr
}

// Resolve implements obj.Invoker: the entry slot's address and the
// dispatch into the target are computed once, and the returned handle
// faults straight into the kernel on every Call with no per-call
// method lookup on either side of the boundary. One handle may be
// shared by any number of goroutines. Each Call is a batch of one
// through this very handle, and a Batch groups consecutive calls
// through this proxy into a single crossing (Proxy.DispatchBatch).
func (e *entryIface) Resolve(method string) (obj.MethodHandle, error) {
	md, ok := e.target.Decl().Method(method)
	if !ok {
		return obj.MethodHandle{}, fmt.Errorf("%w: %q.%s", obj.ErrNoMethod, e.target.Decl().Name, method)
	}
	th, err := e.target.Resolve(method)
	if err != nil {
		return obj.MethodHandle{}, err
	}
	p := e.proxy
	key := batchKey{th: th, slotVA: e.pageVA + mmu.VAddr(md.Slot()*8)}
	var h obj.MethodHandle
	h = obj.NewBatchableHandle(md,
		func(args ...any) ([]any, error) { return p.call(h, nil, args) },
		func(out []any, args ...any) ([]any, error) { return p.call(h, out, args) },
		p, key)
	return h, nil
}

// handleFault is the per-page fault handler: the kernel half of the
// cross-domain call. It finds the faulting call's frame by the trap
// frame's token and executes its entries (executeBatch). The handler
// is reentrant: concurrent faults on the same entry page dispatch
// independently, each with its own frame.
//
//paramecium:hotpath
func (e *entryIface) handleFault(f hw.TrapFrame) bool {
	p := e.proxy
	// Entered before the closed-check so Close can quiesce: if closed
	// is observed set here, the handler touches nothing of the target.
	p.inflight.Add(1)
	defer p.exitHandler()
	if p.closed.Load() {
		return false
	}
	if call := p.factory.frames.get(f.Token); call != nil {
		p.executeBatch(f.CPU, call)
	}
	// The entry page stays unmapped (the next call must fault again),
	// so the fault is reported as unresolved; a stray touch of the page
	// (no frame under its token) is left unresolved as well.
	return false
}

// executeBatch is the kernel half of a call: inside the one crossing
// the fault already paid for, it maps in the arguments (charged as
// word copies), switches to the target's context once, dispatches
// every entry through its pre-resolved handle, copies out the results
// and switches back once. Every entry is decoded before anything is
// paid: an entry not resolved through this proxy, or carrying a grant
// capability that is forged, revoked or not addressed to the target,
// fails on its own, and a group with no entry left never switches. A
// failing entry records its error and the rest still run. Only a
// group of two or more pays the small per-entry decode cost, so a
// single call — a batch of one — costs exactly one crossing.
//
//paramecium:hotpath
func (p *Proxy) executeBatch(cpu mmu.CPUID, call *callFrame) {
	machine := p.factory.svc.Machine()
	mm, meter := machine.MMU, machine.Meter
	payer := uint32(p.callerCtx)
	call.done = true
	live := 0
	for i := range call.batch {
		// Setting every outcome here also clears the previous run's
		// results from a batch that is Run again without Reset.
		bc := &call.batch[i]
		err := p.decode(bc)
		bc.SetResult(nil, err)
		if err == nil {
			live++
		}
	}
	if live == 0 {
		return
	}
	grouped := len(call.batch) > 1
	crossing := p.callerCtx != p.targetCtx
	if probe.Enabled() {
		if grouped {
			meter.Emit(int(cpu), probe.KindBatchDispatch, payer, uint64(len(call.batch)), uint64(call.mode))
		}
		if crossing {
			meter.Emit(int(cpu), probe.KindCrossingBegin, payer, uint64(p.targetCtx), uint64(len(call.batch)))
		}
	}
	// The call runs in the caller's domain and crosses into the
	// target's: one switch there, one back. Each leg is validated and
	// charged by CrossSwitchOn against the calling CPU (the one the
	// fault was taken on, carried in the trap frame) without touching
	// any CPU's context register — every in-flight call is its own
	// virtual processor, so concurrent calls never observe each other's
	// transient context and the switch charges are deterministic.
	if crossing {
		if err := mm.CrossSwitchOn(cpu, p.targetCtx); err != nil {
			call.err = failAll(call.batch, fmt.Errorf("proxy: target domain gone: %w", err))
			return
		}
	}
	for i := range call.batch {
		bc := &call.batch[i]
		if _, err := bc.Results(); err != nil {
			continue // rejected at decode
		}
		key := bc.Key().(batchKey)
		if grouped {
			meter.ChargeFor(payer, clock.OpBatchEntry)
		}
		// A shared-memory grant crosses as a single capability word
		// (wordsOf charges its 8 bytes like any scalar): the segment's
		// payload never touches the invocation plane. The caller pays
		// every invocation-plane charge of its own crossing.
		meter.ChargeNFor(payer, clock.OpCopyWord, wordsOf(bc.Args()))
		// Dispatch through the entry's caller-provided result buffer
		// when one was supplied (CallInto, Batch.AddInto): the target's
		// results land in caller-owned storage, keeping the steady-state
		// plane allocation-free. Only the appended results crossed the
		// boundary, so only they are charged.
		var res []any
		var err error
		if out := bc.Out(); out != nil {
			res, err = key.th.CallInto(out, bc.Args()...)
			copied := res
			if n := len(out); n > 0 && len(copied) >= n {
				copied = copied[n:]
			}
			meter.ChargeNFor(payer, clock.OpCopyWord, wordsOf(copied))
		} else {
			res, err = key.th.Call(bc.Args()...)
			meter.ChargeNFor(payer, clock.OpCopyWord, wordsOf(res))
		}
		bc.SetResult(res, err)
	}
	if crossing {
		if err := mm.CrossSwitchOn(cpu, p.callerCtx); err != nil {
			// The caller's domain was destroyed while the group was in
			// flight; there is no context to return to. Every entry
			// reports it alongside its own outcome.
			call.err = fmt.Errorf("proxy: caller domain gone: %w", err)
			for i := range call.batch {
				res, rerr := call.batch[i].Results()
				call.batch[i].SetResult(res, errors.Join(rerr, call.err))
			}
		}
		if probe.Enabled() {
			meter.Emit(int(cpu), probe.KindCrossingEnd, payer, uint64(p.targetCtx), uint64(len(call.batch)))
		}
	}
}

// decode validates one entry before its crossing is paid for: it must
// have been resolved through this proxy, and any grant capabilities
// among its arguments must be deliverable to the target. The scan is a
// type assertion per argument — no charge, exactly like arity
// validation: the kernel rejects bad capability words at decode.
func (p *Proxy) decode(bc *obj.BatchCall) error {
	if _, ok := bc.Key().(batchKey); !ok {
		// A hand-built handle smuggled into the group: fail the entry,
		// never panic inside the fault handler.
		return errForeignEntry
	}
	reg := p.factory.grants
	if reg == nil {
		return nil
	}
	for _, a := range bc.Args() {
		if ref, ok := a.(shm.GrantRef); ok {
			if err := reg.CheckDeliverable(ref, p.targetCtx); err != nil {
				return fmt.Errorf("proxy: grant argument: %w", err)
			}
		}
	}
	return nil
}

// exitHandler decrements the in-flight handler count, waking Close
// callers draining the proxy when the last handler leaves. Taking
// drainMu around the broadcast pairs with the counter re-check under
// the same mutex in Close, so a wakeup cannot slip between a waiter's
// check and its wait.
func (p *Proxy) exitHandler() {
	if p.inflight.Add(-1) == 0 && p.closed.Load() {
		p.drainMu.Lock()
		p.drainCv.Broadcast()
		p.drainMu.Unlock()
	}
}

// wordsOf estimates the 8-byte words needed to carry a value list
// across domains.
func wordsOf(vals []any) uint64 {
	var bytes uint64
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			bytes += 8
		case string:
			bytes += uint64(len(x)) + 8
		case []byte:
			bytes += uint64(len(x)) + 8
		case *[]byte:
			// A buffer passed by reference (obj.BytesArg) crosses as
			// its bytes, exactly like one passed by value.
			if x != nil {
				bytes += uint64(len(*x))
			}
			bytes += 8
		case []any:
			bytes += 8 * uint64(len(x))
		default:
			bytes += 8
		}
	}
	return (bytes + 7) / 8
}

var _ obj.Instance = (*Proxy)(nil)
var _ obj.Invoker = (*entryIface)(nil)
var _ obj.Batcher = (*Proxy)(nil)
