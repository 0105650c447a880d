package main

import (
	"fmt"

	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/proxy"
)

// workload is one benchmark shape. A value holds its generated inputs
// from construction on; setup boots nothing itself but builds the
// shape's domains, objects and devices on a freshly booted kernel.
type workload interface {
	setup(w *world) error
	// unit runs one request unit and returns how many of its ops
	// failed an output check.
	unit(t *tracer) int
	// counts adds the shape's own cumulative layer counters to c.
	counts(c *layerCounts)
}

// spec describes one workload: how many ops a request unit holds and
// the unit counts of the exact virtual-cycle accounting window.
type spec struct {
	name       string
	opsPerUnit int
	unitName   string
	// traced boots the kernel with the flight recorder on.
	traced bool
	// warm units settle first-touch costs (TLB fills, lazy frames);
	// acct units then form the accounting window. acct is a multiple
	// of any period in the shape's per-unit cost.
	warm, acct int
	make       func(rnd *clock.Rand) workload
}

var specs = []spec{
	{name: "call", opsPerUnit: 1, unitName: "invocation", warm: 256, acct: 1024, make: newCallLoad},
	{name: "batch", opsPerUnit: batchSize, unitName: "16-entry Run", warm: 64, acct: 256, make: newBatchLoad},
	{name: "stream", opsPerUnit: streamBurst, unitName: "64-record burst", warm: 8, acct: 32, make: newStreamLoad},
	{name: "packet", opsPerUnit: packetBurst, unitName: "16-frame burst", traced: true, warm: 8, acct: 32, make: newPacketLoad},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// world is one booted kernel plus the certifier trusted for kernel
// residence, as the repository's own experiments boot it.
type world struct {
	k     *core.Kernel
	admin *cert.KeyCertifier
}

const adminPrivs = cert.PrivKernelResident | cert.PrivDeviceAccess | cert.PrivSharedService

func boot(traced bool) (*world, error) {
	auth := cert.NewAuthority(0xB007)
	k, err := core.Boot(core.Config{AuthorityKey: auth.PublicKey(), Trace: traced})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	admin := cert.NewKeyCertifier("sysadmin", cert.GenerateKey(0xADD1), adminPrivs)
	if err := k.Validator.AddDelegation(auth.Delegate("sysadmin", admin.Key().Pub, adminPrivs)); err != nil {
		return nil, fmt.Errorf("delegation: %w", err)
	}
	return &world{k: k, admin: admin}, nil
}

// close lowers the process-wide probe gate a traced boot raised, so a
// discarded world leaves later ones untouched.
func (w *world) close() { w.k.Meter.DisableTracing() }

// layerCounts are per-layer counters: cumulative when sampled, and a
// phase keeps the difference of two samples. rxqMax is a maximum, not
// a count.
type layerCounts struct {
	tlbHits, tlbMisses    uint64
	sharedLeases          uint64
	events, eventsDropped uint64
	calls, crossings      uint64
	records, doorbells    uint64
	delivered, frames     uint64
	rxqMax, rxDropped     uint64
}

func (c layerCounts) since(b layerCounts) layerCounts {
	return layerCounts{
		tlbHits:       c.tlbHits - b.tlbHits,
		tlbMisses:     c.tlbMisses - b.tlbMisses,
		sharedLeases:  c.sharedLeases - b.sharedLeases,
		events:        c.events - b.events,
		eventsDropped: c.eventsDropped - b.eventsDropped,
		calls:         c.calls - b.calls,
		crossings:     c.crossings - b.crossings,
		records:       c.records - b.records,
		doorbells:     c.doorbells - b.doorbells,
		delivered:     c.delivered - b.delivered,
		frames:        c.frames - b.frames,
		rxqMax:        c.rxqMax,
		rxDropped:     c.rxDropped - b.rxDropped,
	}
}

func (c *layerCounts) add(d layerCounts) {
	c.tlbHits += d.tlbHits
	c.tlbMisses += d.tlbMisses
	c.sharedLeases += d.sharedLeases
	c.events += d.events
	c.eventsDropped += d.eventsDropped
	c.calls += d.calls
	c.crossings += d.crossings
	c.records += d.records
	c.doorbells += d.doorbells
	c.delivered += d.delivered
	c.frames += d.frames
	c.rxqMax = max(c.rxqMax, d.rxqMax)
	c.rxDropped += d.rxDropped
}

func sampleCounts(w *world, wl workload) layerCounts {
	var c layerCounts
	st := w.k.Machine.MMU.TLBStatsOn(mmu.BootCPU)
	c.tlbHits, c.tlbMisses = st.Hits, st.Misses
	c.sharedLeases = w.k.Machine.SharedLeases()
	if rec := w.k.Meter.Recorder(); rec != nil {
		for cpu := 0; cpu < rec.CPUs(); cpu++ {
			c.events += rec.Emitted(cpu)
			c.eventsDropped += rec.Dropped(cpu)
		}
	}
	wl.counts(&c)
	return c
}

func addProxyCounts(c *layerCounts, ps ...*proxy.Proxy) {
	for _, p := range ps {
		c.calls += p.Calls()
		c.crossings += p.Crossings()
	}
}

// bindProxy binds path from dom and returns the cross-domain proxy the
// bind produced, for its crossing counters.
func bindProxy(dom *core.Domain, path string) (*proxy.Proxy, error) {
	inst, err := dom.Bind(path)
	if err != nil {
		return nil, err
	}
	p, ok := inst.(*proxy.Proxy)
	if !ok {
		return nil, fmt.Errorf("bind %s from %s: got %T, want a cross-domain proxy", path, dom.Name, inst)
	}
	return p, nil
}

// resolveVia resolves iface.method on a proxy.
func resolveVia(p *proxy.Proxy, iface, method string) (obj.MethodHandle, error) {
	iv, ok := p.Iface(iface)
	if !ok {
		return obj.MethodHandle{}, fmt.Errorf("%w: %s", obj.ErrNoInterface, iface)
	}
	return iv.Resolve(method)
}
