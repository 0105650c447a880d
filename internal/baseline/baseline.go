// Package baseline implements the comparison system the paper defines
// itself against: a traditional monolithic kernel. Its services are
// fixed at build time (no dynamic loading, no reconfiguration, no
// interposition) and applications reach every service through a trap —
// the classic syscall path with argument copy-in/copy-out.
//
// The experiments use it two ways: as the "trap per call" column of
// the cross-domain invocation comparison (T2), and as the rigid
// alternative whose packet path cannot host application filters at
// all (T5 discussion).
package baseline

import (
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/netstack"
)

// Errors.
var (
	ErrNoService = errors.New("baseline: no such service")
	ErrSealed    = errors.New("baseline: kernel is sealed; services are fixed at build time")
)

// Service is one in-kernel entry point.
type Service func(args ...any) ([]any, error)

// Monolith is the traditional kernel.
type Monolith struct {
	machine *hw.Machine
	meter   *clock.Meter

	mu       sync.Mutex
	sealed   bool
	services map[string]Service
	calls    uint64
}

// New builds an (unsealed) monolithic kernel over the machine.
func New(machine *hw.Machine) *Monolith {
	return &Monolith{
		machine:  machine,
		meter:    machine.Meter,
		services: make(map[string]Service),
	}
}

// AddService installs a service at build time. After Seal, the set is
// immutable — that rigidity is the point of the baseline.
func (m *Monolith) AddService(name string, s Service) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		return ErrSealed
	}
	if s == nil {
		return errors.New("baseline: nil service")
	}
	if _, dup := m.services[name]; dup {
		return fmt.Errorf("baseline: service %q already present", name)
	}
	m.services[name] = s
	return nil
}

// Seal finishes the build; the kernel boots with a fixed service set.
func (m *Monolith) Seal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sealed = true
}

// Sealed reports whether the kernel is sealed.
func (m *Monolith) Sealed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sealed
}

// Syscall invokes a kernel service from application code: trap entry,
// argument copy-in, the service body, result copy-out, trap exit.
func (m *Monolith) Syscall(name string, args ...any) ([]any, error) {
	m.mu.Lock()
	s, ok := m.services[name]
	m.calls++
	m.mu.Unlock()

	m.meter.ChargeFor(clock.KernelDomain, clock.OpTrapEnter)
	defer m.meter.ChargeFor(clock.KernelDomain, clock.OpTrapExit)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoService, name)
	}
	m.meter.ChargeNFor(clock.KernelDomain, clock.OpCopyWord, wordsOf(args))
	m.meter.ChargeFor(clock.KernelDomain, clock.OpIndirect)
	res, err := s(args...)
	m.meter.ChargeNFor(clock.KernelDomain, clock.OpCopyWord, wordsOf(res))
	return res, err
}

// Calls reports total syscalls issued.
func (m *Monolith) Calls() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// wordsOf mirrors the proxy package's argument-size model so the two
// crossing mechanisms are charged on equal terms.
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
		case []any:
			bytes += 8 * uint64(len(x))
		default:
			bytes += 8
		}
	}
	return (bytes + 7) / 8
}

// NetPath is the monolith's fixed in-kernel packet path: parsing and a
// single, compiled-in port filter. Applications cannot extend it —
// the closest they get is selecting the port, and anything fancier
// means a syscall per packet to a user-level filter.
type NetPath struct {
	m *Monolith

	mu        sync.Mutex
	port      uint16
	delivered uint64
	dropped   uint64
	queue     [][]byte
}

// NewNetPath builds the fixed packet path with its compiled-in filter
// configured for the given UDP port.
func NewNetPath(m *Monolith, port uint16) *NetPath {
	return &NetPath{m: m, port: port}
}

// Deliver pushes a frame through the fixed kernel path. The built-in
// filter and demultiplexer run in the kernel without any crossing —
// fast, but immutable. Header processing and the payload copy are
// charged on the same terms as the Paramecium stack's.
func (p *NetPath) Deliver(frame []byte) {
	p.m.meter.ChargeNFor(clock.KernelDomain, clock.OpCall, 3)
	p.m.meter.ChargeNFor(clock.KernelDomain, clock.OpCopyWord, uint64(len(frame)+7)/8)
	eth, err := netstack.ParseFrame(frame)
	if err != nil || eth.EtherType != netstack.EtherTypeIP {
		p.drop()
		return
	}
	ip, err := netstack.ParseIP(eth.Payload)
	if err != nil || ip.Proto != netstack.ProtoUDP {
		p.drop()
		return
	}
	udp, err := netstack.ParseUDP(ip.Payload)
	if err != nil {
		p.drop()
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if udp.DstPort != p.port {
		p.dropped++
		return
	}
	p.delivered++
	p.queue = append(p.queue, append([]byte{}, udp.Payload...))
}

// DeliverViaUserFilter is what extensibility costs on the monolith: a
// syscall (to hand the frame to the user filter) per packet before
// the fixed path runs.
func (p *NetPath) DeliverViaUserFilter(frame []byte, filter func([]byte) bool) {
	res, err := p.m.Syscall("netpath.filter_upcall", frame)
	if err != nil || len(res) == 0 {
		p.drop()
		return
	}
	if ok, _ := res[0].(bool); !ok {
		p.drop()
		return
	}
	_ = filter // the upcall service invoked it; parameter documents intent
	p.Deliver(frame)
}

func (p *NetPath) drop() {
	p.mu.Lock()
	p.dropped++
	p.mu.Unlock()
}

// Stats reports delivered and dropped frame counts.
func (p *NetPath) Stats() (delivered, dropped uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delivered, p.dropped
}

// Recv pops the oldest delivered payload.
func (p *NetPath) Recv() ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil, false
	}
	b := p.queue[0]
	p.queue = p.queue[1:]
	return b, true
}
