package netstack

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

// StackIface is the interface name exported by the stack object.
const StackIface = "paramecium.netstack.v1"

// StackDecl is the stack interface's type information.
var StackDecl = obj.MustInterfaceDecl(StackIface,
	obj.MethodDecl{Name: "pump", NumIn: 0, NumOut: 1},  // -> frames processed
	obj.MethodDecl{Name: "send", NumIn: 3, NumOut: 0},  // (dstPort, srcPort, payload)
	obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 4}, // -> delivered, filtered, noport, malformed
)

// Errors.
var (
	ErrPortBusy = errors.New("netstack: port already bound")
	ErrNoPort   = errors.New("netstack: port not bound")
)

// Stats counts the stack's dispositions.
type Stats struct {
	Delivered uint64 // datagrams queued to an endpoint
	Filtered  uint64 // frames rejected by a filter
	NoPort    uint64 // datagrams to unbound ports
	Malformed uint64 // frames that failed to parse
}

// Stack is the shared protocol stack: it pulls frames from a network
// driver (any object exporting paramecium.netdev.v1), runs the
// attached packet filters, parses Ethernet/IP/UDP and demultiplexes
// datagrams to bound endpoints.
type Stack struct {
	*obj.Object
	// recv/send are the driver methods pre-resolved at construction:
	// the per-frame pump path dispatches by slot, not by name.
	recv  obj.MethodHandle
	send  obj.MethodHandle
	meter *clock.Meter

	// Addr/HWAddr identify this stack on the simulated wire.
	Addr   IP
	HWAddr MAC

	mu sync.Mutex
	// filters is copy-on-write: Attach and Detach build a new slice,
	// so the snapshot Deliver iterates outside the lock never changes.
	filters   []Filter
	endpoints map[uint16]*Endpoint
	stats     Stats
	txFree    []*txFrame // reply buffers Send builds frames in

	// pumpMu serializes Pump, which makes the stack its driver's one
	// receive consumer (a frame from recv is valid until the next
	// recv), and guards rxOut, the recv hop's result buffer.
	pumpMu sync.Mutex
	rxOut  [1]any
}

// txFrame is a stack-owned reply buffer: Send builds a frame in it and
// hands the driver the frame's header by reference (obj.BytesArg), so
// neither the frame nor its boxing allocates once the buffer has grown
// to the largest frame sent.
type txFrame struct {
	frame []byte
	args  [1]any // {&frame}
}

// NewStack builds a stack over a driver interface.
func NewStack(class string, meter *clock.Meter, driver obj.Invoker, hwaddr MAC, addr IP) (*Stack, error) {
	if driver == nil {
		return nil, errors.New("netstack: nil driver")
	}
	recv, err := driver.Resolve("recv")
	if err != nil {
		return nil, fmt.Errorf("netstack: driver has no recv: %w", err)
	}
	send, err := driver.Resolve("send")
	if err != nil {
		return nil, fmt.Errorf("netstack: driver has no send: %w", err)
	}
	s := &Stack{
		Object:    obj.New(class, meter),
		recv:      recv,
		send:      send,
		meter:     meter,
		Addr:      addr,
		HWAddr:    hwaddr,
		endpoints: make(map[uint16]*Endpoint),
	}
	bi, err := s.AddInterface(StackDecl, s)
	if err != nil {
		return nil, err
	}
	bi.MustBind("pump", func(...any) ([]any, error) {
		return []any{s.Pump()}, nil
	}).MustBind("send", func(args ...any) ([]any, error) {
		dstPort, ok1 := args[0].(uint16)
		srcPort, ok2 := args[1].(uint16)
		payload, ok3 := args[2].([]byte)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("netstack: send wants (uint16, uint16, []byte)")
		}
		return nil, s.Send(BroadcastMAC, s.Addr, dstPort, srcPort, payload)
	}).MustBind("stats", func(...any) ([]any, error) {
		st := s.Stats()
		return []any{st.Delivered, st.Filtered, st.NoPort, st.Malformed}, nil
	})
	return s, nil
}

// BroadcastMAC is the all-ones hardware address.
var BroadcastMAC = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// AttachFilter appends a filter to the chain (run in attach order).
func (s *Stack) AttachFilter(f Filter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filters = append(s.filters[:len(s.filters):len(s.filters)], f)
}

// DetachFilter removes the named filter.
func (s *Stack) DetachFilter(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, f := range s.filters {
		if f.Name() == name {
			s.filters = slices.Concat(s.filters[:i], s.filters[i+1:])
			return nil
		}
	}
	return fmt.Errorf("netstack: no filter %q", name)
}

// Filters lists attached filter names in order.
func (s *Stack) Filters() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.filters))
	for i, f := range s.filters {
		out[i] = f.Name()
	}
	return out
}

// Bind claims a UDP port and returns its endpoint.
func (s *Stack) Bind(port uint16) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.endpoints[port]; busy {
		return nil, fmt.Errorf("%w: %d", ErrPortBusy, port)
	}
	ep := &Endpoint{stack: s, port: port}
	s.endpoints[port] = ep
	return ep, nil
}

// Unbind releases a port.
func (s *Stack) Unbind(port uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.endpoints[port]; !ok {
		return fmt.Errorf("%w: %d", ErrNoPort, port)
	}
	delete(s.endpoints, port)
	return nil
}

// Pump drains the driver's receive queue through the stack and
// returns the number of frames processed. Pumps serialize.
//
//paramecium:hotpath
func (s *Stack) Pump() int {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	n := 0
	for {
		res, err := s.recv.CallInto(s.rxOut[:0])
		if err != nil {
			return n
		}
		frame, _ := obj.BytesArg(res[0])
		if frame == nil {
			return n
		}
		s.Deliver(frame)
		n++
	}
}

// Deliver pushes one raw frame through filters, parsing and
// demultiplexing. It is exported so the experiments can feed the
// stack directly.
//
//paramecium:hotpath
func (s *Stack) Deliver(frame []byte) {
	s.mu.Lock()
	filters := s.filters
	s.mu.Unlock()
	for _, f := range filters {
		ok, err := f.Accept(frame)
		if err != nil || !ok {
			s.mu.Lock()
			s.stats.Filtered++
			s.mu.Unlock()
			return
		}
	}
	// Header processing is charged per protocol layer, the payload
	// copy per word, so the stack's own cost is visible in virtual
	// time alongside the filters'.
	if s.meter != nil {
		s.meter.ChargeNFor(clock.KernelDomain, clock.OpCall, 3)
		s.meter.ChargeNFor(clock.KernelDomain, clock.OpCopyWord, uint64(len(frame)+7)/8)
	}
	eth, err := ParseFrame(frame)
	if err != nil || eth.EtherType != EtherTypeIP {
		s.countMalformed()
		return
	}
	ip, err := ParseIP(eth.Payload)
	if err != nil || ip.Proto != ProtoUDP {
		s.countMalformed()
		return
	}
	udp, err := ParseUDP(ip.Payload)
	if err != nil {
		s.countMalformed()
		return
	}
	s.mu.Lock()
	ep, ok := s.endpoints[udp.DstPort]
	if !ok {
		s.stats.NoPort++
		s.mu.Unlock()
		return
	}
	s.stats.Delivered++
	s.mu.Unlock()
	ep.push(ip.Src, udp.SrcPort, udp.Payload)
}

func (s *Stack) countMalformed() {
	s.mu.Lock()
	s.stats.Malformed++
	s.mu.Unlock()
}

// Send transmits a UDP datagram through the driver. The frame is built
// in a stack-owned reply buffer, which the driver may use only during
// its send.
//
//paramecium:hotpath
func (s *Stack) Send(dstMAC MAC, dstIP IP, dstPort, srcPort uint16, payload []byte) error {
	tx := s.takeTx()
	tx.frame = AppendUDPFrame(tx.frame[:0], dstMAC, s.HWAddr, s.Addr, dstIP, srcPort, dstPort, payload)
	_, err := s.send.CallInto(nil, tx.args[:]...)
	s.mu.Lock()
	s.txFree = append(s.txFree, tx)
	s.mu.Unlock()
	return err
}

// takeTx pops a free reply buffer, or makes one: the stack holds as
// many as Sends ever ran at once.
func (s *Stack) takeTx() *txFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.txFree); n > 0 {
		tx := s.txFree[n-1]
		s.txFree[n-1] = nil
		s.txFree = s.txFree[:n-1]
		return tx
	}
	tx := new(txFrame)
	tx.args[0] = &tx.frame
	return tx
}

// Stats returns a snapshot of the counters.
func (s *Stack) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Received is one delivered datagram.
type Received struct {
	Src     IP
	SrcPort uint16
	Payload []byte
}

// Endpoint is a bound UDP port's receive queue. Payload buffers are
// recycled: the stack copies each datagram into a spare buffer, and a
// payload returned by Recv goes back to the spares at the next Recv.
type Endpoint struct {
	stack *Stack
	port  uint16

	mu    sync.Mutex
	q     []Received // queued datagrams, oldest at head
	head  int
	spare [][]byte // recycled payload buffers
	lent  []byte   // the payload the last Recv returned
}

// Port reports the bound port.
func (e *Endpoint) Port() uint16 { return e.port }

// push queues a copy of payload.
//
//paramecium:hotpath
func (e *Endpoint) push(src IP, srcPort uint16, payload []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf []byte
	if n := len(e.spare); n > 0 {
		buf = e.spare[n-1][:0]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
	}
	if e.head > 0 && len(e.q) == cap(e.q) {
		// Full but partly consumed: slide the queue to the front
		// instead of growing it.
		n := copy(e.q, e.q[e.head:])
		clear(e.q[n:])
		e.q, e.head = e.q[:n], 0
	}
	buf = append(buf, payload...)
	e.q = append(e.q, Received{Src: src, SrcPort: srcPort, Payload: buf})
}

// Recv pops the oldest datagram. Its Payload stays valid until the
// next Recv on this endpoint, which recycles the buffer; a receiver
// that keeps a payload longer must copy it.
//
//paramecium:hotpath
func (e *Endpoint) Recv() (Received, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lent != nil {
		e.spare = append(e.spare, e.lent)
		e.lent = nil
	}
	if e.head == len(e.q) {
		return Received{}, false
	}
	r := e.q[e.head]
	e.q[e.head] = Received{}
	e.head++
	if e.head == len(e.q) {
		e.q, e.head = e.q[:0], 0
	}
	e.lent = r.Payload
	return r, true
}

// Len reports queued datagrams.
func (e *Endpoint) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.q) - e.head
}
