package main

import (
	"bytes"
	"errors"

	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/drivers"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/proxy"
	"paramecium/internal/repoz"
	"paramecium/internal/ring"
	"paramecium/internal/sandbox"
)

const (
	packetBurst   = 16
	packetMisses  = 4 // frames per burst addressed to port 9
	packetHits    = packetBurst - packetMisses
	packetPayload = 256
	echoPort      = 7
	otherPort     = 9
	clientPort    = 999
	// packetPool seeded bursts are cycled through, burst by burst.
	packetPool = 64
)

var (
	stackMAC  = netstack.MAC{2, 0, 0, 0, 0, 1}
	clientMAC = netstack.MAC{2, 0, 0, 0, 0, 2}
	stackIP   = netstack.IP{10, 0, 0, 1}
	clientIP  = netstack.IP{10, 0, 0, 2}
)

var echoDecl = obj.MustInterfaceDecl("bench.echo.v1",
	obj.MethodDecl{Name: "wake", NumIn: 0, NumOut: 0})

type packetBurstIn struct {
	frames [packetBurst][]byte
	// echoes are the port-7 payloads in injection order: what the
	// replies must carry back.
	echoes [packetHits][]byte
}

// packetLoad is the `packet` workload, the paper's scenario: a UDP echo
// service. Frames enter at the NIC; the interrupt pops up the driver's
// drain; the kernel-resident stack pumps them through the port-7 filter
// loaded kernel-certified, kernel-sandboxed and in a user domain; a
// network-server domain moves delivered datagrams over a ring to the
// application domain with one doorbell, and the application replies
// with one batch of stack.send calls that the driver transmits. The
// flight recorder is on from boot.
type packetLoad struct {
	bursts [packetPool]packetBurstIn
	next   int

	k     *core.Kernel
	nic   *hw.NIC
	drv   *drivers.NetDriver
	stack *netstack.Stack
	ep    *netstack.Endpoint
	pump  obj.MethodHandle
	prod  *ring.Producer
	cons  *ring.Consumer
	pxs   []*proxy.Proxy

	// application-side reply state
	sendH     obj.MethodHandle
	replies   *obj.Batch
	replyBuf  [packetHits][packetPayload]byte
	replyArgs [packetHits][]any
	popped    int
	appBad    int

	// transmit-side check state for the current burst
	cur   *packetBurstIn
	txN   int
	txBad int

	records, doorbells, delivered, frames uint64
	rxqMax                                uint64

	tr *tracer
}

func newPacketLoad(rnd *clock.Rand) workload {
	l := &packetLoad{}
	for b := range l.bursts {
		in := &l.bursts[b]
		miss := [packetBurst]bool{}
		for _, p := range rnd.Perm(packetBurst)[:packetMisses] {
			miss[p] = true
		}
		h := 0
		for i := range in.frames {
			payload := make([]byte, packetPayload)
			rnd.Bytes(payload)
			port := uint16(echoPort)
			if miss[i] {
				port = otherPort
			} else {
				in.echoes[h] = payload
				h++
			}
			in.frames[i] = netstack.BuildUDPFrame(stackMAC, clientMAC, clientIP, stackIP, clientPort, port, payload)
		}
	}
	for i := range l.replyArgs {
		l.replyArgs[i] = []any{uint16(clientPort), uint16(echoPort), l.replyBuf[i][:]}
	}
	return l
}

func (l *packetLoad) setup(w *world) error {
	k := w.k
	l.k = k
	l.nic = hw.NewNIC("net0", 4)
	if err := k.Machine.AttachDevice(l.nic); err != nil {
		return err
	}
	drv, err := drivers.NewNetDriver("netdrv", l.nic, k.Mem, k.Events, drivers.NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOShared,
	})
	if err != nil {
		return err
	}
	l.drv = drv
	if err := k.Register("/devices/net0", drv, mmu.KernelContext); err != nil {
		return err
	}
	drvIv, err := k.RootView.BindInterface("/devices/net0", drivers.NetDevIface)
	if err != nil {
		return err
	}
	if l.stack, err = netstack.NewStack("ipstack", k.Meter, drvIv, stackMAC, stackIP); err != nil {
		return err
	}
	if err := k.Register("/shared/network", l.stack, mmu.KernelContext); err != nil {
		return err
	}

	// One certified image, placed three ways and chained in order.
	prog := sandbox.MustAssemble(netstack.PortFilterProgram(echoPort))
	img := &repoz.Image{Name: "portfilter", Kind: repoz.KindPVM, Data: prog.Encode()}
	if img.Cert, err = w.admin.Certify(img.Name, img.Data, cert.PrivKernelResident); err != nil {
		return err
	}
	if err := k.Repo.Add(img); err != nil {
		return err
	}
	for _, pl := range []struct {
		p    core.Placement
		span spanName
	}{
		{core.PlaceKernelCertified, spanFilterCertified},
		{core.PlaceKernelSandboxed, spanFilterSandboxed},
		{core.PlaceUser, spanFilterUser},
	} {
		lf, err := k.LoadFilter(img.Name, pl.p)
		if err != nil {
			return err
		}
		if px, ok := lf.Instance().(*proxy.Proxy); ok {
			l.pxs = append(l.pxs, px)
		}
		l.stack.AttachFilter(&timedFilter{lf: lf, span: pl.span, l: l})
	}
	if l.ep, err = l.stack.Bind(echoPort); err != nil {
		return err
	}
	if l.pump, err = k.RootView.ResolveMethod("/shared/network", netstack.StackIface, "pump"); err != nil {
		return err
	}

	netsrv := k.NewDomain("netsrv")
	app := k.NewDomain("app")
	r, err := netsrv.NewRing(app, 2*packetBurst, packetPayload)
	if err != nil {
		return err
	}
	l.prod, l.cons = r.Producer(), r.Consumer()

	echo := obj.New("echo-app", k.Meter)
	bi, err := echo.AddInterface(echoDecl, nil)
	if err != nil {
		return err
	}
	bi.MustBindInto("wake", func(out []any, _ ...any) ([]any, error) {
		return out, l.wake()
	})
	if err := k.Register("/services/echo", echo, app.Ctx); err != nil {
		return err
	}
	wakePx, err := bindProxy(netsrv, "/services/echo")
	if err != nil {
		return err
	}
	wake, err := resolveVia(wakePx, echoDecl.Name, "wake")
	if err != nil {
		return err
	}
	l.prod.SetDoorbell(wake)
	sendPx, err := bindProxy(app, "/shared/network")
	if err != nil {
		return err
	}
	if l.sendH, err = resolveVia(sendPx, netstack.StackIface, "send"); err != nil {
		return err
	}
	l.pxs = append(l.pxs, wakePx, sendPx)
	l.replies = obj.NewBatch(packetHits)
	l.nic.SetTxSink(l.transmitted)
	return nil
}

// timedFilter wraps a loaded filter so the benchmark can time each
// placement's Accept from outside the stack.
type timedFilter struct {
	lf   *core.LoadedFilter
	span spanName
	l    *packetLoad
}

func (f *timedFilter) Name() string { return f.lf.Name() }

func (f *timedFilter) Accept(frame []byte) (bool, error) {
	t := f.l.tr
	if !t.on {
		return f.lf.Accept(frame)
	}
	t0 := now()
	ok, err := f.lf.Accept(frame)
	t.leaf(f.span, t0, now())
	return ok, err
}

// wake is the application's doorbell method: pop every record and
// echo each payload back with one batch of stack.send calls.
func (l *packetLoad) wake() error {
	t := l.tr
	l.replies.Reset()
	for l.popped < packetHits {
		var t0 int64
		if t.on {
			t0 = now()
		}
		n, err := l.cons.Pop(l.replyBuf[l.popped][:])
		if t.on {
			t.leaf(spanRingPop, t0, now())
		}
		if errors.Is(err, ring.ErrEmpty) {
			break
		}
		if err != nil {
			return err
		}
		if n != packetPayload {
			l.appBad++
		}
		if err := l.replies.AddInto(l.sendH, nil, l.replyArgs[l.popped]...); err != nil {
			return err
		}
		l.popped++
	}
	var t0 int64
	if t.on {
		t0 = now()
	}
	err := l.replies.Run()
	if t.on {
		t.leaf(spanBatchRun, t0, now())
	}
	if err != nil {
		return err
	}
	for i := 0; i < l.replies.Len(); i++ {
		if _, err := l.replies.Results(i); err != nil {
			return err
		}
	}
	return nil
}

// transmitted is the NIC's wire: each reply must carry its request's
// payload back, in order.
func (l *packetLoad) transmitted(frame []byte) {
	i := l.txN
	l.txN++
	eth, err := netstack.ParseFrame(frame)
	if err != nil || i >= packetHits {
		l.txBad++
		return
	}
	ip, err := netstack.ParseIP(eth.Payload)
	if err != nil {
		l.txBad++
		return
	}
	udp, err := netstack.ParseUDP(ip.Payload)
	if err != nil || udp.DstPort != clientPort || !bytes.Equal(udp.Payload, l.cur.echoes[i]) {
		l.txBad++
	}
}

func (l *packetLoad) unit(t *tracer) int {
	l.tr = t
	in := &l.bursts[l.next%packetPool]
	l.next++
	l.cur, l.txN, l.txBad, l.popped, l.appBad = in, 0, 0, 0, 0
	before := l.stack.Stats()
	l.frames += packetBurst

	var t0 int64
	if t.on {
		t0 = now()
		t.open(spanRequest, t0)
	}
	for _, f := range in.frames {
		if err := l.nic.Inject(f); err != nil {
			return l.abort(t)
		}
	}
	if t.on {
		t1 := now()
		t.leaf(spanHWInject, t0, t1)
		t0 = t1
	}
	l.k.Sched.RunUntilIdle()
	if q := uint64(l.drv.QueueLen()); q > l.rxqMax {
		l.rxqMax = q
	}
	if t.on {
		t1 := now()
		t.leaf(spanThreadsRun, t0, t1)
		t.open(spanNetPump, t1)
	}
	_, err := l.pump.Call()
	if t.on {
		t0 = now()
		t.close(t0)
	}
	if err != nil {
		return l.abort(t)
	}
	pushed := 0
	for {
		r, ok := l.ep.Recv()
		var t1 int64
		if t.on {
			t1 = now()
			t.leaf(spanNetRecv, t0, t1)
		}
		if !ok {
			break
		}
		err := l.prod.Push(r.Payload)
		if t.on {
			t0 = now()
			t.leaf(spanRingPush, t1, t0)
		}
		if err != nil {
			return l.abort(t)
		}
		pushed++
	}
	if t.on {
		t0 = now()
		t.open(spanRingNotify, t0)
	}
	err = l.prod.Notify()
	if t.on {
		t1 := now()
		t.close(t1)
		t.close(t1)
	}
	l.records += uint64(pushed)
	l.doorbells++
	after := l.stack.Stats()
	l.delivered += after.Delivered - before.Delivered
	if err != nil || pushed != packetHits || l.popped != packetHits || l.appBad != 0 ||
		after.Delivered-before.Delivered != packetHits ||
		after.Filtered-before.Filtered != packetMisses ||
		l.txN != packetHits || l.txBad != 0 || l.nic.Dropped() != 0 {
		return packetBurst
	}
	return 0
}

// abort closes the request span of a burst that failed part-way.
func (l *packetLoad) abort(t *tracer) int {
	if t.on {
		end := now()
		for len(t.stack) > 0 {
			t.close(end)
		}
	}
	return packetBurst
}

func (l *packetLoad) counts(c *layerCounts) {
	addProxyCounts(c, l.pxs...)
	c.records += l.records
	c.doorbells += l.doorbells
	c.delivered += l.delivered
	c.frames += l.frames
	c.rxDropped += l.nic.Dropped()
	if l.rxqMax > c.rxqMax {
		c.rxqMax = l.rxqMax
	}
}
