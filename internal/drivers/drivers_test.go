package drivers

import (
	"testing"

	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/threads"
)

type rig struct {
	machine *hw.Machine
	svc     *mem.Service
	evt     *event.Service
	sched   *threads.Scheduler
}

func newRig() *rig {
	m := hw.New(hw.Config{PhysFrames: 64})
	svc := mem.New(m)
	sched := threads.NewScheduler(m.Meter)
	return &rig{machine: m, svc: svc, evt: event.New(m, sched), sched: sched}
}

func (r *rig) newNIC(t *testing.T) *hw.NIC {
	t.Helper()
	nic := hw.NewNIC("net0", 4)
	if err := r.machine.AttachDevice(nic); err != nil {
		t.Fatal(err)
	}
	return nic
}

func TestNetDriverReceivePath(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.Inject([]byte("hello wire")); err != nil {
		t.Fatal(err)
	}
	// Proto dispatch drained the ring inline during the interrupt.
	if nic.Pending() != 0 {
		t.Fatal("ring not drained by interrupt")
	}
	frame, ok := d.Recv()
	if !ok || string(frame) != "hello wire" {
		t.Fatalf("Recv = %q, %v", frame, ok)
	}
	if _, ok := d.Recv(); ok {
		t.Fatal("phantom frame")
	}
	rx, _, _ := d.Stats()
	if rx != 1 {
		t.Fatalf("rx = %d", rx)
	}
}

func TestNetDriverBurstDrain(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchRaw, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mask the IRQ so several frames pile up in the ring, then unmask:
	// a single delivery must drain all of them.
	if err := r.machine.MaskIRQ(nic.IRQ()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := nic.Inject([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.machine.UnmaskIRQ(nic.IRQ()); err != nil {
		t.Fatal(err)
	}
	if d.QueueLen() != 5 {
		t.Fatalf("queue = %d", d.QueueLen())
	}
	for i := 0; i < 5; i++ {
		frame, ok := d.Recv()
		if !ok || frame[0] != byte(i) {
			t.Fatalf("frame %d = %v, %v", i, frame, ok)
		}
	}
}

func TestNetDriverSend(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	var sent []byte
	nic.SetTxSink(func(f []byte) { sent = append([]byte(nil), f...) }) // valid only during the call
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Send([]byte("outbound")); err != nil {
		t.Fatal(err)
	}
	if string(sent) != "outbound" {
		t.Fatalf("sent %q", sent)
	}
	_, tx, _ := d.Stats()
	if tx != 1 {
		t.Fatalf("tx = %d", tx)
	}
	if err := d.Send(make([]byte, hw.NICSlotSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// A transmit while every receive slot holds a pending frame must leave
// all of them intact: the frame is staged in the NIC's transmit slot,
// which reception never uses.
func TestNetDriverSendKeepsPendingFrames(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	nic.SetTxSink(func([]byte) {})
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchRaw, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.machine.MaskIRQ(nic.IRQ()); err != nil {
		t.Fatal(err)
	}
	frameOf := func(i int) []byte {
		f := make([]byte, 64)
		for j := range f {
			f[j] = byte(i)
		}
		return f
	}
	for i := 0; i < hw.NICSlots; i++ {
		if err := nic.Inject(frameOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Send(frameOf(0xEE)); err != nil {
		t.Fatal(err)
	}
	if err := r.machine.UnmaskIRQ(nic.IRQ()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hw.NICSlots; i++ {
		frame, ok := d.Recv()
		if !ok || string(frame) != string(frameOf(i)) {
			t.Fatalf("frame %d = %v, %v; want 64 bytes of %d", i, frame, ok, i)
		}
	}
}

func TestNetDriverObjectInterface(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	var sent []byte
	nic.SetTxSink(func(f []byte) { sent = append([]byte(nil), f...) }) // valid only during the call
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := d.Iface(NetDevIface)
	if !ok {
		t.Fatal("netdev interface missing")
	}
	if _, err := iv.Invoke("send", []byte("via-iface")); err != nil {
		t.Fatal(err)
	}
	if string(sent) != "via-iface" {
		t.Fatalf("sent %q", sent)
	}
	if _, err := iv.Invoke("send", 42); err == nil {
		t.Fatal("non-[]byte frame accepted")
	}
	if err := nic.Inject([]byte("in")); err != nil {
		t.Fatal(err)
	}
	res, err := iv.Invoke("recv")
	if err != nil {
		t.Fatal(err)
	}
	// recv hands the frame out by reference, valid until the next recv.
	if frame, ok := obj.BytesArg(res[0]); !ok || string(frame) != "in" {
		t.Fatalf("recv = %v", res)
	}
	if res, err = iv.Invoke("recv"); err != nil {
		t.Fatal(err)
	}
	if frame, ok := obj.BytesArg(res[0]); !ok || frame != nil {
		t.Fatalf("recv on an empty queue = %v", res)
	}
	res, err = iv.Invoke("stats")
	if err != nil || len(res) != 3 {
		t.Fatalf("stats = %v, %v", res, err)
	}
}

func TestNetDriverExclusiveIO(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	if _, err := NewNetDriver("drv1", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	}); err != nil {
		t.Fatal(err)
	}
	// A second exclusive driver on the same device must fail.
	if _, err := NewNetDriver("drv2", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	}); err == nil {
		t.Fatal("second exclusive driver accepted")
	}
}

func TestNetDriverClose(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(r.svc); err != nil {
		t.Fatal(err)
	}
	// Resources are free for a replacement driver.
	if _, err := NewNetDriver("netdrv2", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	}); err != nil {
		t.Fatalf("replacement driver: %v", err)
	}
}

func TestTimerDriver(t *testing.T) {
	r := newRig()
	timer := hw.NewTimer("timer0", 1, r.machine.Meter.Clock)
	if err := r.machine.AttachDevice(timer); err != nil {
		t.Fatal(err)
	}
	d, err := NewTimerDriver("timerdrv", timer, r.svc, r.evt, TimerDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchRaw,
	})
	if err != nil {
		t.Fatal(err)
	}
	tickeds := 0
	d.Subscribe(func() { tickeds++ })

	iv, _ := d.Iface(TimerIface)
	if _, err := iv.Invoke("program", uint64(100)); err != nil {
		t.Fatal(err)
	}
	r.machine.Meter.Clock.Advance(350)
	res, err := iv.Invoke("poll")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int) != 3 {
		t.Fatalf("poll fired %v", res)
	}
	if d.Ticks() != 3 || tickeds != 3 {
		t.Fatalf("ticks = %d, subscriber saw %d", d.Ticks(), tickeds)
	}
	res, _ = iv.Invoke("ticks")
	if res[0].(uint64) != 3 {
		t.Fatalf("ticks via iface = %v", res)
	}
	if _, err := iv.Invoke("program", "not-a-uint"); err == nil {
		t.Fatal("bad program arg accepted")
	}
}

func TestConsoleDriver(t *testing.T) {
	r := newRig()
	cons := hw.NewConsole("cons0", 2)
	if err := r.machine.AttachDevice(cons); err != nil {
		t.Fatal(err)
	}
	d, err := NewConsoleDriver("consdrv", cons, r.svc, mmu.KernelContext)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Write("hello, console\n")
	if err != nil || n != 15 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if got := cons.Contents(); got != "hello, console\n" {
		t.Fatalf("console = %q", got)
	}
	iv, _ := d.Iface(ConsoleIface)
	if _, err := iv.Invoke("write", 99); err == nil {
		t.Fatal("non-string write accepted")
	}
}

// TestEchoPathAllocationFree drives the packet path the way a UDP echo
// does — NIC interrupt, proto-dispatched drain, stack pump, endpoint
// receive, reply — and pins it at zero allocations once the recycled
// buffers have reached their working size: the interrupt pops up on a
// reused carrier, receive buffers and endpoint payloads are recycled,
// the driver hops cross by reference, and the reply is built in a
// stack-owned buffer. Replies must still carry the right bytes.
func TestEchoPathAllocationFree(t *testing.T) {
	r := newRig()
	nic := r.newNIC(t)
	d, err := NewNetDriver("netdrv", nic, r.svc, r.evt, NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOExclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := d.Iface(NetDevIface)
	mac, peer := netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.MAC{2, 0, 0, 0, 0, 2}
	ip, peerIP := netstack.IP{10, 0, 0, 1}, netstack.IP{10, 0, 0, 2}
	stack, err := netstack.NewStack("stack", r.machine.Meter, iv, mac, ip)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := stack.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	var frames [4][]byte
	for i := range frames {
		frames[i] = netstack.BuildUDPFrame(mac, peer, peerIP, ip, 999, 7, []byte{byte(i), 1, 2, 3})
	}
	var sent, bad int
	nic.SetTxSink(func(f []byte) {
		sent++
		eth, err := netstack.ParseFrame(f)
		if err != nil {
			bad++
			return
		}
		pkt, err := netstack.ParseIP(eth.Payload)
		if err != nil {
			bad++
			return
		}
		if udp, err := netstack.ParseUDP(pkt.Payload); err != nil || udp.DstPort != 999 || len(udp.Payload) != 4 {
			bad++
		}
	})
	burst := func() {
		for _, f := range frames {
			if err := nic.Inject(f); err != nil {
				t.Fatal(err)
			}
		}
		if n := stack.Pump(); n != len(frames) {
			t.Fatalf("pumped %d frames, want %d", n, len(frames))
		}
		for i := 0; ; i++ {
			rcv, ok := ep.Recv()
			if !ok {
				break
			}
			if rcv.Payload[0] != byte(i) {
				t.Fatalf("datagram %d carries %v", i, rcv.Payload)
			}
			if err := stack.Send(peer, peerIP, rcv.SrcPort, 7, rcv.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Fatalf("echo burst allocates %v objects", allocs)
	}
	if want := 51*len(frames) + len(frames); sent != want || bad != 0 {
		t.Fatalf("sent %d replies (%d malformed), want %d", sent, bad, want)
	}
	if live := r.sched.LiveCount(); live != 0 {
		t.Fatalf("LiveCount = %d", live)
	}
}
