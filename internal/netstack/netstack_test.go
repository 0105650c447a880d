package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
	"paramecium/internal/sandbox"
)

var (
	macA = MAC{2, 0, 0, 0, 0, 1}
	macB = MAC{2, 0, 0, 0, 0, 2}
	ipA  = IP{10, 0, 0, 1}
	ipB  = IP{10, 0, 0, 2}
)

func TestAddressStrings(t *testing.T) {
	if macA.String() != "02:00:00:00:00:01" {
		t.Fatalf("MAC = %q", macA.String())
	}
	if ipA.String() != "10.0.0.1" {
		t.Fatalf("IP = %q", ipA.String())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	b := BuildFrame(macA, macB, EtherTypeIP, []byte("payload"))
	f, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dst != macA || f.Src != macB || f.EtherType != EtherTypeIP || string(f.Payload) != "payload" {
		t.Fatalf("frame = %+v", f)
	}
	if _, err := ParseFrame(b[:10]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short frame: %v", err)
	}
}

func TestIPRoundTrip(t *testing.T) {
	b := BuildIP(ipA, ipB, ProtoUDP, []byte("data"))
	p, err := ParseIP(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Src != ipA || p.Dst != ipB || p.Proto != ProtoUDP || p.TTL != DefaultTTL || string(p.Payload) != "data" {
		t.Fatalf("packet = %+v", p)
	}
	if _, err := ParseIP(b[:4]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short: %v", err)
	}
	// Total length beyond buffer.
	bad := append([]byte{}, b...)
	bad[2], bad[3] = 0xFF, 0xFF
	if _, err := ParseIP(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad length: %v", err)
	}
	// Trailing padding after total length is ignored.
	padded := append(append([]byte{}, b...), 0, 0, 0)
	p2, err := ParseIP(padded)
	if err != nil || string(p2.Payload) != "data" {
		t.Fatalf("padded parse: %v %q", err, p2.Payload)
	}
}

func TestUDPRoundTripAndChecksum(t *testing.T) {
	b := BuildUDP(1000, 2000, []byte("hello"))
	d, err := ParseUDP(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 1000 || d.DstPort != 2000 || string(d.Payload) != "hello" {
		t.Fatalf("dgram = %+v", d)
	}
	// Corrupt a payload byte: checksum must catch it.
	bad := append([]byte{}, b...)
	bad[UDPHeaderLen] ^= 0xFF
	if _, err := ParseUDP(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("corrupted: %v", err)
	}
	if _, err := ParseUDP(b[:4]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short: %v", err)
	}
}

func TestChecksumProperties(t *testing.T) {
	f := func(data []byte) bool {
		c := Checksum(data)
		// Deterministic.
		if Checksum(data) != c {
			return false
		}
		// One-byte flips are detected (for payloads with at least 1 byte).
		if len(data) > 0 {
			mut := append([]byte{}, data...)
			mut[0] ^= 0x01
			if Checksum(mut) == c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fakeDriver is a minimal in-memory netdev object for stack tests.
type fakeDriver struct {
	*obj.Object
	rxq  [][]byte
	sent [][]byte
}

func newFakeDriver() *fakeDriver {
	d := &fakeDriver{Object: obj.New("fakedrv", nil)}
	bi, err := d.AddInterface(obj.MustInterfaceDecl("paramecium.netdev.v1",
		obj.MethodDecl{Name: "send", NumIn: 1, NumOut: 0},
		obj.MethodDecl{Name: "recv", NumIn: 0, NumOut: 1},
		obj.MethodDecl{Name: "stats", NumIn: 0, NumOut: 3},
	), nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("send", func(args ...any) ([]any, error) {
		// The frame is the stack's reply buffer, ours only for the call.
		frame, _ := obj.BytesArg(args[0])
		d.sent = append(d.sent, append([]byte(nil), frame...))
		return nil, nil
	}).MustBind("recv", func(...any) ([]any, error) {
		if len(d.rxq) == 0 {
			return []any{[]byte(nil)}, nil
		}
		f := d.rxq[0]
		d.rxq = d.rxq[1:]
		return []any{f}, nil
	}).MustBind("stats", func(...any) ([]any, error) {
		return []any{uint64(0), uint64(0), uint64(0)}, nil
	})
	return d
}

func (d *fakeDriver) iface() obj.Invoker {
	iv, _ := d.Iface("paramecium.netdev.v1")
	return iv
}

func newTestStack(t *testing.T) (*Stack, *fakeDriver) {
	t.Helper()
	drv := newFakeDriver()
	s, err := NewStack("stack", clock.NewMeter(clock.DefaultCosts()), drv.iface(), macA, ipA)
	if err != nil {
		t.Fatal(err)
	}
	return s, drv
}

func TestStackDeliverToEndpoint(t *testing.T) {
	s, drv := newTestStack(t)
	ep, err := s.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	drv.rxq = append(drv.rxq, BuildUDPFrame(macA, macB, ipB, ipA, 9000, 7, []byte("ping")))
	if n := s.Pump(); n != 1 {
		t.Fatalf("pumped %d", n)
	}
	got, ok := ep.Recv()
	if !ok || string(got.Payload) != "ping" || got.SrcPort != 9000 || got.Src != ipB {
		t.Fatalf("recv = %+v, %v", got, ok)
	}
	st := s.Stats()
	if st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStackPortLifecycle(t *testing.T) {
	s, _ := newTestStack(t)
	if _, err := s.Bind(7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind(7); !errors.Is(err, ErrPortBusy) {
		t.Fatalf("rebind: %v", err)
	}
	if err := s.Unbind(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Unbind(7); !errors.Is(err, ErrNoPort) {
		t.Fatalf("double unbind: %v", err)
	}
}

func TestStackNoPortCounted(t *testing.T) {
	s, _ := newTestStack(t)
	s.Deliver(BuildUDPFrame(macA, macB, ipB, ipA, 1, 99, []byte("x")))
	if st := s.Stats(); st.NoPort != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStackMalformedCounted(t *testing.T) {
	s, _ := newTestStack(t)
	s.Deliver([]byte("way too short"))
	// Valid eth, bad ethertype.
	s.Deliver(BuildFrame(macA, macB, 0x9999, []byte("xxxxxxxxxxxxxxxx")))
	// Valid eth+ip, corrupt UDP checksum.
	udp := BuildUDP(1, 2, []byte("data"))
	udp[UDPHeaderLen] ^= 0xFF
	s.Deliver(BuildFrame(macA, macB, EtherTypeIP, BuildIP(ipB, ipA, ProtoUDP, udp)))
	if st := s.Stats(); st.Malformed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStackSend(t *testing.T) {
	s, drv := newTestStack(t)
	if err := s.Send(macB, ipB, 53, 1024, []byte("query")); err != nil {
		t.Fatal(err)
	}
	if len(drv.sent) != 1 {
		t.Fatal("nothing sent")
	}
	f, err := ParseFrame(drv.sent[0])
	if err != nil || f.Dst != macB || f.Src != macA {
		t.Fatalf("sent frame = %+v, %v", f, err)
	}
	ip, err := ParseIP(f.Payload)
	if err != nil || ip.Dst != ipB {
		t.Fatalf("ip = %+v, %v", ip, err)
	}
	udp, err := ParseUDP(ip.Payload)
	if err != nil || udp.DstPort != 53 || string(udp.Payload) != "query" {
		t.Fatalf("udp = %+v, %v", udp, err)
	}
}

func TestStackObjectInterface(t *testing.T) {
	s, drv := newTestStack(t)
	iv, ok := s.Iface(StackIface)
	if !ok {
		t.Fatal("stack interface missing")
	}
	if _, err := iv.Invoke("send", uint16(80), uint16(1000), []byte("web")); err != nil {
		t.Fatal(err)
	}
	if len(drv.sent) != 1 {
		t.Fatal("send via interface failed")
	}
	res, err := iv.Invoke("pump")
	if err != nil || res[0].(int) != 0 {
		t.Fatalf("pump = %v, %v", res, err)
	}
	res, err = iv.Invoke("stats")
	if err != nil || len(res) != 4 {
		t.Fatalf("stats = %v, %v", res, err)
	}
	if _, err := iv.Invoke("send", 1, 2, 3); err == nil {
		t.Fatal("bad args accepted")
	}
}

func TestGoFilter(t *testing.T) {
	s, _ := newTestStack(t)
	ep, _ := s.Bind(7)
	s.AttachFilter(FilterFunc{FName: "drop-odd", Fn: func(frame []byte) bool {
		return len(frame)%2 == 0
	}})
	even := BuildUDPFrame(macA, macB, ipB, ipA, 1, 7, []byte("ab")) // even overall?
	odd := BuildUDPFrame(macA, macB, ipB, ipA, 1, 7, []byte("abc"))
	// Sizes: 14+12+8+len. For "ab": 36 (even). For "abc": 37 (odd).
	s.Deliver(even)
	s.Deliver(odd)
	if ep.Len() != 1 {
		t.Fatalf("endpoint got %d datagrams", ep.Len())
	}
	st := s.Stats()
	if st.Filtered != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := s.Filters(); len(got) != 1 || got[0] != "drop-odd" {
		t.Fatalf("filters = %v", got)
	}
	if err := s.DetachFilter("drop-odd"); err != nil {
		t.Fatal(err)
	}
	if err := s.DetachFilter("drop-odd"); err == nil {
		t.Fatal("double detach succeeded")
	}
}

// Deliver iterates the filter list outside the stack lock, so Attach
// and Detach must never edit a list a delivery may be reading. Run
// under -race. Each filter yields, so the churn lands between a
// delivery's reads of the list.
func TestDeliverDuringFilterChurn(t *testing.T) {
	s, _ := newTestStack(t)
	ep, _ := s.Bind(7)
	pass := func(name string) Filter {
		return FilterFunc{FName: name, Fn: func([]byte) bool { runtime.Gosched(); return true }}
	}
	s.AttachFilter(pass("churn"))
	s.AttachFilter(pass("fixed"))
	const rounds = 1000
	done := make(chan error)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := s.DetachFilter("churn"); err != nil {
				done <- err
				return
			}
			s.AttachFilter(pass("churn"))
		}
		done <- nil
	}()
	frame := BuildUDPFrame(macA, macB, ipB, ipA, 1, 7, []byte("x"))
	for i := 0; i < rounds; i++ {
		s.Deliver(frame)
		ep.Recv()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Delivered != rounds || st.Filtered != 0 {
		t.Fatalf("stats = %+v, want %d delivered, none filtered", st, rounds)
	}
	if got := s.Filters(); len(got) != 2 || got[0] != "fixed" || got[1] != "churn" {
		t.Fatalf("filters = %v", got)
	}
}

func TestPortFilterProgramCertified(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	prog := sandbox.MustAssemble(PortFilterProgram(7))
	f, err := NewCertifiedFilter("port7", prog, meter)
	if err != nil {
		t.Fatal(err)
	}
	hit := BuildUDPFrame(macA, macB, ipB, ipA, 999, 7, []byte("yes"))
	miss := BuildUDPFrame(macA, macB, ipB, ipA, 999, 8, []byte("no"))
	short := []byte{1, 2, 3}
	notIP := BuildFrame(macA, macB, 0x0806, make([]byte, 40))

	for _, c := range []struct {
		frame []byte
		want  bool
	}{{hit, true}, {miss, false}, {short, false}, {notIP, false}} {
		got, err := f.Accept(c.frame)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Accept(len %d) = %v, want %v", len(c.frame), got, c.want)
		}
	}
	if meter.Count(clock.OpSFICheck) != 0 {
		t.Fatal("certified filter paid SFI checks")
	}
}

func TestPortFilterProgramSandboxed(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	prog := sandbox.MustAssemble(PortFilterProgram(7))
	f, err := NewSandboxedFilter("port7-sfi", prog, meter)
	if err != nil {
		t.Fatal(err)
	}
	hit := BuildUDPFrame(macA, macB, ipB, ipA, 999, 7, []byte("yes"))
	ok, err := f.Accept(hit)
	if err != nil || !ok {
		t.Fatalf("Accept = %v, %v", ok, err)
	}
	if meter.Count(clock.OpSFICheck) == 0 {
		t.Fatal("sandboxed filter paid no checks")
	}
}

func TestSandboxedCostsMoreThanCertified(t *testing.T) {
	prog := sandbox.MustAssemble(WorkFilterProgram(7, 256))
	frame := BuildUDPFrame(macA, macB, ipB, ipA, 999, 7, make([]byte, 512))

	mCert := clock.NewMeter(clock.DefaultCosts())
	cf, err := NewCertifiedFilter("w", prog, mCert)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Accept(frame); err != nil {
		t.Fatal(err)
	}

	mSFI := clock.NewMeter(clock.DefaultCosts())
	sf, err := NewSandboxedFilter("w", prog, mSFI)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Accept(frame); err != nil {
		t.Fatal(err)
	}
	if mSFI.Clock.Now() <= mCert.Clock.Now() {
		t.Fatalf("sandboxed %d cycles <= certified %d", mSFI.Clock.Now(), mCert.Clock.Now())
	}
}

func TestFilterCannotSeePreviousFrames(t *testing.T) {
	// A filter reading beyond the current frame must see zeros, not
	// the previous frame's bytes (no cross-user snooping through the
	// filter segment).
	meter := clock.NewMeter(clock.DefaultCosts())
	// Reads one byte at offset 100 into the frame area.
	prog := sandbox.MustAssemble(`
        loadi r1, 102
        ld8   r0, [r1+0]
        halt  r0
`)
	f, err := NewCertifiedFilter("peek", prog, meter)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	for i := range big {
		big[i] = 0xAA
	}
	if _, err := f.Accept(big); err != nil {
		t.Fatal(err)
	}
	// Now a short frame: offset 102 is past its end and must read 0.
	ok, err := f.Accept([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("filter observed residue of a previous frame")
	}
}

func TestAcceptAllProgram(t *testing.T) {
	f, err := NewCertifiedFilter("all", sandbox.MustAssemble(AcceptAllProgram), nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := f.Accept([]byte{})
	if err != nil || !ok {
		t.Fatalf("Accept = %v, %v", ok, err)
	}
}

func TestFilterErrorDropsFrame(t *testing.T) {
	s, _ := newTestStack(t)
	ep, _ := s.Bind(7)
	// A certified filter with a wild read fails at run time; the
	// frame must be dropped, not delivered.
	prog := sandbox.MustAssemble("loadi r1, 999999\nld8 r0, [r1+0]\nhalt r0")
	f, err := NewCertifiedFilter("wild", prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFilter(f)
	s.Deliver(BuildUDPFrame(macA, macB, ipB, ipA, 1, 7, []byte("x")))
	if ep.Len() != 0 {
		t.Fatal("frame delivered despite filter failure")
	}
	if st := s.Stats(); st.Filtered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUDPFrameRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		frame := BuildUDPFrame(macA, macB, ipA, ipB, sp, dp, payload)
		eth, err := ParseFrame(frame)
		if err != nil {
			return false
		}
		ip, err := ParseIP(eth.Payload)
		if err != nil {
			return false
		}
		udp, err := ParseUDP(ip.Payload)
		if err != nil {
			return false
		}
		return udp.SrcPort == sp && udp.DstPort == dp && string(udp.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendUDPFrameMatchesLayers: the one-pass builder writes exactly
// the bytes of the layered one — Ethernet carrying IP-lite carrying
// UDP — after whatever dst already holds, and reuses dst's room.
func TestAppendUDPFrameMatchesLayers(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte("ping"), make([]byte, 301)} {
		want := BuildFrame(macB, macA, EtherTypeIP,
			BuildIP(ipA, ipB, ProtoUDP, BuildUDP(7, 9000, payload)))
		got := AppendUDPFrame([]byte("head"), macB, macA, ipA, ipB, 7, 9000, payload)
		if string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
			t.Fatalf("payload %d bytes: appended frame differs from the layered build", len(payload))
		}
		buf := make([]byte, 0, 512)
		if out := AppendUDPFrame(buf, macB, macA, ipA, ipB, 7, 9000, payload); &out[0] != &buf[:1][0] {
			t.Fatal("a buffer with room was not reused")
		}
	}
}

// TestEndpointRecyclesPayloads: a received payload stays intact until
// the next Recv, whose buffer recycling makes a steady deliver/receive
// cycle allocation-free.
func TestEndpointRecyclesPayloads(t *testing.T) {
	s, _ := newTestStack(t)
	ep, err := s.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	a := BuildUDPFrame(macA, macB, ipB, ipA, 9000, 7, []byte("first"))
	b := BuildUDPFrame(macA, macB, ipB, ipA, 9000, 7, []byte("other"))
	s.Deliver(a)
	got, ok := ep.Recv()
	if !ok {
		t.Fatal("no datagram")
	}
	s.Deliver(b) // queued while got is still lent out
	if string(got.Payload) != "first" {
		t.Fatalf("lent payload overwritten: %q", got.Payload)
	}
	if next, ok := ep.Recv(); !ok || string(next.Payload) != "other" {
		t.Fatalf("second recv = %q, %v", next.Payload, ok)
	}
	cycle := func() {
		s.Deliver(a)
		s.Deliver(b)
		for {
			if _, ok := ep.Recv(); !ok {
				return
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("deliver/receive cycle allocates %v objects", allocs)
	}
}

// TestFilterSeesNoPreviousFrame pins the no-snooping guarantee of a
// PVM filter's segment: after a long frame, a short frame's run reads
// zeros past its end, both where the long frame's bytes were and where
// the previous run stored. A store-free program and a storing one
// exercise both clearing extents, each in both placements.
func TestFilterSeesNoPreviousFrame(t *testing.T) {
	const (
		past  = FilterFrameOffset + 100  // inside the long frame, past the short one
		store = FilterFrameOffset + 1000 // past both frames
	)
	readOnly := fmt.Sprintf(`
        ld8   r1, [r0+%d]
        halt  r1
`, past)
	storing := fmt.Sprintf(`
        ld8   r1, [r0+%d]
        ld8   r2, [r0+%d]
        add   r1, r1, r2
        loadi r3, 1
        st8   [r0+%d], r3
        halt  r1
`, past, store, store)
	long := bytes.Repeat([]byte{0xAA}, 600)
	short := bytes.Repeat([]byte{0x00}, 20)
	for _, c := range []struct {
		name, src string
	}{{"store-free", readOnly}, {"storing", storing}} {
		prog := sandbox.MustAssemble(c.src)
		cf, err := NewCertifiedFilter(c.name, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := NewSandboxedFilter(c.name, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*PVMFilter{cf, sf} {
			if ok, err := f.Accept(long); err != nil || !ok {
				t.Fatalf("%s sandboxed=%v: long frame: Accept = %v, %v; want it to see its own bytes", c.name, f.Sandboxed, ok, err)
			}
			for i := 0; i < 2; i++ {
				if ok, err := f.Accept(short); err != nil || ok {
					t.Fatalf("%s sandboxed=%v: short frame %d: Accept = %v, %v; read a previous run's byte", c.name, f.Sandboxed, i, ok, err)
				}
			}
		}
	}
}
