package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
	"paramecium/internal/sandbox"
)

// FuzzParsers feeds the wire parsers bytes a peer wrote: every input
// either parses or returns an error, never panics, and every payload a
// parser returns lies inside the input.
func FuzzParsers(f *testing.F) {
	valid := BuildUDPFrame(macA, macB, ipB, ipA, 1000, 7, []byte("fuzz payload"))
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	long := bytes.Clone(valid)
	binary.BigEndian.PutUint16(long[EthHeaderLen+2:], uint16(len(valid))) // IP length past the end
	f.Add(long)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, err := ParseFrame(b)
		if err != nil {
			return
		}
		if !within(frame.Payload, b) {
			t.Fatalf("frame payload outside the %d-byte input", len(b))
		}
		ip, err := ParseIP(frame.Payload)
		if err != nil {
			return
		}
		if !within(ip.Payload, b) {
			t.Fatalf("IP payload outside the %d-byte input", len(b))
		}
		udp, err := ParseUDP(ip.Payload)
		if err != nil {
			return
		}
		if !within(udp.Payload, b) {
			t.Fatalf("UDP payload outside the %d-byte input", len(b))
		}
	})
}

// within reports whether p is empty or a subslice of b.
func within(p, b []byte) bool {
	if len(p) == 0 {
		return true
	}
	for off := 0; off+len(p) <= len(b); off++ {
		if &b[off] == &p[0] {
			return true
		}
	}
	return false
}

// TestStackDeliverTotalOnRandomFrames: the full stack must absorb
// arbitrary frames without panicking, accounting each as delivered,
// filtered, malformed or port-less.
func TestStackDeliverTotalOnRandomFrames(t *testing.T) {
	s, _ := newTestStack(t)
	if _, err := s.Bind(7); err != nil {
		t.Fatal(err)
	}
	count := 0
	f := func(frame []byte) bool {
		s.Deliver(frame)
		count++
		st := s.Stats()
		total := st.Delivered + st.Filtered + st.NoPort + st.Malformed
		return total == uint64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPVMFilterTotalOnRandomFrames: a filter program must handle any
// frame contents, including oversized frames that get truncated into
// the inspection segment.
func TestPVMFilterTotalOnRandomFrames(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	cf, err := NewCertifiedFilter("p7", sandbox.MustAssemble(PortFilterProgram(7)), meter)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSandboxedFilter("p7s", sandbox.MustAssemble(PortFilterProgram(7)), meter)
	if err != nil {
		t.Fatal(err)
	}
	f := func(frame []byte, pad uint16) bool {
		if len(frame) > 8000 {
			frame = frame[:8000]
		}
		okC, errC := cf.Accept(frame)
		okS, errS := sf.Accept(frame)
		// Certified and sandboxed must agree on every input (the
		// rewrite is semantics-preserving for in-segment accesses, and
		// the filter only reads within the segment).
		if errC != nil || errS != nil {
			return errC != nil && errS != nil
		}
		return okC == okS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkFilterAgreesAcrossRegimes: the heavier work filter is also
// placement-independent in its verdicts.
func TestWorkFilterAgreesAcrossRegimes(t *testing.T) {
	prog := sandbox.MustAssemble(WorkFilterProgram(9, 128))
	cf, err := NewCertifiedFilter("w", prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSandboxedFilter("w", prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, port := range []uint16{7, 9, 100} {
		frame := BuildUDPFrame(macA, macB, ipB, ipA, 1, port, make([]byte, 300))
		okC, errC := cf.Accept(frame)
		okS, errS := sf.Accept(frame)
		if errC != nil || errS != nil {
			t.Fatalf("port %d: errs %v / %v", port, errC, errS)
		}
		if okC != okS {
			t.Fatalf("port %d: certified=%v sandboxed=%v", port, okC, okS)
		}
		if want := port == 9; okC != want {
			t.Fatalf("port %d: verdict %v, want %v", port, okC, want)
		}
	}
}
