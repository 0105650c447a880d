package netstack

import (
	"errors"
	"fmt"

	"paramecium/internal/clock"
	"paramecium/internal/sandbox"
)

// Filter is the packet-filter attach point of the shared stack: an
// application-supplied predicate consulted for every received frame.
// This is the paper's "application components for fast protocol
// processing" inserted "into a shared network device driver".
type Filter interface {
	Name() string
	// Accept reports whether the frame should be processed further.
	Accept(frame []byte) (bool, error)
}

// FilterFunc adapts a Go function — the form a trusted, certified
// native component takes in this reproduction.
type FilterFunc struct {
	FName string
	Fn    func(frame []byte) bool
}

// Name implements Filter.
func (f FilterFunc) Name() string { return f.FName }

// Accept implements Filter.
func (f FilterFunc) Accept(frame []byte) (bool, error) { return f.Fn(frame), nil }

// Filter ABI for PVM filter programs: the data segment starts with the
// frame length as a big-endian 16-bit word at offset 0, followed by
// the frame bytes at offset FilterFrameOffset. The program halts with
// a non-zero value to accept the frame.
const (
	// FilterLenOffset is the segment offset of the 16-bit frame length.
	FilterLenOffset = 0
	// FilterFrameOffset is the segment offset of the frame bytes.
	FilterFrameOffset = 2
	// FilterSegSize is the (power-of-two) segment size given to filter
	// programs; frames larger than FilterSegSize-FilterFrameOffset are
	// truncated for inspection purposes.
	FilterSegSize = 4096
)

// ErrFilterFailed wraps execution failures of a PVM filter.
var ErrFilterFailed = errors.New("netstack: filter execution failed")

// PVMFilter runs a PVM program per frame. With Sandboxed set, the
// program is the SFI-rewritten form and runs with enforcement (the
// Exokernel/SPIN-style placement); otherwise it runs check-free (the
// certified placement). Prog must not change after construction: the
// constructors decide once whether it can store into its segment.
type PVMFilter struct {
	FName     string
	Prog      sandbox.Program
	Meter     *clock.Meter
	Sandboxed bool
	Fuel      uint64

	// storeFree is set by the constructors for a program without st8,
	// st16, st32 or st64: it writes nothing into its segment, so a run
	// leaves only the frame bytes behind. The zero value assumes stores.
	storeFree bool
	// dirty is the segment's high-water mark: bytes at and past it are
	// zero. Accept clears only [end of the new frame, dirty).
	dirty int
	seg   [FilterSegSize]byte
}

// NewCertifiedFilter builds a check-free filter from a source program.
func NewCertifiedFilter(name string, prog sandbox.Program, meter *clock.Meter) (*PVMFilter, error) {
	if err := sandbox.Verify(prog); err != nil {
		return nil, err
	}
	return &PVMFilter{FName: name, Prog: prog, Meter: meter, storeFree: storeFree(prog)}, nil
}

// NewSandboxedFilter builds an SFI-enforced filter: the program is
// rewritten with address-masking checks first.
func NewSandboxedFilter(name string, prog sandbox.Program, meter *clock.Meter) (*PVMFilter, error) {
	rewritten, err := sandbox.Rewrite(prog)
	if err != nil {
		return nil, err
	}
	return &PVMFilter{FName: name, Prog: rewritten, Meter: meter, Sandboxed: true, storeFree: storeFree(rewritten)}, nil
}

// storeFree reports whether prog has no store instruction.
func storeFree(prog sandbox.Program) bool {
	for _, in := range prog {
		switch in.Op {
		case sandbox.OpSt8, sandbox.OpSt16, sandbox.OpSt32, sandbox.OpSt64:
			return false
		}
	}
	return true
}

// Name implements Filter.
func (p *PVMFilter) Name() string { return p.FName }

// Accept implements Filter.
func (p *PVMFilter) Accept(frame []byte) (bool, error) {
	n := len(frame)
	if n > FilterSegSize-FilterFrameOffset {
		n = FilterSegSize - FilterFrameOffset
	}
	p.seg[0] = byte(n >> 8)
	p.seg[1] = byte(n)
	copy(p.seg[FilterFrameOffset:], frame[:n])
	// Zero the tail so a filter cannot observe previous frames (the
	// snooping concern is about *other users'* traffic, which a
	// shared filter must never see). Only what the last run could have
	// written past this frame needs clearing: the last frame's bytes,
	// or the whole segment if the program stores.
	end := FilterFrameOffset + n
	if end < p.dirty {
		clear(p.seg[end:p.dirty])
	}
	p.dirty = end
	if !p.storeFree {
		p.dirty = FilterSegSize
	}
	e := sandbox.Exec{Meter: p.Meter, Fuel: p.Fuel, EnforceSandbox: p.Sandboxed}
	res, err := e.Run(p.Prog, p.seg[:])
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrFilterFailed, err)
	}
	return res.Ret != 0, nil
}

// AcceptAllProgram is a trivial filter program accepting every frame.
const AcceptAllProgram = `
        loadi r0, 1
        halt  r0
`

// PortFilterProgram returns the source of a filter accepting UDP
// datagrams addressed to the given port and rejecting everything
// else. It parses the real wire format: Ethernet ethertype, IP-lite
// protocol, UDP destination port.
func PortFilterProgram(port uint16) string {
	// Segment layout: [0:2] frame len, [2:] frame.
	// Frame layout:   eth header 14 (ethertype at 12),
	//                 ip header 12 (proto at 0), udp dst port at +2.
	return fmt.Sprintf(`
        ; r1 = frame length
        ld16  r1, [r0+%d]
        loadi r2, %d            ; minimum parseable length
        jlt   r1, r2, drop
        ld16  r3, [r0+%d]       ; ethertype
        loadi r4, %d
        jne   r3, r4, drop
        ld8   r5, [r0+%d]       ; ip proto
        loadi r6, %d
        jne   r5, r6, drop
        ld16  r7, [r0+%d]       ; udp dst port
        loadi r8, %d
        jne   r7, r8, drop
        loadi r0, 1
        halt  r0
drop:   loadi r0, 0
        halt  r0
`,
		FilterLenOffset,
		EthHeaderLen+IPHeaderLen+UDPHeaderLen,
		FilterFrameOffset+12,
		EtherTypeIP,
		FilterFrameOffset+EthHeaderLen,
		ProtoUDP,
		FilterFrameOffset+EthHeaderLen+IPHeaderLen+2,
		port,
	)
}

// WorkFilterProgram returns a filter that, in addition to the port
// check, performs extra per-frame work: it sums `loops` bytes of the
// payload (a stand-in for checksum/decryption work). Used by the
// break-even experiment F2 to scale filter complexity.
func WorkFilterProgram(port uint16, loops int) string {
	return fmt.Sprintf(`
        ld16  r1, [r0+%d]       ; frame length (unused bound)
        ld16  r7, [r0+%d]       ; udp dst port
        loadi r8, %d
        jne   r7, r8, drop
        ; checksum-ish loop over the first %d bytes of the frame
        loadi r2, %d            ; index
        loadi r3, %d            ; limit
        loadi r4, 0             ; sum
        loadi r6, 1
loop:   jge   r2, r3, accept
        ld8   r5, [r2+0]
        add   r4, r4, r5
        add   r2, r2, r6
        jmp   loop
accept: loadi r0, 1
        halt  r0
drop:   loadi r0, 0
        halt  r0
`,
		FilterLenOffset,
		FilterFrameOffset+EthHeaderLen+IPHeaderLen+2,
		port,
		loops,
		FilterFrameOffset,
		FilterFrameOffset+loops,
	)
}
