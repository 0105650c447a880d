// Package netstack is the shared protocol stack component of the
// reproduction: a small Ethernet/IP/UDP-lite stack, written as an
// ordinary Paramecium object, with a packet-filter attach point.
//
// The stack exists to exercise the paper's motivating example:
// "inserting application components for fast protocol processing into
// a shared network device driver". Filters can be trusted Go code,
// certified PVM programs running without checks, or SFI-sandboxed PVM
// programs — the three protection regimes experiment T5/F1 compares.
package netstack

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC is a 6-byte hardware address.
type MAC [6]byte

// IP is a 4-byte network address.
type IP [4]byte

// String renders the MAC in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// String renders the IP in dotted-quad form.
func (p IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", p[0], p[1], p[2], p[3])
}

// Wire format sizes.
const (
	EthHeaderLen = 14 // dst(6) src(6) ethertype(2)
	IPHeaderLen  = 12 // proto(1) ttl(1) totalLen(2) src(4) dst(4)
	UDPHeaderLen = 8  // srcPort(2) dstPort(2) len(2) cksum(2)
)

// EtherTypeIP is the ethertype of the IP-lite protocol.
const EtherTypeIP = 0x0800

// ProtoUDP is the IP protocol number of UDP.
const ProtoUDP = 17

// DefaultTTL is the initial time-to-live of transmitted packets.
const DefaultTTL = 64

// ErrMalformed is returned for frames that do not parse.
var ErrMalformed = errors.New("netstack: malformed packet")

// Frame is a parsed Ethernet frame.
type Frame struct {
	Dst, Src  MAC
	EtherType uint16
	Payload   []byte // aliases the input
}

// ParseFrame decodes the Ethernet header.
func ParseFrame(b []byte) (Frame, error) {
	if len(b) < EthHeaderLen {
		return Frame{}, fmt.Errorf("%w: frame too short (%d bytes)", ErrMalformed, len(b))
	}
	var f Frame
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.EtherType = binary.BigEndian.Uint16(b[12:14])
	f.Payload = b[14:]
	return f, nil
}

// Packet is a parsed IP-lite packet.
type Packet struct {
	Proto    uint8
	TTL      uint8
	Src, Dst IP
	Payload  []byte
}

// ParseIP decodes the IP-lite header.
func ParseIP(b []byte) (Packet, error) {
	if len(b) < IPHeaderLen {
		return Packet{}, fmt.Errorf("%w: IP header too short", ErrMalformed)
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < IPHeaderLen || total > len(b) {
		return Packet{}, fmt.Errorf("%w: IP total length %d (have %d)", ErrMalformed, total, len(b))
	}
	var p Packet
	p.Proto = b[0]
	p.TTL = b[1]
	copy(p.Src[:], b[4:8])
	copy(p.Dst[:], b[8:12])
	p.Payload = b[IPHeaderLen:total]
	return p, nil
}

// Datagram is a parsed UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// ParseUDP decodes a UDP header and verifies the checksum.
func ParseUDP(b []byte) (Datagram, error) {
	if len(b) < UDPHeaderLen {
		return Datagram{}, fmt.Errorf("%w: UDP header too short", ErrMalformed)
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	if length < UDPHeaderLen || length > len(b) {
		return Datagram{}, fmt.Errorf("%w: UDP length %d (have %d)", ErrMalformed, length, len(b))
	}
	var d Datagram
	d.SrcPort = binary.BigEndian.Uint16(b[0:2])
	d.DstPort = binary.BigEndian.Uint16(b[2:4])
	d.Payload = b[UDPHeaderLen:length]
	want := binary.BigEndian.Uint16(b[6:8])
	if got := Checksum(d.Payload); got != want {
		return Datagram{}, fmt.Errorf("%w: UDP checksum %#x, want %#x", ErrMalformed, got, want)
	}
	return d, nil
}

// Checksum is a 16-bit one's-complement sum, the classic Internet
// checksum restricted to the payload. It reads the payload a 64-bit
// word at a time and adds the word's two 32-bit halves into a 64-bit
// accumulator, then folds once at the end (RFC 1071's wide-accumulator
// form). Since 2^16 ≡ 1 modulo 2^16-1, a sum of 32-bit big-endian words
// folds to the same value as the sum of the 16-bit words they hold. The
// accumulator gains under 2^33 per word, so it cannot wrap below 16 GiB.
func Checksum(b []byte) uint16 {
	var sum uint64
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&0xFFFFFFFF
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// BuildUDPFrame assembles a full frame down the stack: Ethernet
// carrying IP-lite carrying UDP.
func BuildUDPFrame(dstMAC, srcMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16, payload []byte) []byte {
	return AppendUDPFrame(nil, dstMAC, srcMAC, srcIP, dstIP, srcPort, dstPort, payload)
}

// AppendUDPFrame appends the frame BuildUDPFrame builds to dst and
// returns the extended slice, writing every header in one pass: a
// sender that keeps its buffer builds each frame without allocating.
func AppendUDPFrame(dst []byte, dstMAC, srcMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16, payload []byte) []byte {
	udpLen := UDPHeaderLen + len(payload)
	dst = append(dst, dstMAC[:]...)
	dst = append(dst, srcMAC[:]...)
	dst = binary.BigEndian.AppendUint16(dst, EtherTypeIP)
	dst = append(dst, ProtoUDP, DefaultTTL)
	dst = binary.BigEndian.AppendUint16(dst, uint16(IPHeaderLen+udpLen))
	dst = append(dst, srcIP[:]...)
	dst = append(dst, dstIP[:]...)
	dst = binary.BigEndian.AppendUint16(dst, srcPort)
	dst = binary.BigEndian.AppendUint16(dst, dstPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(udpLen))
	dst = binary.BigEndian.AppendUint16(dst, Checksum(payload))
	return append(dst, payload...)
}
