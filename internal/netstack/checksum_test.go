package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"

	"paramecium/internal/clock"
)

// checksumRef is the Internet checksum the plain way: one 16-bit
// big-endian word at a time, the odd trailing byte as a word's high
// half. Checksum must agree with it on every input.
func checksumRef(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// FuzzChecksum compares the word-wide checksum with the 16-bit
// reference. The seeds, which plain go test replays, cover every length
// through 200 bytes (several words and every tail) with random, all-zero
// and all-0xFF payloads, where the one's-complement zero is easiest to
// get wrong. Search beyond them with
//
//	go test -run '^$' -fuzz FuzzChecksum -fuzztime 30s ./internal/netstack
func FuzzChecksum(f *testing.F) {
	r := clock.NewRand(1071)
	for n := 0; n <= 200; n++ {
		b := make([]byte, n)
		r.Bytes(b)
		f.Add(b)
		f.Add(make([]byte, n))
		f.Add(bytes.Repeat([]byte{0xFF}, n))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Checksum(b), checksumRef(b); got != want {
			t.Fatalf("Checksum(% x) = %#x, reference %#x", b, got, want)
		}
	})
}
