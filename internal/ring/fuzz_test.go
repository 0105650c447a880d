package ring

import (
	"encoding/binary"
	"errors"
	"testing"

	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/shm"
)

// FuzzRingControlWords runs both ring endpoints against an adversary
// that writes arbitrary head, tail, descriptor and header words through
// either side's own mapping, interleaved with ordinary producer and
// consumer calls. Every call must return nil or one of the ring's
// protocol errors, never panic or hang, and every record it hands out
// must lie inside one payload slot.
//
// The input is a program: byte 0 picks the slot count, byte 1 the slot
// size, and each following op byte is read with the operands it needs.
// Run it beyond its committed corpus with
//
//	go test -run '^$' -fuzz FuzzRingControlWords -fuzztime 30s ./internal/ring
func FuzzRingControlWords(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		slots, slotBytes := 1+int(prog[0]%8), int(prog[1]%40)
		prog = prog[2:]
		machine := hw.New(hw.Config{PhysFrames: 64, CPUs: 1})
		svc := mem.New(machine)
		r, err := New(machine.Meter, shm.NewRegistry(svc), svc.NewDomain(), svc.NewDomain(), slots, slotBytes)
		if err != nil {
			t.Fatal(err)
		}
		p, c := r.Producer(), r.Consumer()
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		word := func() uint64 {
			var w [8]byte
			for i := range w {
				w[i] = next()
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		// target maps an operand to a control word: the six header
		// words, then one descriptor per slot.
		target := func() int {
			k := int(next()) % (6 + slots)
			if k < 6 {
				return k * 8
			}
			return r.descOff(uint64(k - 6))
		}
		inSlot := func(op string, off, n int) {
			for k := 0; k < slots; k++ {
				if off == r.payloadOff(uint64(k)) && n >= 0 && n <= slotBytes {
					return
				}
			}
			t.Fatalf("%s: record [%d, +%d) is not inside one slot", op, off, n)
		}
		check := func(op string, err error) {
			if err == nil || errors.Is(err, ErrFull) || errors.Is(err, ErrEmpty) ||
				errors.Is(err, ErrRecordSize) || errors.Is(err, ErrHangup) || errors.Is(err, ErrCorrupt) {
				return
			}
			t.Fatalf("%s: unexpected error %v", op, err)
		}
		rec := make([]byte, slotBytes+8)
		for len(prog) > 0 {
			switch next() % 10 {
			case 0:
				check("Push", p.Push(rec[:int(next())%len(rec)]))
			case 1:
				off, err := p.ProduceOffset()
				check("ProduceOffset", err)
				if err == nil {
					inSlot("ProduceOffset", off, 0)
				}
			case 2:
				check("PushInPlace", p.PushInPlace(int(next())%(slotBytes+4)))
			case 3:
				check("Notify", p.Notify())
			case 4:
				n, err := c.Pop(make([]byte, int(next())%(slotBytes+8)))
				check("Pop", err)
				if err == nil && n > slotBytes {
					t.Fatalf("Pop: record of %d bytes in %d-byte slots", n, slotBytes)
				}
			case 5:
				off, n, err := c.Peek()
				check("Peek", err)
				if err == nil {
					inSlot("Peek", off, n)
				}
			case 6:
				check("Release", c.Release())
			case 7:
				n, err := c.Len()
				check("Len", err)
				if err == nil && (n < 0 || n > slots) {
					t.Fatalf("Len = %d with %d slots", n, slots)
				}
			case 8:
				// The producer side writes through the owner mapping,
				// the consumer side through its attachment (which fails
				// once the grant is revoked; the adversary shrugs).
				var w [8]byte
				off := target()
				binary.LittleEndian.PutUint64(w[:], word())
				if next()%2 == 0 {
					_ = r.Segment().Store(off, w[:])
				} else {
					_ = c.Attachment().Store(off, w[:])
				}
			case 9:
				check("Hangup", p.Hangup())
			}
		}
	})
}
