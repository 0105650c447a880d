package ring

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"paramecium/internal/clock"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/shm"
)

func newTestRing(t *testing.T, slots, slotBytes int) (*Ring, *shm.Registry, *mem.Service, *hw.Machine) {
	t.Helper()
	machine := hw.New(hw.Config{PhysFrames: 512, CPUs: 1})
	svc := mem.New(machine)
	reg := shm.NewRegistry(svc)
	prod := svc.NewDomain()
	cons := svc.NewDomain()
	r, err := New(machine.Meter, reg, prod, cons, slots, slotBytes)
	if err != nil {
		t.Fatal(err)
	}
	return r, reg, svc, machine
}

func TestRingRoundTrip(t *testing.T) {
	r, _, _, machine := newTestRing(t, 4, 64)
	p, c := r.Producer(), r.Consumer()

	// Push more records than slots to exercise wrap-around.
	buf := make([]byte, 64)
	for i := 0; i < 11; i++ {
		rec := []byte(fmt.Sprintf("record-%02d", i))
		if err := p.Push(rec); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		n, err := c.Pop(buf)
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if n != len(rec) || !bytes.Equal(buf[:n], rec) {
			t.Fatalf("pop %d = %q (%d), want %q", i, buf[:n], n, rec)
		}
	}
	if machine.Meter.Count(clock.OpRingPush) != 11 || machine.Meter.Count(clock.OpRingPop) != 11 {
		t.Fatalf("push/pop charges = %d/%d, want 11/11",
			machine.Meter.Count(clock.OpRingPush), machine.Meter.Count(clock.OpRingPop))
	}
}

func TestRingFullEmpty(t *testing.T) {
	r, _, _, _ := newTestRing(t, 2, 16)
	p, c := r.Producer(), r.Consumer()

	if _, err := c.Pop(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("pop of empty ring = %v, want ErrEmpty", err)
	}
	if err := p.Push([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Push([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := p.Push([]byte("c")); !errors.Is(err, ErrFull) {
		t.Fatalf("push into full ring = %v, want ErrFull", err)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	// The freed slot is visible to the producer via the head word.
	if err := p.Push([]byte("c")); err != nil {
		t.Fatalf("push after release: %v", err)
	}
	if err := p.Push([]byte("too long for a slot")); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("oversize push = %v, want ErrRecordSize", err)
	}
}

func TestRingGeometry(t *testing.T) {
	machine := hw.New(hw.Config{PhysFrames: 512, CPUs: 1})
	svc := mem.New(machine)
	reg := shm.NewRegistry(svc)
	prod, cons := svc.NewDomain(), svc.NewDomain()
	if _, err := New(machine.Meter, reg, prod, cons, 0, 64); !errors.Is(err, ErrGeometry) {
		t.Fatalf("zero slots = %v, want ErrGeometry", err)
	}
	if _, err := New(machine.Meter, reg, prod, cons, 4, -1); !errors.Is(err, ErrGeometry) {
		t.Fatalf("negative slot size = %v, want ErrGeometry", err)
	}
	// Descriptors spill past page 0 when slots don't fit; payload
	// stays page-aligned behind them.
	r, err := New(machine.Meter, reg, prod, cons, 600, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages() != 2+2 {
		t.Fatalf("600-slot ring = %d pages, want 4 (2 control+desc, 2 payload)", r.Pages())
	}
}

func TestRingInPlace(t *testing.T) {
	r, _, _, _ := newTestRing(t, 4, 4096)
	p, c := r.Producer(), r.Consumer()

	off, err := p.ProduceOffset()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	// Produce in place through the owner mapping, then publish only
	// the descriptor: the payload never rides the protocol.
	if err := r.seg.Store(off, payload); err != nil {
		t.Fatal(err)
	}
	if err := p.PushInPlace(len(payload)); err != nil {
		t.Fatal(err)
	}
	coff, n, err := c.Peek()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4096 || coff != off {
		t.Fatalf("peek = (%d, %d), want (%d, 4096)", coff, n, off)
	}
	var hdr [8]byte
	if err := c.Attachment().Load(coff, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 0x5a {
		t.Fatalf("in-place read = %#x, want 0x5a", hdr[0])
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Peek(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("peek after release = %v, want ErrEmpty", err)
	}
}

func TestRingDoorbell(t *testing.T) {
	r, _, _, _ := newTestRing(t, 8, 16)
	p, c := r.Producer(), r.Consumer()

	// Without a doorbell handle, Notify just latches the word.
	if err := p.Push([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", p.Pending())
	}
	if err := p.Notify(); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 0 {
		t.Fatalf("pending after notify = %d, want 0", p.Pending())
	}

	// With one: a local handle that drains the ring.
	drained := 0
	decl := &obj.MethodDecl{Name: "drain"}
	h := obj.NewMethodHandle(decl, func(args ...any) ([]any, error) {
		for {
			if err := c.Release(); err != nil {
				if errors.Is(err, ErrEmpty) {
					return nil, nil
				}
				return nil, err
			}
			drained++
		}
	})
	p.SetDoorbell(h)
	for i := 0; i < 5; i++ {
		if err := p.Push([]byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Notify(); err != nil {
		t.Fatal(err)
	}
	// 1 from the latch-only notify (still unconsumed) + 5.
	if drained != 6 {
		t.Fatalf("doorbell drained %d records, want 6", drained)
	}
	// Notify with nothing pending is a no-op: no second call.
	if err := p.Notify(); err != nil {
		t.Fatal(err)
	}
	if drained != 6 {
		t.Fatalf("no-op notify drained %d records, want 6", drained)
	}
}

func TestRingHangupByProducer(t *testing.T) {
	r, _, _, _ := newTestRing(t, 4, 16)
	p, c := r.Producer(), r.Consumer()
	if err := p.Push([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := p.Hangup(); err != nil {
		t.Fatal(err)
	}
	// Hangup is a revoked-grant tombstone: the mapping is gone, so
	// even published records are lost, and the error is ErrHangup —
	// never ErrNoGrant, which would mean a forged capability.
	if _, err := c.Pop(nil); !errors.Is(err, ErrHangup) {
		t.Fatalf("pop after hangup = %v, want ErrHangup", err)
	}
	if _, err := c.Len(); !errors.Is(err, ErrHangup) {
		t.Fatalf("len after hangup = %v, want ErrHangup", err)
	}
	if err := p.Push([]byte("more")); !errors.Is(err, ErrHangup) {
		t.Fatalf("push after hangup = %v, want ErrHangup", err)
	}
}

func TestRingHangupByClose(t *testing.T) {
	r, _, _, _ := newTestRing(t, 4, 16)
	c := r.Consumer()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pop(nil); !errors.Is(err, ErrHangup) {
		t.Fatalf("pop after close = %v, want ErrHangup", err)
	}
}

// TestRingNotifyAfterClose: a doorbell rung on a closed ring reports
// ErrHangup, like every other access to it, not the segment's own
// "destroyed" error.
func TestRingNotifyAfterClose(t *testing.T) {
	r, _, _, _ := newTestRing(t, 4, 16)
	p := r.Producer()
	if err := p.Push([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Notify(); !errors.Is(err, ErrHangup) {
		t.Fatalf("notify after close = %v, want ErrHangup", err)
	}
}

func TestRingHangupByCondemn(t *testing.T) {
	machine := hw.New(hw.Config{PhysFrames: 512, CPUs: 1})
	svc := mem.New(machine)
	reg := shm.NewRegistry(svc)
	prodCtx, consCtx := svc.NewDomain(), svc.NewDomain()

	// Consumer domain dies: the condemn sweep revokes the grant, and
	// the producer finds out at the next push.
	r, err := New(machine.Meter, reg, prodCtx, consCtx, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg.CondemnDomainFrom(mmu.BootCPU, consCtx)
	if err := r.Producer().Push([]byte("z")); !errors.Is(err, ErrHangup) {
		t.Fatalf("push to condemned consumer = %v, want ErrHangup", err)
	}
	reg.AbsolveDomain(consCtx)

	// Producer domain dies: the sweep destroys the segment it owns,
	// and the consumer's attachment fails.
	consCtx2 := svc.NewDomain()
	r2, err := New(machine.Meter, reg, prodCtx, consCtx2, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	reg.CondemnDomainFrom(mmu.BootCPU, prodCtx)
	if _, err := r2.Consumer().Pop(nil); !errors.Is(err, ErrHangup) {
		t.Fatalf("pop from condemned producer = %v, want ErrHangup", err)
	}
}

// TestRingConcurrentStream runs producer and consumer on separate
// goroutines: every record arrives intact and in order. Run under
// -race this is the protocol's happens-before proof.
func TestRingConcurrentStream(t *testing.T) {
	r, _, _, _ := newTestRing(t, 8, 16)
	const total = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := r.Producer()
		var rec [8]byte
		for i := 0; i < total; {
			binary64(rec[:], uint64(i))
			switch err := p.Push(rec[:]); {
			case err == nil:
				i++
			case errors.Is(err, ErrFull):
				continue
			default:
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()
	var got []uint64
	go func() {
		defer wg.Done()
		c := r.Consumer()
		var buf [8]byte
		for len(got) < total {
			switch n, err := c.Pop(buf[:]); {
			case err == nil:
				if n != 8 {
					t.Errorf("pop: n = %d, want 8", n)
					return
				}
				got = append(got, unbinary64(buf[:]))
			case errors.Is(err, ErrEmpty):
				continue
			default:
				t.Errorf("pop: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if len(got) != total {
		t.Fatalf("consumed %d records, want %d", len(got), total)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("record %d = %d: reordered or corrupt", i, v)
		}
	}
}

// TestRingConcurrentHangup races a mid-stream revoke against the
// consumer: the consumer must observe either valid records or
// ErrHangup — never ErrNoGrant, and never a torn/recycled read. The
// per-grant access lock guarantees an in-flight copy completes before
// the revoke unmaps frames.
func TestRingConcurrentHangup(t *testing.T) {
	for round := 0; round < 20; round++ {
		r, _, _, _ := newTestRing(t, 8, 16)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			p := r.Producer()
			var rec [8]byte
			for i := 0; ; {
				binary64(rec[:], uint64(i))
				err := p.Push(rec[:])
				if errors.Is(err, ErrHangup) {
					return
				}
				if errors.Is(err, ErrFull) {
					// Retry the same record: skipping it would break
					// the consumer's sequence check.
					continue
				}
				if i == 50 {
					_ = p.Hangup()
					return
				}
				i++
			}
		}()
		go func() {
			defer wg.Done()
			c := r.Consumer()
			var buf [8]byte
			var last uint64
			seen := false
			for {
				n, err := c.Pop(buf[:])
				if err != nil {
					if errors.Is(err, ErrHangup) {
						return
					}
					if errors.Is(err, ErrEmpty) {
						continue
					}
					t.Errorf("pop: unexpected error %v (must be hangup, not %v)", err, shm.ErrNoGrant)
					return
				}
				if n != 8 {
					t.Errorf("pop: torn record, n = %d", n)
					return
				}
				v := unbinary64(buf[:])
				if seen && v != last+1 {
					t.Errorf("pop: recycled or reordered record: %d after %d", v, last)
					return
				}
				last, seen = v, true
			}
		}()
		wg.Wait()
	}
}

func binary64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func unbinary64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// TestRingConsumerRejectsCorruptWords: the producer owns the segment,
// so a hostile one can write any control word through its own mapping.
// A record length above the slot size (which would make Pop read the
// next slots' payload, or come back negative) and a tail that is not
// within one ring of the head (which would make Len unbounded) are
// ErrCorrupt — not a hangup — and leave the ring as it was.
func TestRingConsumerRejectsCorruptWords(t *testing.T) {
	const slots, slotBytes = 4, 16
	r, _, _, _ := newTestRing(t, slots, slotBytes)
	p, c := r.Producer(), r.Consumer()
	seg := r.Segment()
	write := func(off int, v uint64) {
		t.Helper()
		var w [8]byte
		binary64(w[:], v)
		if err := seg.Store(off, w[:]); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrHangup) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
		}
	}

	if err := p.Push([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, slots*slotBytes*2)
	for _, desc := range []uint64{slotBytes + 1, 1 << 63, ^uint64(0)} {
		write(r.descOff(0), desc)
		_, _, err := c.Peek()
		corrupt(fmt.Sprintf("peek of length %#x", desc), err)
		_, err = c.Pop(big)
		corrupt(fmt.Sprintf("pop of length %#x", desc), err)
	}
	// Nothing was consumed: once the word is sane again the record pops.
	write(r.descOff(0), 5)
	if n, err := c.Pop(big); err != nil || string(big[:n]) != "hello" {
		t.Fatalf("pop after repair = %q, %v", big[:n], err)
	}

	// The head is now 1. A tail more than slots ahead, or behind it.
	for _, tail := range []uint64{1 + slots + 1, 1 << 62, 0} {
		write(offTail, tail)
		_, err := c.Len()
		corrupt(fmt.Sprintf("len with tail %d", tail), err)
		_, err = c.Pop(big)
		corrupt(fmt.Sprintf("pop with tail %d", tail), err)
	}
	write(offTail, 1+slots)
	if n, err := c.Len(); err != nil || n != slots {
		t.Fatalf("len with a full ring's tail = %d, %v, want %d", n, err, slots)
	}
}

// TestRingProducerRejectsCorruptHead: the consumer writes the head word
// through its own mapping, so a hostile one can write anything there.
// A head ahead of the tail, or more than a ring behind it, would make
// tail-head wrap: the producer would never report ErrFull and would
// overwrite records the consumer has not drained. The producer reports
// ErrCorrupt instead and keeps its view of the ring.
func TestRingProducerRejectsCorruptHead(t *testing.T) {
	const slots = 4
	r, _, _, _ := newTestRing(t, slots, 16)
	p, c := r.Producer(), r.Consumer()
	att := c.Attachment()
	writeHead := func(v uint64) {
		t.Helper()
		var w [8]byte
		binary64(w[:], v)
		if err := att.Store(offHead, w[:]); err != nil {
			t.Fatal(err)
		}
	}
	push := func(i int) error { return p.Push([]byte(fmt.Sprintf("rec-%d", i))) }

	// Fill, drain and refill, so the tail (8) is more than a ring ahead
	// of zero and the producer's cached head (4) says the ring is full.
	buf := make([]byte, 16)
	for i := 0; i < 2*slots; i++ {
		if i == slots {
			for j := 0; j < slots; j++ {
				if _, err := c.Pop(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := push(i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for _, head := range []uint64{2*slots + 1, 1 << 62, ^uint64(0), slots - 1, 0} {
		writeHead(head)
		if err := push(99); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("push with head %d: err = %v, want ErrCorrupt", head, err)
		}
	}
	// With the true head back the ring is full, and every undrained
	// record is intact.
	writeHead(slots)
	if err := push(99); !errors.Is(err, ErrFull) {
		t.Fatalf("push after repair: err = %v, want ErrFull", err)
	}
	for i := slots; i < 2*slots; i++ {
		n, err := c.Pop(buf)
		if err != nil || string(buf[:n]) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("pop %d = %q, %v", i, buf[:n], err)
		}
	}
}
