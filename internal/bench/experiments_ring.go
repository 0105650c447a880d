package bench

import (
	"bytes"
	"errors"
	"fmt"

	"paramecium/internal/core"
	"paramecium/internal/obj"
	"paramecium/internal/ring"
)

// The P7 experiment measures the streaming data plane: a
// single-producer/single-consumer ring over a shared segment, one
// doorbell notify per burst. Where P6 pays a vectored notify per
// transfer (≈59 cycles at any size), the ring pays a few cycles of
// descriptor bookkeeping per record plus ONE doorbell crossing per
// burst — so per-record cost falls toward the push+pop floor as the
// burst grows, the same shape batching gave call amortization in P5,
// now applied to bulk-data notification.
//
// Per-record work matches the P6 share harness: the producer
// publishes an 8-byte record header (the slot descriptor), the
// consumer validates it in place through its own mapping. Payload
// bytes live in the mapped slots and are charged only to the side
// that actually touches them; path=inline instead copies the full
// payload through Push/Pop on every record, as a contrast row.

// ringStream is the P7 harness: producer and consumer domains joined
// by a ring, the consumer draining inside its doorbell method — one
// vectored crossing wakes it for a whole burst.
type ringStream struct {
	w     *World
	r     *ring.Ring
	prod  *ring.Producer
	burst int
	size  int

	inline  bool
	payload []byte // push source (inline rows)
	popbuf  []byte // pop destination (inline rows)
}

// ringRows is the P7 sweep: burst size at 4 KiB records and record
// size at burst 64, place path, plus the inline contrast row.
var ringRows = []struct {
	size, burst int
	path        string
}{
	{256, 64, "place"},
	{4096, 16, "place"},
	{4096, 64, "place"},
	{4096, 256, "place"},
	{65536, 64, "place"},
	{4096, 64, "inline"},
}

// newRingStream boots a world with producer and consumer domains and
// one ring stream between them.
func newRingStream(size, burst int, inline bool) *ringStream {
	w := NewWorld()
	prodDom := w.K.NewDomain("producer")
	consDom := w.K.NewDomain("consumer")
	return newRing(w, prodDom, consDom, "/services/ringdrain", size, burst, inline)
}

// newRing joins prodDom to consDom by a ring of 2*burst slots of the
// given record size, and installs a drain service, registered at path
// in the consumer domain, as the ring's doorbell: each Notify crosses
// once and the consumer drains every published record. With inline
// set, records are pushed and popped by full copy; otherwise they are
// published in place and only the descriptor is validated, like P6's
// share path.
func newRing(w *World, prodDom, consDom *core.Domain, path string, size, burst int, inline bool) *ringStream {
	r, err := prodDom.NewRing(consDom, 2*burst, size)
	if err != nil {
		panic(fmt.Sprintf("bench: ring: %v", err))
	}
	h := &ringStream{
		w: w, r: r, prod: r.Producer(), burst: burst, size: size,
		inline: inline,
	}
	cons := r.Consumer()
	if inline {
		h.payload = bytes.Repeat([]byte{0x5A}, size)
		h.popbuf = make([]byte, size)
	}

	decl := obj.MustInterfaceDecl("bench.ringdrain.v1",
		obj.MethodDecl{Name: "drain", NumIn: 0, NumOut: 0})
	server := obj.New("ring-drain", w.K.Meter)
	bi, err := server.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("drain", func(out []any, args ...any) ([]any, error) {
		for {
			if h.inline {
				if _, err := cons.Pop(h.popbuf); err != nil {
					if errors.Is(err, ring.ErrEmpty) {
						return out, nil
					}
					return nil, err
				}
				continue
			}
			// Validate the record's 8-byte header (its descriptor) in
			// place — the same per-transfer work as the P6 share path —
			// and release the slot. The payload never moves.
			_, n, err := cons.Peek()
			if err != nil {
				if errors.Is(err, ring.ErrEmpty) {
					return out, nil
				}
				return nil, err
			}
			if n != h.size {
				return nil, fmt.Errorf("bench: ring record %d bytes, want %d", n, h.size)
			}
			if err := cons.Release(); err != nil {
				return nil, err
			}
		}
	})
	h.prod.SetDoorbell(w.export(path, server, consDom, prodDom, "bench.ringdrain.v1", "drain"))
	return h
}

// run streams n records with the one-time staging and the hangup
// inside the caller's measurement window. The hangup mirrors P6's
// revoke: the tombstone left behind is what a consumer would read as
// end-of-stream.
func (h *ringStream) run(n int) error {
	if err := h.stage(); err != nil {
		return err
	}
	if err := h.stream(n); err != nil {
		return err
	}
	return h.prod.Hangup()
}

// stage writes the payload pattern into the mapped slots once on the
// place path, mirroring the P6 share harness: production writes the
// slots at the producer's own (charged) pace, and per record only the
// descriptor rides the protocol.
func (h *ringStream) stage() error {
	if h.inline {
		return nil
	}
	off, err := h.prod.ProduceOffset()
	if err != nil {
		return err
	}
	return h.r.Segment().Store(off, bytes.Repeat([]byte{0x5A}, h.size))
}

// stream pushes n records through the ring in bursts: push the burst,
// ring the doorbell once, and the consumer's drain method consumes
// every record inside that one crossing.
func (h *ringStream) stream(n int) error {
	for i := 0; i < n; {
		k := min(h.burst, n-i)
		for j := 0; j < k; j++ {
			var err error
			if h.inline {
				err = h.prod.Push(h.payload)
			} else {
				err = h.prod.PushInPlace(h.size)
			}
			if err != nil {
				return fmt.Errorf("bench: ring push: %w", err)
			}
		}
		if err := h.prod.Notify(); err != nil {
			return fmt.Errorf("bench: ring notify: %w", err)
		}
		i += k
	}
	return nil
}

// p7RingStream sweeps burst size at 4 KiB records and record size at
// burst 64, comparing sustained ring streaming against the
// per-transfer share+notify of P6. The ring's advantage is the
// notification amortization: per record it pays push+pop bookkeeping
// (flat in payload size) plus doorbell/burst, so it beats the
// per-transfer pattern ≥2x from burst 16 up and the gap widens with
// burst — while the inline contrast row shows the copy cost the
// in-place path avoids.
func p7RingStream() Table {
	t := Table{
		ID:     "P7",
		Title:  "Streaming ring vs per-transfer share+notify (virtual cycles per record)",
		Claim:  `completing the shared-memory + event-driven model: records stream through a mapped ring with one doorbell per burst, so sustained throughput pays the crossing once per burst instead of once per transfer`,
		Header: []string{"bytes", "burst", "path", "ring cycles/rec", "P6 share cycles/op", "advantage"},
	}
	const ops = 2048
	shareCost := map[int]float64{}
	for _, r := range ringRows {
		rc := rowCycles(fmt.Sprintf("P7_RingStream/bytes=%d/burst=%d/path=%s", r.size, r.burst, r.path), ops)
		sc, ok := shareCost[r.size]
		if !ok {
			sc = rowCycles(fmt.Sprintf("P6_BulkTransfer/bytes=%d/path=share", r.size), ops)
			shareCost[r.size] = sc
		}
		t.AddRow(r.size, r.burst, r.path,
			fmt.Sprintf("%.1f", rc),
			fmt.Sprintf("%.1f", sc),
			fmt.Sprintf("%.2fx", sc/rc))
	}
	t.Notes = append(t.Notes,
		"deterministic virtual cycles; one doorbell crossing per burst, the consumer drains inside its doorbell method",
		"path=place publishes records in place: per record only the 8-byte descriptor is written and validated, like P6 share's header — payload pages are charged to whoever touches them",
		"path=inline copies the full payload through Push and Pop on every record: the contrast showing what in-place streaming avoids",
		"hangup (grant revoke) is inside the measured window, amortized over the run")
	return t
}
