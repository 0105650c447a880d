package main

import (
	"encoding/binary"
	"errors"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
	"paramecium/internal/proxy"
	"paramecium/internal/ring"
	"paramecium/internal/shm"
)

// The P7 bytes=4096/burst=64/path=place shape over a ring of two
// bursts.
const (
	streamRecord = 4096
	streamBurst  = 64
	streamSlots  = 2 * streamBurst
	// stampCount seeded stamps are cycled through, record by record.
	stampCount = 4096
)

var drainDecl = obj.MustInterfaceDecl("bench.ringdrain.v1",
	obj.MethodDecl{Name: "drain", NumIn: 0, NumOut: 0})

// streamLoad is the `stream` workload: a producer domain publishes
// 4 KiB records in place into a ring, stamping each through its own
// mapping, and rings the doorbell once per 64-record burst. The
// consumer's doorbell method peeks each record, checks its stamp
// through the consumer mapping and releases it. The proxy runs once
// per burst; ring, shm and the MMU's TLB-hit path carry the load.
type streamLoad struct {
	stamps [stampCount]uint64

	r    *ring.Ring
	prod *ring.Producer
	cons *ring.Consumer
	seg  *shm.Segment
	att  *shm.Attachment
	px   *proxy.Proxy

	sent, seen uint64 // records produced and consumed
	bad        int    // records the consumer found wrong in this burst
	w          [8]byte
	rw         [8]byte

	records, doorbells uint64

	tr   *tracer
	mark int64 // Notify's start, until the drain body begins
}

func newStreamLoad(rnd *clock.Rand) workload {
	l := &streamLoad{}
	for i := range l.stamps {
		l.stamps[i] = rnd.Uint64()
	}
	return l
}

func (l *streamLoad) setup(w *world) error {
	prodDom := w.k.NewDomain("producer")
	consDom := w.k.NewDomain("consumer")
	r, err := prodDom.NewRing(consDom, streamSlots, streamRecord)
	if err != nil {
		return err
	}
	l.r, l.prod, l.cons = r, r.Producer(), r.Consumer()
	l.seg, l.att = r.Segment(), l.cons.Attachment()

	server := obj.New("ring-drain", w.k.Meter)
	bi, err := server.AddInterface(drainDecl, nil)
	if err != nil {
		return err
	}
	bi.MustBindInto("drain", func(out []any, _ ...any) ([]any, error) {
		return out, l.drain()
	})
	if err := w.k.Register("/services/ringdrain", server, consDom.Ctx); err != nil {
		return err
	}
	if l.px, err = bindProxy(prodDom, "/services/ringdrain"); err != nil {
		return err
	}
	h, err := resolveVia(l.px, drainDecl.Name, "drain")
	if err != nil {
		return err
	}
	l.prod.SetDoorbell(h)
	return nil
}

// drain is the consumer's doorbell method: it consumes every published
// record in place.
func (l *streamLoad) drain() error {
	t := l.tr
	var t0 int64
	if t.on {
		t0 = now()
		t.leaf(spanProxyEnter, l.mark, t0)
	}
	for {
		off, n, err := l.cons.Peek()
		var t1 int64
		if t.on {
			t1 = now()
			t.leaf(spanRingPeek, t0, t1)
		}
		if errors.Is(err, ring.ErrEmpty) {
			return nil
		}
		if err != nil {
			return err
		}
		err = l.att.Load(off, l.rw[:])
		var t2 int64
		if t.on {
			t2 = now()
			t.leaf(spanShmLoad, t1, t2)
		}
		if err != nil {
			return err
		}
		if n != streamRecord || binary.LittleEndian.Uint64(l.rw[:]) != l.stamps[l.seen%stampCount] {
			l.bad++
		}
		l.seen++
		err = l.cons.Release()
		if t.on {
			t0 = now()
			t.leaf(spanRingRelease, t2, t0)
		}
		if err != nil {
			return err
		}
	}
}

func (l *streamLoad) unit(t *tracer) int {
	l.tr = t
	l.bad = 0
	seen := l.seen
	var t0 int64
	if t.on {
		t0 = now()
		t.open(spanRequest, t0)
	}
	for j := 0; j < streamBurst; j++ {
		off, err := l.prod.ProduceOffset()
		if err != nil {
			return l.abort(t)
		}
		binary.LittleEndian.PutUint64(l.w[:], l.stamps[l.sent%stampCount])
		err = l.seg.Store(off, l.w[:])
		var t1 int64
		if t.on {
			t1 = now()
			t.leaf(spanShmStore, t0, t1)
		}
		if err != nil {
			return l.abort(t)
		}
		err = l.prod.PushInPlace(streamRecord)
		if t.on {
			t0 = now()
			t.leaf(spanRingPush, t1, t0)
		}
		if err != nil {
			return l.abort(t)
		}
		l.sent++
	}
	if t.on {
		t.open(spanRingNotify, t0)
		l.mark = t0
	}
	err := l.prod.Notify()
	if t.on {
		t1 := now()
		t.close(t1)
		t.close(t1)
	}
	l.records += streamBurst
	l.doorbells++
	if err != nil || l.seen-seen != streamBurst {
		return streamBurst
	}
	return l.bad
}

// abort closes the request span of a burst that failed before Notify.
func (l *streamLoad) abort(t *tracer) int {
	if t.on {
		t.close(now())
	}
	return streamBurst
}

func (l *streamLoad) counts(c *layerCounts) {
	addProxyCounts(c, l.px)
	c.records += l.records
	c.doorbells += l.doorbells
}
