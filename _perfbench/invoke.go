package main

import (
	"fmt"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
	"paramecium/internal/proxy"
)

// counterDecl is the P8/P10 counter interface: inc() returns one word.
var counterDecl = obj.MustInterfaceDecl("bench.atomic.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})

// valRing is how many distinct result words a counter cycles through.
// inc returns a pointer to vals[count%valRing]: one result word and no
// allocation, like the P8/P10 bodies, yet it tells the caller which
// count the body saw, so a result in the wrong slot or order shows.
const valRing = 256

// counter is one server object: the body the crossing lands in.
type counter struct {
	n    int64
	vals [valRing]int64
}

// addCounter registers a counter object under path in a fresh server
// domain. enter and exit run first and last in every inc body, where
// the benchmark stamps its spans.
func addCounter(w *world, path, class string, c *counter, enter, exit func()) error {
	server := obj.New(class, w.k.Meter)
	bi, err := server.AddInterface(counterDecl, c)
	if err != nil {
		return err
	}
	bi.MustBindInto("inc", func(out []any, _ ...any) ([]any, error) {
		enter()
		c.n++
		out = append(out, &c.vals[c.n%valRing])
		exit()
		return out, nil
	})
	dom := w.k.NewDomain(class + "-server")
	return w.k.Register(path, server, dom.Ctx)
}

// callLoad is the `call` workload: a client domain calls inc() on a
// server domain's counter through a pre-resolved handle, reusing one
// result buffer — the P10 path=cross shape. It crosses the proxy only:
// no ring, shared memory, stack, sandbox or flight recorder.
type callLoad struct {
	h   obj.MethodHandle
	px  *proxy.Proxy
	c   counter
	buf [1]any

	tr              *tracer
	bodyIn, bodyOut int64
}

func newCallLoad(*clock.Rand) workload { return &callLoad{} }

func (l *callLoad) setup(w *world) error {
	client := w.k.NewDomain("client")
	if err := addCounter(w, "/services/atomic", "atomic-counter", &l.c, l.enter, l.exit); err != nil {
		return err
	}
	px, err := bindProxy(client, "/services/atomic")
	if err != nil {
		return err
	}
	l.px = px
	l.h, err = resolveVia(px, counterDecl.Name, "inc")
	return err
}

func (l *callLoad) enter() {
	if l.tr != nil && l.tr.on {
		l.bodyIn = now()
	}
}

func (l *callLoad) exit() {
	if l.tr != nil && l.tr.on {
		l.bodyOut = now()
	}
}

func (l *callLoad) unit(t *tracer) int {
	l.tr = t
	want := &l.c.vals[(l.c.n+1)%valRing]
	var t0 int64
	if t.on {
		t0 = now()
		t.open(spanRequest, t0)
	}
	res, err := l.h.CallInto(l.buf[:0])
	if t.on {
		t1 := now()
		t.leaf(spanProxyEnter, t0, l.bodyIn)
		t.leaf(spanObjBody, l.bodyIn, l.bodyOut)
		t.leaf(spanProxyReturn, l.bodyOut, t1)
		t.close(t1)
	}
	if err != nil || len(res) != 1 || res[0] != any(want) {
		return 1
	}
	return 0
}

func (l *callLoad) counts(c *layerCounts) { addProxyCounts(c, l.px) }

// batchSize and batchTargets give the P8 targets=2/size=16 shape.
const (
	batchSize    = 16
	batchTargets = 2
)

// batchLoad is the `batch` workload: the client runs a Grouped
// obj.Batch of 16 inc() entries interleaved A,B,A,B over two server
// domains — one crossing per target plus partition and scatter, the
// vectored path single calls do not take.
type batchLoad struct {
	hs    [batchTargets]obj.MethodHandle
	pxs   [batchTargets]*proxy.Proxy
	cs    [batchTargets]counter
	batch *obj.Batch
	bufs  [batchSize][1]any

	tr *tracer
	// mark is when the gap before the next body began: Run's start or
	// the previous body's exit. last is the previous body's target.
	mark int64
	last int
}

func newBatchLoad(*clock.Rand) workload { return &batchLoad{} }

func (l *batchLoad) setup(w *world) error {
	client := w.k.NewDomain("client")
	for i := range l.hs {
		path := fmt.Sprintf("/services/atomic%d", i)
		target := i
		if err := addCounter(w, path, fmt.Sprintf("atomic-counter-%d", i), &l.cs[i],
			func() { l.enter(target) }, l.exit); err != nil {
			return err
		}
		px, err := bindProxy(client, path)
		if err != nil {
			return err
		}
		l.pxs[i] = px
		if l.hs[i], err = resolveVia(px, counterDecl.Name, "inc"); err != nil {
			return err
		}
	}
	l.batch = obj.NewBatch(batchSize)
	l.batch.SetMode(obj.Grouped)
	return nil
}

// enter opens a body span; the first body of each target's group also
// records the crossing that led to it.
func (l *batchLoad) enter(target int) {
	if l.tr == nil || !l.tr.on {
		return
	}
	t := now()
	if target != l.last {
		l.tr.leaf(spanProxyEnter, l.mark, t)
		l.last = target
	}
	l.tr.open(spanObjBody, t)
}

func (l *batchLoad) exit() {
	if l.tr == nil || !l.tr.on {
		return
	}
	l.mark = now()
	l.tr.close(l.mark)
}

func (l *batchLoad) unit(t *tracer) int {
	l.tr = t
	var before [batchTargets]int64
	for i := range l.cs {
		before[i] = l.cs[i].n
	}
	var t0 int64
	if t.on {
		t0 = now()
		t.open(spanRequest, t0)
	}
	l.batch.Reset()
	for j := 0; j < batchSize; j++ {
		if err := l.batch.AddInto(l.hs[j%batchTargets], l.bufs[j][:0]); err != nil {
			if t.on {
				t.close(now())
			}
			return batchSize
		}
	}
	if t.on {
		t1 := now()
		t.leaf(spanBatchAdd, t0, t1)
		t.open(spanBatchRun, t1)
		l.mark, l.last = t1, -1
	}
	err := l.batch.Run()
	if t.on {
		t2 := now()
		t.close(t2)
		t.close(t2)
	}
	if err != nil {
		return batchSize
	}
	failed := 0
	for j := 0; j < batchSize; j++ {
		tg := j % batchTargets
		want := &l.cs[tg].vals[(before[tg]+int64(j/batchTargets)+1)%valRing]
		if res, err := l.batch.Results(j); err != nil || len(res) != 1 || res[0] != any(want) {
			failed++
		}
	}
	return failed
}

func (l *batchLoad) counts(c *layerCounts) { addProxyCounts(c, l.pxs[:]...) }
