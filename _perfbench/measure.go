package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// base anchors every host timestamp: now() is monotonic nanoseconds
// since process start, cheap enough to read once per request unit.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// hist is a log-linear latency histogram: 64 linear sub-buckets per
// power of two, so any recorded value lands in a bucket at most 1/64
// wide. Recording never allocates, which keeps the timed loop's own
// allocations out of allocs_per_op.
type hist struct {
	counts [64 * 48]uint64
	n      uint64
}

const subBits = 6

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketBounds is the inverse of bucketOf: the [lo, hi) range of
// values a bucket holds.
func bucketBounds(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	e := i>>subBits - 1
	m := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64((m + 1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bucketOf(uint64(ns))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// quantile interpolates linearly inside the bucket holding rank q·n,
// so the estimate moves smoothly with the distribution instead of
// snapping to bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(len(h.counts) - 1)
	return lo
}

// allocSample reads the cumulative heap allocation counters. Tiny
// allocations are combined into 16-byte blocks by the runtime; adding
// their separate count gives the same object count testing.B reports.
type allocSample struct{ objects, bytes uint64 }

var allocMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readAllocs() allocSample {
	metrics.Read(allocMetrics)
	return allocSample{
		objects: allocMetrics[0].Value.Uint64() + allocMetrics[1].Value.Uint64(),
		bytes:   allocMetrics[2].Value.Uint64(),
	}
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// spanName indexes the fixed set of layer spans the benchmark records.
// Each name is <module>.<what>, the module whose exported functions
// the span times.
type spanName uint8

const (
	spanRequest spanName = iota // root of one request unit
	spanProxyEnter
	spanObjBody
	spanProxyReturn
	spanBatchAdd
	spanBatchRun
	spanShmStore
	spanRingPush
	spanRingNotify
	spanRingPeek
	spanShmLoad
	spanRingRelease
	spanHWInject
	spanThreadsRun
	spanNetPump
	spanNetRecv
	spanRingPop
	spanFilterCertified
	spanFilterSandboxed
	spanFilterUser
	numSpans
)

var spanNames = [numSpans]string{
	spanRequest:         "request",
	spanProxyEnter:      "proxy.enter_ns",
	spanObjBody:         "obj.body_ns",
	spanProxyReturn:     "proxy.return_ns",
	spanBatchAdd:        "obj.batch_add_ns",
	spanBatchRun:        "obj.batch_run_ns",
	spanShmStore:        "shm.store_ns",
	spanRingPush:        "ring.push_ns",
	spanRingNotify:      "ring.notify_ns",
	spanRingPeek:        "ring.peek_ns",
	spanShmLoad:         "shm.load_ns",
	spanRingRelease:     "ring.release_ns",
	spanHWInject:        "hw.inject_ns",
	spanThreadsRun:      "threads.run_ns",
	spanNetPump:         "netstack.pump_ns",
	spanNetRecv:         "netstack.recv_ns",
	spanRingPop:         "ring.pop_ns",
	spanFilterCertified: "sandbox.filter_certified_ns",
	spanFilterSandboxed: "sandbox.filter_sandboxed_ns",
	spanFilterUser:      "proxy.filter_user_ns",
}

// span is one recorded interval. All spans of a request unit share
// req; parent is the id of the enclosing span (-1 for a root).
type span struct {
	id, parent int32
	req        uint32
	name       spanName
	start, end int64
}

type openSpan struct {
	id      int32
	name    spanName
	start   int64
	childNs int64
}

// tracer records spans from the benchmark's own code around its calls
// into each module. Self time (duration minus the time child spans
// cover) is folded into per-name totals as each span closes, so the
// per-layer numbers cover every span of the run; the first
// len(kept) spans are also kept verbatim and written out at the end.
// Only one goroutine drives the load, so the tracer is unsynchronized.
type tracer struct {
	on     bool
	req    uint32
	nextID int32
	stack  []openSpan
	selfNs [numSpans]int64
	count  [numSpans]uint64
	kept   []span
}

func newTracer(keep int) *tracer {
	return &tracer{stack: make([]openSpan, 0, 16), kept: make([]span, 0, keep)}
}

func (t *tracer) parentID() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1].id
}

// open starts a span that encloses later spans.
func (t *tracer) open(name spanName, start int64) {
	if name == spanRequest {
		t.req++
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, name: name, start: start})
}

// close ends the innermost open span.
func (t *tracer) close(end int64) {
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.finish(o.id, o.name, o.start, end, o.childNs)
}

// leaf records a completed span with no children under the innermost
// open span.
func (t *tracer) leaf(name spanName, start, end int64) {
	t.nextID++
	t.finish(t.nextID, name, start, end, 0)
}

func (t *tracer) finish(id int32, name spanName, start, end, childNs int64) {
	dur := end - start
	parent := t.parentID()
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNs += dur
	}
	t.selfNs[name] += dur - childNs
	t.count[name]++
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{id: id, parent: parent, req: t.req, name: name, start: start, end: end})
	}
}

func (t *tracer) reset() {
	t.selfNs = [numSpans]int64{}
	t.count = [numSpans]uint64{}
	t.kept = t.kept[:0]
}

// writeSpans dumps the kept spans as tab-separated rows.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range t.kept {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
