package probe

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Tracer is the stats table of one method tracer: an interposing agent
// on a name-space path that counts and times every method of every
// interface the target exports. The agent itself is built by
// core.Kernel.Trace; this table only records what it measures. Its
// cells are fixed at construction, one per declared method, so a
// record is an index into them under the table's lock.
type Tracer struct {
	path string
	keys []string // "iface.method", one per cell

	mu    sync.Mutex
	cells []MethodStats
}

// NewTracer builds the table for the tracer on path, one cell per key
// ("iface.method"); Record addresses a cell by its index in keys.
func NewTracer(path string, keys []string) *Tracer {
	return &Tracer{path: path, keys: keys, cells: make([]MethodStats, len(keys))}
}

// Record counts one call of method i that spent cycles inside the
// target, failed or not.
func (t *Tracer) Record(i int, cycles uint64, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.cells[i]
	c.Hist.add(cycles)
	if failed {
		c.Errors++
	}
}

// Stats returns one method's stats ("iface.method"); false when the
// method was never called or is not declared.
func (t *Tracer) Stats(key string) (MethodStats, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range t.keys {
		if k == key {
			return t.cells[i], t.cells[i].Hist.Count > 0
		}
	}
	return MethodStats{}, false
}

// Snapshot copies the stats of every method called so far, sorted by
// key, under the tracer's path.
func (t *Tracer) Snapshot() TracedMethods {
	tm := TracedMethods{Path: t.path}
	t.mu.Lock()
	for i, k := range t.keys {
		if t.cells[i].Hist.Count > 0 {
			tm.Methods = append(tm.Methods, MethodSnapshot{Key: k, Stats: t.cells[i]})
		}
	}
	t.mu.Unlock()
	sort.Slice(tm.Methods, func(i, j int) bool { return tm.Methods[i].Key < tm.Methods[j].Key })
	return tm
}

// TracedMethods is one tracer's snapshot: its path and the stats of
// each method called through it.
type TracedMethods struct {
	Path    string
	Methods []MethodSnapshot
}

// MethodSnapshot is one method's stats as copied by Snapshot.
type MethodSnapshot struct {
	Key   string // "iface.method"
	Stats MethodStats
}

// MethodStats aggregates one method's observations. Hist.Count is the
// number of calls and Hist.Sum the virtual cycles spent inside the
// target.
type MethodStats struct {
	Errors uint64
	Hist   Histogram
}

// WriteMethods renders tracer snapshots as one table per traced path:
// each called method's calls, errors, cycles inside the target, mean,
// p50, p99 and maximum.
func WriteMethods(w io.Writer, traced []TracedMethods) error {
	var b bytes.Buffer
	for _, tm := range traced {
		fmt.Fprintf(&b, "== traced %s ==\n", tm.Path)
		fmt.Fprintf(&b, "%-40s %8s %7s %12s %8s %8s %8s %8s\n",
			"method", "calls", "errors", "cycles", "avg", "p50", "p99", "max")
		for _, m := range tm.Methods {
			h := &m.Stats.Hist
			fmt.Fprintf(&b, "%-40s %8d %7d %12d %8.1f %8d %8d %8d\n",
				m.Key, h.Count, m.Stats.Errors, h.Sum, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// histBuckets is the number of power-of-two histogram buckets.
const histBuckets = 32

// Histogram is a power-of-two bucketed latency histogram: bucket i
// counts observations in [2^i, 2^(i+1)) cycles, with bucket 0 also
// holding zeros and the last bucket everything above.
type Histogram struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// add records one observation.
func (h *Histogram) add(v uint64) {
	h.Count++
	h.Sum += v
	h.Max = max(h.Max, v)
	h.Buckets[bucketOf(v)]++
}

func bucketOf(v uint64) int {
	return min(max(bits.Len64(v)-1, 0), histBuckets-1)
}

// Mean returns the average observation.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile returns an upper bound for the p-th percentile
// (0 < p <= 100): the top of the bucket holding the nearest-rank
// observation, ceil(Count·p/100), never above Max.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.Count == 0 || p <= 0 {
		return 0
	}
	rank := uint64(math.Ceil(float64(h.Count) * min(p, 100) / 100))
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= rank && i < histBuckets-1 {
			return min(uint64(1)<<(i+1), h.Max)
		}
	}
	return h.Max
}

// String renders the non-empty buckets.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%.1f max=%d", h.Count, h.Mean(), h.Max)
	for i, c := range h.Buckets {
		if c != 0 {
			fmt.Fprintf(&b, " [2^%d:%d]", i, c)
		}
	}
	return b.String()
}
