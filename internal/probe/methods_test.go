package probe

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// TestTracerUncalledStayOut: every declared method has a cell from the
// start, but only called ones show in Stats, Snapshot and the render.
func TestTracerUncalledStayOut(t *testing.T) {
	tr := NewTracer("/svc", []string{"svc.v1.work", "svc.v1.fail", "svc.v1.idle"})
	tr.Record(0, 100, false)
	tr.Record(0, 50, false)
	tr.Record(1, 7, true)

	st, ok := tr.Stats("svc.v1.work")
	if !ok || st.Hist.Count != 2 || st.Hist.Sum != 150 || st.Errors != 0 {
		t.Fatalf("work stats = %+v, %v", st, ok)
	}
	if st, ok := tr.Stats("svc.v1.fail"); !ok || st.Hist.Count != 1 || st.Errors != 1 {
		t.Fatalf("fail stats = %+v, %v", st, ok)
	}
	for _, key := range []string{"svc.v1.idle", "svc.v1.missing"} {
		if _, ok := tr.Stats(key); ok {
			t.Fatalf("Stats(%q) reported a method never called", key)
		}
	}
	snap := tr.Snapshot()
	if snap.Path != "/svc" || len(snap.Methods) != 2 ||
		snap.Methods[0].Key != "svc.v1.fail" || snap.Methods[1].Key != "svc.v1.work" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestWriteMethods: every called method of every traced path is
// rendered, uncalled ones are not.
func TestWriteMethods(t *testing.T) {
	tr := NewTracer("/svc", []string{"svc.v1.work", "svc.v1.fail", "svc.v1.idle"})
	tr.Record(0, 10, false)
	tr.Record(1, 3, true)
	var b strings.Builder
	if err := WriteMethods(&b, []TracedMethods{tr.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== traced /svc ==", "svc.v1.work", "svc.v1.fail"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "svc.v1.idle") {
		t.Fatalf("render lists an uncalled method:\n%s", out)
	}
}

type failingWriter struct{}

var errWrite = errors.New("write refused")

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestWritersReportErrors: every renderer returns its writer's error.
func TestWritersReportErrors(t *testing.T) {
	events := [][]Event{{{Cycles: 1, Kind: KindTrap}}}
	rows := []RowSnapshot{{Domain: 1, Total: 5, Cycles: []uint64{5}, Counts: []uint64{1}}}
	name := func(int) string { return "op" }
	writers := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"ledger", func(w io.Writer) error { return WriteLedgerTable(w, rows, name, name, 3) }},
		{"timeline", func(w io.Writer) error { return WriteTimeline(w, events) }},
		{"chrome", func(w io.Writer) error { return WriteChromeTrace(w, events) }},
		{"methods", func(w io.Writer) error {
			return WriteMethods(w, []TracedMethods{{Path: "/svc", Methods: []MethodSnapshot{{Key: "svc.v1.f"}}}})
		}},
	}
	for _, wr := range writers {
		if err := wr.write(failingWriter{}); !errors.Is(err, errWrite) {
			t.Errorf("%s: err = %v, want the writer's error", wr.name, err)
		}
		var b bytes.Buffer
		if err := wr.write(&b); err != nil || b.Len() == 0 {
			t.Errorf("%s: err = %v, %d bytes on a working writer", wr.name, err, b.Len())
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1000} {
		h.add(v)
	}
	if h.Count != 7 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Max != 1000 {
		t.Fatalf("max = %d", h.Max)
	}
	if h.Mean() < 150 || h.Mean() > 170 {
		t.Fatalf("mean = %f", h.Mean())
	}
	if got := h.Percentile(100); got != 1000 {
		t.Fatalf("p100 = %d, want Max", got)
	}
	if got := h.Percentile(10); got > 2 {
		t.Fatalf("p10 = %d", got)
	}
	if h.String() == "" {
		t.Fatal("empty string render")
	}
}

// TestHistogramPercentileNearestRank: the percentile is the bound of
// the bucket holding observation ceil(count·p/100), clamped to Max.
func TestHistogramPercentileNearestRank(t *testing.T) {
	cases := []struct {
		vals []uint64
		p    float64
		want uint64
	}{
		{[]uint64{1, 1000}, 99, 1000},
		{[]uint64{1, 1000}, 100, 1000},
		{[]uint64{1, 1000}, 50, 2},
		{[]uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 5000}, 95, 5000},
		{[]uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 5000}, 90, 2},
		{[]uint64{56, 56, 56}, 50, 56},
		{[]uint64{1 << 40}, 50, 1 << 40},
	}
	for _, c := range cases {
		var h Histogram
		for _, v := range c.vals {
			h.add(v)
		}
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("p%v of %v = %d, want %d", c.p, c.vals, got, c.want)
		}
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.add(uint64(v))
		}
		last := uint64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			cur := h.Percentile(p)
			if cur < last || cur > h.Max {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	// Huge values saturate in the last bucket.
	if got := bucketOf(1 << 63); got != histBuckets-1 {
		t.Errorf("bucketOf(2^63) = %d", got)
	}
}
