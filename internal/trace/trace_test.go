package trace

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

var decl = obj.MustInterfaceDecl("svc.v1",
	obj.MethodDecl{Name: "work", NumIn: 1, NumOut: 0},
	obj.MethodDecl{Name: "fail", NumIn: 0, NumOut: 0},
)

func newTarget(meter *clock.Meter) *obj.Object {
	o := obj.New("svc", meter)
	bi, err := o.AddInterface(decl, nil)
	if err != nil {
		panic(err)
	}
	bi.MustBind("work", func(args ...any) ([]any, error) {
		// Burn a caller-specified number of cycles.
		meter.Clock.Advance(args[0].(uint64))
		return nil, nil
	}).MustBind("fail", func(...any) ([]any, error) {
		return nil, errors.New("deliberate")
	})
	return o
}

func TestTracerCountsAndTimes(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	target := newTarget(meter)
	tr, err := NewTracer(target, meter)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := tr.Agent().Iface("svc.v1")
	if !ok {
		t.Fatal("traced interface missing")
	}
	for i := 0; i < 3; i++ {
		if _, err := obj.Invoke(iv, "work", uint64(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.Invoke(iv, "fail"); err == nil {
		t.Fatal("fail did not fail")
	}
	st, ok := tr.Stats("svc.v1.work")
	if !ok {
		t.Fatal("no stats for work")
	}
	if st.Calls != 3 || st.Errors != 0 {
		t.Fatalf("work stats = %+v", st)
	}
	if st.Cycles < 300 {
		t.Fatalf("work cycles = %d, want >= 300", st.Cycles)
	}
	st, _ = tr.Stats("svc.v1.fail")
	if st.Calls != 1 || st.Errors != 1 {
		t.Fatalf("fail stats = %+v", st)
	}
	if _, ok := tr.Stats("svc.v1.missing"); ok {
		t.Fatal("phantom stats")
	}
}

func TestTracerTransparency(t *testing.T) {
	// The traced object behaves identically to the original.
	meter := clock.NewMeter(clock.DefaultCosts())
	target := newTarget(meter)
	tr, err := NewTracer(target, meter)
	if err != nil {
		t.Fatal(err)
	}
	agent := tr.Agent()
	if agent.Class() != "svc-tracer" {
		t.Fatalf("class = %q", agent.Class())
	}
	names := agent.InterfaceNames()
	if len(names) != 1 || names[0] != "svc.v1" {
		t.Fatalf("interfaces = %v", names)
	}
	iv, _ := agent.Iface("svc.v1")
	if _, err := obj.Invoke(iv, "work", uint64(1), 2); err == nil {
		t.Fatal("arity check lost through tracer")
	}
}

func TestTracerKeysAndReport(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	tr, err := NewTracer(newTarget(meter), meter)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := tr.Agent().Iface("svc.v1")
	obj.Invoke(iv, "work", uint64(10))
	obj.Invoke(iv, "fail")
	keys := tr.Keys()
	if len(keys) != 2 || keys[0] != "svc.v1.fail" || keys[1] != "svc.v1.work" {
		t.Fatalf("keys = %v", keys)
	}
	rep := tr.Report()
	if !strings.Contains(rep, "svc.v1.work") || !strings.Contains(rep, "svc.v1.fail") {
		t.Fatalf("report:\n%s", rep)
	}
	tr.Reset()
	if len(tr.Keys()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1000} {
		h.Add(v)
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
	if got := h.Percentile(100); got < 1000 {
		t.Fatalf("p100 = %d", got)
	}
	if got := h.Percentile(10); got > 2 {
		t.Fatalf("p10 = %d", got)
	}
	if h.String() == "" {
		t.Fatal("empty string render")
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Add(uint64(v))
		}
		last := uint64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			cur := h.Percentile(p)
			if cur < last {
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
	if got := bucketOf(1 << 63); got != HistBuckets-1 {
		t.Errorf("bucketOf(2^63) = %d", got)
	}
}
