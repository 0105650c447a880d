package main

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestGateCyclesExact: a run whose cycles/op drifts from the baseline by
// one cycle fails in either direction, naming the row, the baseline
// value and the run's value; an identical run passes.
func TestGateCyclesExact(t *testing.T) {
	const row = "BenchmarkP10_TraceOverhead/path=cross/state=off"
	report := func(cycles float64) *Report {
		return &Report{BenchTime: "2000x", Benchmarks: map[string]*Result{row: {CyclesPerOp: cycles, iterations: 2000}}}
	}
	base := report(697)
	if failures := gate(base, report(697), io.Discard); len(failures) != 0 {
		t.Fatalf("identical run failed: %v", failures)
	}
	for _, cycles := range []float64{698, 696} {
		failures := gate(base, report(cycles), io.Discard)
		if len(failures) != 1 {
			t.Fatalf("%v cycles/op against 697: failures %v, want one", cycles, failures)
		}
		for _, want := range []string{row, "697", fmt.Sprint(cycles)} {
			if !strings.Contains(failures[0], want) {
				t.Errorf("failure %q does not name %q", failures[0], want)
			}
		}
	}
}

// declBaseline declares every kind of gate: a cycles-exact row that is
// also allocs-gated, a cycles-exact row, two host-time rows, a cycles
// ratio and a wall-clock ratio that needs two processors.
func declBaseline() *Report {
	return &Report{
		BenchTime: "2000x",
		Benchmarks: map[string]*Result{
			"BenchmarkA": {NsPerOp: 10, CyclesPerOp: 100, AllocsGated: true},
			"BenchmarkB": {NsPerOp: 40, CyclesPerOp: 400},
			"BenchmarkP": {NsPerOp: 60},
			"BenchmarkQ": {NsPerOp: 30},
		},
		Ratios: []Ratio{
			{Name: "B/A", Num: "BenchmarkB", Den: "BenchmarkA", Metric: "cycles_per_op", Min: 3},
			{Name: "P/Q", Num: "BenchmarkP", Den: "BenchmarkQ", Metric: "ns_per_op", Min: 1.5, MinProcs: 2},
		},
	}
}

// declRun is a run that passes declBaseline, at GOMAXPROCS=2.
const declRun = `BenchmarkA-2   2000   10 ns/op   100 cycles/op   0 B/op   0 allocs/op
BenchmarkB-2   2000   40 ns/op   400 cycles/op
BenchmarkP-2   2000   60 ns/op
BenchmarkQ-2   2000   30 ns/op
`

func parseRun(t *testing.T, run string) *Report {
	t.Helper()
	r, err := parse(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// declCases each break exactly one declared gate, by the run or by the
// baseline; want is a fragment of the one failure expected.
var declCases = []struct {
	name string
	run  string
	edit func(*Report)
	want string
}{
	{"allocs-gated row at +1 alloc",
		strings.Replace(declRun, "0 allocs/op", "1 allocs/op", 1), nil, "BenchmarkA: 1 allocs/op, baseline 0"},
	{"allocs-gated row without an allocs column",
		strings.Replace(declRun, "   0 B/op   0 allocs/op", "", 1), nil, "BenchmarkA: allocs-gated but this run reported no allocs/op"},
	{"ratio below its min",
		declRun, func(b *Report) { b.Ratios[0].Min = 5 }, "ratio B/A 4.00 < 5.00"},
	{"ratio whose row is missing",
		strings.Replace(declRun, "BenchmarkQ-2   2000   30 ns/op\n", "", 1), nil, "ratio P/Q: BenchmarkQ is not in this run"},
	{"iteration count off the benchtime",
		strings.Replace(declRun, "BenchmarkB-2   2000", "BenchmarkB-2   1000", 1), nil, "BenchmarkB: ran 1000 iterations, baseline benchtime is 2000x"},
}

// TestGateDeclarations: each gate the baseline declares beside its rows
// fails on its own, and a wall-clock ratio is skipped with a note when
// the run had fewer processors than it needs.
func TestGateDeclarations(t *testing.T) {
	var notes strings.Builder
	if failures := gate(declBaseline(), parseRun(t, declRun), &notes); len(failures) != 0 {
		t.Fatalf("passing run failed: %v", failures)
	}
	if !strings.Contains(notes.String(), "ratio P/Q 2.00") {
		t.Errorf("P/Q ratio not reported as checked: %q", notes.String())
	}
	for _, tc := range declCases {
		base := declBaseline()
		if tc.edit != nil {
			tc.edit(base)
		}
		failures := gate(base, parseRun(t, tc.run), io.Discard)
		if len(failures) != 1 || !strings.Contains(failures[0], tc.want) {
			t.Errorf("%s: failures %q, want one containing %q", tc.name, failures, tc.want)
		}
	}

	// Without the GOMAXPROCS suffix the run had one processor: P/Q is
	// skipped, loudly, even with its rows missing.
	notes.Reset()
	uniprocessor := strings.ReplaceAll(declRun, "-2 ", " ")
	uniprocessor = strings.Replace(uniprocessor, "BenchmarkQ   2000   30 ns/op\n", "", 1)
	if failures := gate(declBaseline(), parseRun(t, uniprocessor), &notes); len(failures) != 0 {
		t.Fatalf("uniprocessor run failed: %v", failures)
	}
	if !strings.Contains(notes.String(), "note: ratio P/Q skipped at GOMAXPROCS=1") {
		t.Errorf("skip not noted: %q", notes.String())
	}
}

// TestReportRoundTrip: the -out report of a passing run, copied over
// the baseline, declares the same gates and fails every broken run
// exactly as the original baseline does.
func TestReportRoundTrip(t *testing.T) {
	for _, tc := range declCases {
		base := declBaseline()
		if tc.edit != nil {
			tc.edit(base)
		}
		report := parseRun(t, declRun)
		report.declare(base)
		js, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		var next Report
		if err := json.Unmarshal(js, &next); err != nil {
			t.Fatal(err)
		}
		if next.BenchTime != base.BenchTime || !reflect.DeepEqual(next.Ratios, base.Ratios) {
			t.Fatalf("%s: report declares benchtime %q and ratios %v, baseline %q and %v",
				tc.name, next.BenchTime, next.Ratios, base.BenchTime, base.Ratios)
		}
		for name, b := range base.Benchmarks {
			n := next.Benchmarks[name]
			if n == nil || n.AllocsGated != b.AllocsGated || n.CyclesPerOp != b.CyclesPerOp {
				t.Fatalf("%s: report row %s = %+v, baseline %+v", tc.name, name, n, b)
			}
		}
		for _, run := range []string{declRun, tc.run} {
			want := gate(base, parseRun(t, run), io.Discard)
			if got := gate(&next, parseRun(t, run), io.Discard); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: report as baseline gives %q, original baseline %q", tc.name, got, want)
			}
		}
	}
}
