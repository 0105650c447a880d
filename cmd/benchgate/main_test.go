package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestGateCyclesExact: a run whose cycles/op drifts from the baseline by
// one cycle fails in either direction, naming the row, the baseline
// value and the run's value; an identical run passes.
func TestGateCyclesExact(t *testing.T) {
	const row = "BenchmarkP10_TraceOverhead/path=cross/state=off"
	report := func(cycles float64) *Report {
		return &Report{BenchTime: "2000x", Benchmarks: map[string]*Result{row: {CyclesPerOp: cycles}}}
	}
	base := report(697)
	if failures := gate(base, report(697)); len(failures) != 0 {
		t.Fatalf("identical run failed: %v", failures)
	}
	for _, cycles := range []float64{698, 696} {
		failures := gate(base, report(cycles))
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
