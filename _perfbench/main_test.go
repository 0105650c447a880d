package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"paramecium/internal/clock"
)

// TestWorkloadsSmoke runs every workload briefly. It pins no cycle
// values — the cost model may be re-baselined — only that outputs
// check out, the per-operation rows add up to cycles_per_op, and
// cycles_per_op does not depend on the seed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			run := func(seed uint64, trace bool) result {
				t.Helper()
				res, _, err := measure(config{spec: sp, seed: seed, seconds: 0.2, trace: trace}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("seed %d trace %v: correct=%v failed=%d of %d", seed, trace, res.Correct, res.Failed, res.Attempted)
				}
				return res
			}
			a, b := run(1, false), run(2, false)
			cycles := a.Metrics["cycles_per_op"].Value
			if got := b.Metrics["cycles_per_op"].Value; got != cycles {
				t.Errorf("cycles_per_op %v under seed 1, %v under seed 2", cycles, got)
			}
			layers := run(1, true)
			var sum float64
			for op := clock.Op(0); int(op) < clock.NumOps; op++ {
				sum += layers.Metrics[opRow(op)].Value
			}
			if math.Abs(sum-cycles) > 1e-9*cycles {
				t.Errorf("per-operation rows sum to %v, cycles_per_op is %v", sum, cycles)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names the code
// reports in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	sp := specs[0]
	for _, c := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
	}{{false, doc.EndToEnd}, {true, doc.PerLayer}} {
		res, _, err := measure(config{spec: sp, seed: 1, seconds: 0.05, trace: c.trace}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(c.declared) {
			t.Errorf("trace %v: %d metrics reported, %d declared", c.trace, len(res.Metrics), len(c.declared))
		}
		for _, d := range c.declared {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %v: declared %s in %s, reported %+v (present %v)", c.trace, d.Name, d.Unit, m, ok)
			}
		}
	}
}

func TestEveryOpHasAModule(t *testing.T) {
	for op := clock.Op(0); int(op) < clock.NumOps; op++ {
		if opModule[op] == "" {
			t.Errorf("%s has no module", op)
		}
	}
}

func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 123456789} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("%d landed in bucket [%v, %v)", v, lo, hi)
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.record(v)
	}
	if p := h.quantile(0.5); math.Abs(p-500) > 500.0/64 {
		t.Errorf("median of 1..1000 estimated %v", p)
	}
}
