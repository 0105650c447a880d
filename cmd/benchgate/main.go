// Command benchgate is the CI benchmark-regression gate. It parses
// `go test -bench` output, writes a machine-readable JSON report of
// every benchmark's metrics, and — when given a baseline — fails if
// any gated hot-path benchmark regressed beyond the threshold.
//
// Gating compares cycles/op, the simulation's deterministic virtual
// cost: it does not vary with CI hardware, load or GOMAXPROCS, so a
// tight threshold holds without flakes. Host ns/op is recorded in the
// report for humans (and for the parallel P-series, which has no
// virtual-cycle metric) but is not gated by default because wall
// clock on shared runners is noise. Allocation counts ARE
// deterministic, so -allocgate holds named benchmarks' allocs/op at
// the baseline exactly — the zero-allocation invocation fast path
// stays at 0 allocs/op or the gate fails.
//
// Usage:
//
//	go test -run xxx -bench . -benchtime 2000x . | tee bench.out
//	benchgate -in bench.out -out BENCH_invoke.json \
//	          -baseline ci/bench_baseline.json -threshold 0.20
//
// To refresh the committed baseline after an intentional cost change,
// rerun the same benchmark command and copy the -out file over
// ci/bench_baseline.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed metrics.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	CyclesPerOp float64 `json:"cycles_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// iterations is the run's actual iteration count (the second
	// column of the bench line), used only to cross-check a claimed
	// "Nx" -benchtime; it is not part of the JSON schema.
	iterations uint64
	// hasAllocs records that the bench line actually carried an
	// allocs/op column (a true 0 is indistinguishable from a missing
	// metric in AllocsPerOp alone). The allocs gate requires it, so a
	// gated benchmark that silently drops b.ReportAllocs fails instead
	// of passing as zero. Parse-side only, not in the JSON schema.
	hasAllocs bool
}

// Report is the BENCH_invoke.json schema. BenchTime records the
// -benchtime the run used: cycles/op is only comparable between runs
// at the same iteration count, because fixed per-run setup cost
// amortizes over N, so the gate refuses to compare across a mismatch.
type Report struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	BenchTime  string             `json:"benchtime,omitempty"`
	Benchmarks map[string]*Result `json:"benchmarks"`
}

// The benchmark pairs the ratio gates compare.
const (
	pSerial   = "BenchmarkP0_SerializedProxyCall"
	pParallel = "BenchmarkP1_ParallelProxyCall"
	sBase     = "BenchmarkP9_TopologyScaling/cpus=1/work=invoke"
	sScaled   = "BenchmarkP9_TopologyScaling/cpus=16/work=invoke"
	gInOrder  = "BenchmarkP8_MixedTargetBatch/targets=2/size=16/mode=inorder"
	gGrouped  = "BenchmarkP8_MixedTargetBatch/targets=2/size=16/mode=grouped"
)

func main() {
	in := flag.String("in", "-", "benchmark output to parse ('-' for stdin)")
	out := flag.String("out", "", "write the JSON report here (empty: stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (empty: no gate)")
	threshold := flag.Float64("threshold", 0.20, "maximum allowed cycles/op regression, as a fraction")
	benchtime := flag.String("benchtime", "", "the -benchtime the run used (e.g. 2000x), recorded in the report and checked against the baseline")
	minParallel := flag.Float64("minparallel", 0, "minimum serialized-to-parallel ns/op ratio (P0/P1); 0 disables the ratio gate")
	minScaling := flag.Float64("minscaling", 0, "minimum single-CPU-to-scaled ns/op ratio on the topology-scaling invoke pair; 0 disables the scaling gate")
	minGrouped := flag.Float64("mingrouped", 0, "minimum in-order-to-grouped cycles/op ratio on the mixed-target batch pair; 0 disables the grouped-dispatch gate")
	allocGate := flag.String("allocgate", "", "comma-separated benchmarks whose allocs/op must not exceed the baseline (empty: no allocs gate)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	report, err := parse(r)
	if err != nil {
		fatal(err)
	}
	report.BenchTime = *benchtime
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *in))
	}

	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
	} else if err := os.WriteFile(*out, js, 0o644); err != nil {
		fatal(err)
	}

	// The claimed -benchtime is only an assertion; when it is a fixed
	// iteration count ("Nx"), hold it against the counts the run
	// actually reports, so the bench command and the benchgate flag
	// cannot silently drift apart. Checked after the report is written:
	// CI uploads the report precisely when the run fails.
	if n, ok := strings.CutSuffix(*benchtime, "x"); ok {
		if want, err := strconv.ParseUint(n, 10, 64); err == nil {
			for _, name := range sortedNames(report.Benchmarks) {
				if it := report.Benchmarks[name].iterations; it != 0 && it != want {
					fmt.Fprintf(os.Stderr, "FAIL: %s ran %d iterations but -benchtime claims %s; the bench command and the benchgate flag are out of sync\n",
						name, it, *benchtime)
					os.Exit(1)
				}
			}
		}
	}

	// The serialized-to-parallel ratio gate. Absolute ns/op on shared
	// runners is noise, but the RATIO of the same workload run behind
	// one mutex versus concurrently is a property of the code: if the
	// invocation plane reacquires a global serialization point (MMU
	// mutex, single runqueue, per-interface slot), the parallel run
	// degrades to the serialized one and the ratio collapses toward —
	// or below — 1. Gated against the current run alone, no baseline
	// needed.
	if *minParallel > 0 {
		p0, p1 := report.Benchmarks[pSerial], report.Benchmarks[pParallel]
		switch {
		case report.GoMaxProcs < 2:
			// With one processor there is no parallelism for the ratio
			// to measure: serialized and concurrent runs do the same
			// work, and the ratio is pure noise around 1. Skip, loudly.
			fmt.Fprintln(os.Stderr, "note: ratio gate skipped at GOMAXPROCS=1 (no parallelism to measure)")
		case p0 == nil || p1 == nil:
			fmt.Fprintf(os.Stderr, "FAIL: ratio gate needs both %s and %s in the run\n", pSerial, pParallel)
			os.Exit(1)
		case p0.NsPerOp <= 0 || p1.NsPerOp <= 0:
			fmt.Fprintf(os.Stderr, "FAIL: ratio gate needs ns/op for %s and %s\n", pSerial, pParallel)
			os.Exit(1)
		default:
			ratio := p0.NsPerOp / p1.NsPerOp
			if ratio < *minParallel {
				fmt.Fprintf(os.Stderr, "FAIL: serialized/parallel ratio %.2f < %.2f required (%s %.1f ns/op vs %s %.1f ns/op) — the parallel plane has re-serialized\n",
					ratio, *minParallel, pSerial, p0.NsPerOp, pParallel, p1.NsPerOp)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchgate: serialized/parallel ratio %.2f (>= %.2f required)\n", ratio, *minParallel)
		}
	}

	// The topology-scaling ratio gate. Same shape as the P0/P1 ratio
	// gate: wall-clock scaling of the simulated machine is bounded by
	// the host's parallelism, so absolute ns/op is noise but the RATIO
	// of the same per-worker workload on a 1-CPU versus a 16-CPU
	// machine is structural — if thread dispatch, per-CPU TLBs or the
	// node-aware run queues reacquire a global serialization point, the
	// 16-CPU run degrades to the 1-CPU run and the ratio collapses
	// toward 1. Gated against the current run alone, no baseline
	// needed; skipped below 4 processors, where the floor cannot be
	// reached even in principle.
	if *minScaling > 0 {
		s1, s16 := report.Benchmarks[sBase], report.Benchmarks[sScaled]
		switch {
		case report.GoMaxProcs < 4:
			// The ratio is capped by host parallelism: at GOMAXPROCS<4 a
			// 2x floor is unreachable no matter how well the simulated
			// machine scales. Skip, loudly.
			fmt.Fprintf(os.Stderr, "note: scaling gate skipped at GOMAXPROCS=%d (needs >=4 processors to measure scaling)\n", report.GoMaxProcs)
		case s1 == nil || s16 == nil:
			fmt.Fprintf(os.Stderr, "FAIL: scaling gate needs both %s and %s in the run\n", sBase, sScaled)
			os.Exit(1)
		case s1.NsPerOp <= 0 || s16.NsPerOp <= 0:
			fmt.Fprintf(os.Stderr, "FAIL: scaling gate needs ns/op for %s and %s\n", sBase, sScaled)
			os.Exit(1)
		default:
			ratio := s1.NsPerOp / s16.NsPerOp
			if ratio < *minScaling {
				fmt.Fprintf(os.Stderr, "FAIL: cpus=1/cpus=16 scaling ratio %.2f < %.2f required (%s %.1f ns/op vs %s %.1f ns/op) — the topology no longer scales\n",
					ratio, *minScaling, sBase, s1.NsPerOp, sScaled, s16.NsPerOp)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchgate: cpus=1/cpus=16 scaling ratio %.2f (>= %.2f required)\n", ratio, *minScaling)
		}
	}

	// The grouped-dispatch ratio gate. Unlike the P0/P1 ratio this one
	// compares cycles/op — the deterministic virtual-cycle metric — so
	// it holds on any runner shape, GOMAXPROCS=1 included: an
	// alternating mixed-target batch pays one crossing per entry in
	// order-preserving mode, and grouped dispatch must keep paying only
	// one per distinct target. If the ratio collapses, grouped mode has
	// stopped partitioning (or in-order dispatch got charged less than
	// a crossing per entry — either way the vectoring contract broke).
	// Gated against the current run alone, no baseline needed.
	if *minGrouped > 0 {
		gi, gg := report.Benchmarks[gInOrder], report.Benchmarks[gGrouped]
		switch {
		case gi == nil || gg == nil:
			fmt.Fprintf(os.Stderr, "FAIL: grouped-dispatch gate needs both %s and %s in the run\n", gInOrder, gGrouped)
			os.Exit(1)
		case gi.CyclesPerOp <= 0 || gg.CyclesPerOp <= 0:
			fmt.Fprintf(os.Stderr, "FAIL: grouped-dispatch gate needs cycles/op for %s and %s\n", gInOrder, gGrouped)
			os.Exit(1)
		default:
			ratio := gi.CyclesPerOp / gg.CyclesPerOp
			if ratio < *minGrouped {
				fmt.Fprintf(os.Stderr, "FAIL: in-order/grouped ratio %.2f < %.2f required (%s %.1f cycles/op vs %s %.1f cycles/op) — grouped dispatch no longer amortizes mixed-target crossings\n",
					ratio, *minGrouped, gInOrder, gi.CyclesPerOp, gGrouped, gg.CyclesPerOp)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchgate: in-order/grouped ratio %.2f (>= %.2f required)\n", ratio, *minGrouped)
		}
	}

	if *baseline == "" {
		return
	}
	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	failures := gate(base, report, *threshold)
	if *allocGate != "" {
		failures = append(failures, gateAllocs(base, report, strings.Split(*allocGate, ","))...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d benchmarks, gate passed (threshold %.0f%%)\n",
		len(report.Benchmarks), *threshold*100)
}

// gateAllocs holds the named benchmarks' allocs/op at or below the
// baseline — exactly, no threshold: allocation counts are
// deterministic per op, so any increase is a real regression of the
// zero-allocation invariant (a baseline of 0 means the benchmark must
// stay allocation-free). The named benchmarks must exist in both the
// baseline and the run: losing one silently would ungate it.
func gateAllocs(base, cur *Report, names []string) []string {
	var failures []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		switch {
		case b == nil:
			failures = append(failures, fmt.Sprintf("%s: allocs-gated but missing from the baseline", name))
		case c == nil:
			failures = append(failures, fmt.Sprintf("%s: allocs-gated but missing from this run", name))
		case !c.hasAllocs:
			failures = append(failures, fmt.Sprintf("%s: allocs-gated but this run reported no allocs/op (b.ReportAllocs dropped?)", name))
		case c.AllocsPerOp > b.AllocsPerOp:
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op, baseline %.1f — the allocation-free invariant regressed",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return failures
}

// parse reads `go test -bench` output. A benchmark line looks like:
//
//	BenchmarkT2_CrossDomain-8   200000   813.7 ns/op   714.0 cycles/op
//
// The -N GOMAXPROCS suffix is stripped so names stay stable across
// runner shapes — but N itself is kept as the report's GoMaxProcs: it
// is the parallelism of the RUN, which is what the ratio gate must
// judge, not the parallelism of the benchgate process (the two can
// differ when the bench step sets GOMAXPROCS or the output is parsed
// elsewhere). Suffix-less output means the run had GOMAXPROCS=1.
func parse(r io.Reader) (*Report, error) {
	report := &Report{GoMaxProcs: 1, Benchmarks: map[string]*Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				if n > report.GoMaxProcs {
					report.GoMaxProcs = n
				}
			}
		}
		res := report.Benchmarks[name]
		if res == nil {
			res = &Result{}
			report.Benchmarks[name] = res
		}
		if it, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
			res.iterations = it
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "cycles/op":
				res.CyclesPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
				res.hasAllocs = true
			}
		}
	}
	return report, sc.Err()
}

func load(path string) (*Report, error) {
	js, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(js, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// gate compares every baseline benchmark that carries a cycles/op
// metric against the current run. Missing benchmarks fail: deleting a
// gated hot path is a decision, recorded by editing the baseline.
// Benchmarks in the run but absent from the baseline are warned about,
// so a newly added hot path is never silently ungated.
func gate(base, cur *Report, threshold float64) []string {
	switch {
	case base.BenchTime != "" && cur.BenchTime != "" && base.BenchTime != cur.BenchTime:
		// cycles/op from different iteration counts are incomparable
		// (per-run setup amortizes over N): refuse outright rather
		// than report phantom per-benchmark regressions on top.
		return []string{fmt.Sprintf(
			"benchtime mismatch: baseline captured at %q, this run at %q — cycles/op not comparable",
			base.BenchTime, cur.BenchTime)}
	case base.BenchTime == "" || cur.BenchTime == "":
		fmt.Fprintln(os.Stderr, "note: benchtime not recorded on both sides; cannot verify baseline and run used the same iteration count")
	}
	var failures []string
	for _, name := range sortedNames(cur.Benchmarks) {
		if cur.Benchmarks[name].CyclesPerOp != 0 && base.Benchmarks[name] == nil {
			fmt.Fprintf(os.Stderr, "warning: %s reports cycles/op but has no baseline entry — not gated; add it to the baseline\n", name)
		}
	}
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		if b.CyclesPerOp == 0 {
			continue // host-time-only benchmark (P-series, Invoke pair): not gated
		}
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in this run", name))
			continue
		}
		if c.CyclesPerOp == 0 {
			failures = append(failures, fmt.Sprintf("%s: baseline has %.1f cycles/op but this run reported none (metric lost?)",
				name, b.CyclesPerOp))
			continue
		}
		limit := b.CyclesPerOp * (1 + threshold)
		switch {
		case c.CyclesPerOp > limit:
			failures = append(failures, fmt.Sprintf("%s: %.1f cycles/op, baseline %.1f (+%.1f%% > +%.0f%% allowed)",
				name, c.CyclesPerOp, b.CyclesPerOp,
				100*(c.CyclesPerOp-b.CyclesPerOp)/b.CyclesPerOp, threshold*100))
		case c.CyclesPerOp < b.CyclesPerOp*(1-threshold):
			fmt.Fprintf(os.Stderr, "note: %s improved to %.1f cycles/op (baseline %.1f); consider refreshing the baseline\n",
				name, c.CyclesPerOp, b.CyclesPerOp)
		}
	}
	return failures
}

// sortedNames returns a map's benchmark names in stable order.
func sortedNames(m map[string]*Result) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
