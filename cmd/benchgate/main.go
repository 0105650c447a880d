// Command benchgate is the CI benchmark-regression gate. It parses
// `go test -bench` output, writes a machine-readable JSON report of
// every benchmark's metrics, and — when given a baseline — gates the
// run against what the baseline declares beside its rows:
//
//   - benchtime: the fixed iteration count ("2000x") the run must use.
//     Every row of the run must report exactly that many iterations:
//     cycles/op amortizes per-run setup over N, so rows run at another
//     count are not comparable.
//   - cycles_per_op on a row: the run's cycles/op must match it
//     exactly, in either direction. Virtual cycles are the simulation's
//     deterministic cost: they do not vary with CI hardware, load or
//     GOMAXPROCS, so they are held exactly without flakes. Host ns/op
//     is recorded for humans but not gated row by row, because wall
//     clock on shared runners is noise.
//   - allocs_gated on a row: the run's allocs/op must not exceed the
//     row's allocs_per_op, and the run must report allocs/op at all.
//     Allocation counts are deterministic per op, so the zero-allocation
//     fast paths stay at 0 allocs/op or the gate fails.
//   - ratios: named pairs of rows whose metric (cycles_per_op or
//     ns_per_op) must give num/den >= min in this run. A pair with
//     min_procs is skipped, with a note, when the run had fewer
//     processors: a wall-clock ratio of parallel work needs them.
//
// Usage:
//
//	go test -run xxx -bench . -benchtime 2000x . | tee bench.out
//	benchgate -in bench.out -out BENCH_invoke.json -baseline ci/bench_baseline.json
//
// The report carries the baseline's declarations forward, so to refresh
// the committed baseline after an intentional cost change, rerun the
// same benchmark command and copy the -out file over the baseline.
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

// Result is one benchmark's parsed metrics, and in a baseline the
// row's allocs gate.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	CyclesPerOp float64 `json:"cycles_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	AllocsGated bool    `json:"allocs_gated,omitempty"`

	// iterations is the run's actual iteration count (the second
	// column of the bench line), held against the baseline's
	// benchtime; it is not part of the JSON schema.
	iterations uint64
	// hasAllocs records that the bench line actually carried an
	// allocs/op column (a true 0 is indistinguishable from a missing
	// metric in AllocsPerOp alone). The allocs gate requires it, so a
	// gated benchmark that silently drops b.ReportAllocs fails instead
	// of passing as zero. Parse-side only, not in the JSON schema.
	hasAllocs bool
}

// Ratio is a gate on two rows of the same run: Num's Metric divided
// by Den's must be at least Min. Skipped below MinProcs processors.
type Ratio struct {
	Name     string  `json:"name"`
	Num      string  `json:"num"`
	Den      string  `json:"den"`
	Metric   string  `json:"metric"`
	Min      float64 `json:"min"`
	MinProcs int     `json:"min_procs,omitempty"`
}

// Report is the BENCH_invoke.json schema, and the baseline's.
type Report struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	BenchTime  string             `json:"benchtime,omitempty"`
	Benchmarks map[string]*Result `json:"benchmarks"`
	Ratios     []Ratio            `json:"ratios,omitempty"`
}

func main() {
	in := flag.String("in", "-", "benchmark output to parse ('-' for stdin)")
	out := flag.String("out", "", "write the JSON report here (empty: stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (empty: no gate)")
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
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *in))
	}
	var base *Report
	if *baseline != "" {
		if base, err = load(*baseline); err != nil {
			fatal(err)
		}
		report.declare(base)
	}

	// Written before gating: CI uploads the report precisely when the
	// gate fails.
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

	if base == nil {
		return
	}
	if failures := gate(base, report, os.Stderr); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d benchmarks, gate passed\n", len(report.Benchmarks))
}

// declare copies the baseline's declarations onto the run's report —
// its benchtime, its ratios and the allocs gate of every row the run
// has — so the report, copied over the baseline, gates the same things.
func (r *Report) declare(base *Report) {
	r.BenchTime = base.BenchTime
	r.Ratios = base.Ratios
	for name, b := range base.Benchmarks {
		if c := r.Benchmarks[name]; c != nil {
			c.AllocsGated = b.AllocsGated
		}
	}
}

// gate checks the run against every declaration of the baseline and
// returns one failure per broken gate; notes and warnings go to notes.
// A gated row missing from the run fails: deleting a gated hot path is
// a decision, recorded by editing the baseline. Rows in the run that
// report cycles/op but are absent from the baseline are warned about,
// so a newly added hot path is never silently ungated.
func gate(base, cur *Report, notes io.Writer) []string {
	n, ok := strings.CutSuffix(base.BenchTime, "x")
	want, err := strconv.ParseUint(n, 10, 64)
	if !ok || err != nil {
		return []string{fmt.Sprintf("baseline benchtime %q is not a fixed iteration count (Nx)", base.BenchTime)}
	}
	var failures []string
	for _, name := range sortedNames(cur.Benchmarks) {
		c := cur.Benchmarks[name]
		if c.iterations != want {
			failures = append(failures, fmt.Sprintf("%s: ran %d iterations, baseline benchtime is %s — the bench command and the baseline are out of sync",
				name, c.iterations, base.BenchTime))
		}
		if c.CyclesPerOp != 0 && base.Benchmarks[name] == nil {
			fmt.Fprintf(notes, "warning: %s reports cycles/op but has no baseline entry — not gated; add it to the baseline\n", name)
		}
	}
	if len(failures) > 0 {
		// Rows from another iteration count are incomparable: refuse
		// outright rather than report phantom regressions on top.
		return failures
	}
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		if b.CyclesPerOp == 0 && !b.AllocsGated {
			continue // host-time-only row: recorded, not gated
		}
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in this run", name))
			continue
		}
		switch {
		case b.CyclesPerOp == 0:
		case c.CyclesPerOp == 0:
			failures = append(failures, fmt.Sprintf("%s: baseline has %.1f cycles/op but this run reported none (metric lost?)",
				name, b.CyclesPerOp))
		case c.CyclesPerOp != b.CyclesPerOp:
			failures = append(failures, fmt.Sprintf("%s: %v cycles/op, baseline %v (must match exactly)",
				name, c.CyclesPerOp, b.CyclesPerOp))
		}
		switch {
		case !b.AllocsGated:
		case !c.hasAllocs:
			failures = append(failures, fmt.Sprintf("%s: allocs-gated but this run reported no allocs/op (b.ReportAllocs dropped?)", name))
		case c.AllocsPerOp > b.AllocsPerOp:
			failures = append(failures, fmt.Sprintf("%s: %v allocs/op, baseline %v — the allocation-free invariant regressed",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	for _, g := range base.Ratios {
		if f := g.check(cur, notes); f != "" {
			failures = append(failures, f)
		}
	}
	return failures
}

// check gates one ratio against the run and returns its failure, or
// "" when it holds or is skipped.
func (g Ratio) check(cur *Report, notes io.Writer) string {
	if cur.GoMaxProcs < g.MinProcs {
		fmt.Fprintf(notes, "note: ratio %s skipped at GOMAXPROCS=%d (needs >= %d processors to measure)\n",
			g.Name, cur.GoMaxProcs, g.MinProcs)
		return ""
	}
	num, err := cur.metric(g.Num, g.Metric)
	if err != nil {
		return fmt.Sprintf("ratio %s: %v", g.Name, err)
	}
	den, err := cur.metric(g.Den, g.Metric)
	if err != nil {
		return fmt.Sprintf("ratio %s: %v", g.Name, err)
	}
	ratio := num / den
	if ratio < g.Min {
		return fmt.Sprintf("ratio %s %.2f < %.2f required (%s %v vs %s %v %s)",
			g.Name, ratio, g.Min, g.Num, num, g.Den, den, g.Metric)
	}
	fmt.Fprintf(notes, "benchgate: ratio %s %.2f (>= %.2f required)\n", g.Name, ratio, g.Min)
	return ""
}

// metric reads one gated metric of a row of the run.
func (r *Report) metric(name, metric string) (float64, error) {
	res := r.Benchmarks[name]
	if res == nil {
		return 0, fmt.Errorf("%s is not in this run", name)
	}
	var v float64
	switch metric {
	case "cycles_per_op":
		v = res.CyclesPerOp
	case "ns_per_op":
		v = res.NsPerOp
	default:
		return 0, fmt.Errorf("unknown metric %q", metric)
	}
	if v <= 0 {
		return 0, fmt.Errorf("%s reported no %s", name, metric)
	}
	return v, nil
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
