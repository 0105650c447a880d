// Command benchtab regenerates every experiment table and figure of
// the reproduction (DESIGN.md §4) and prints them as text.
//
// Usage:
//
//	benchtab            # run all deterministic experiments
//	benchtab T1 F2      # run selected experiments by id
//	benchtab -parallel  # also run the host-parallel P-series
//	benchtab P1         # run one parallel experiment by id
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"paramecium/internal/bench"
)

type experiment struct {
	id  string
	run func() bench.Table
}

// experiments lists every experiment once, in report order. Ids that
// start with P are the host-parallel series.
var experiments = []experiment{
	{"T1", bench.T1Invocation},
	{"T2", bench.T2CrossDomain},
	{"T3", bench.T3Interrupt},
	{"T4", bench.T4Certification},
	{"T5", bench.T5FilterPlacement},
	{"T6", bench.T6Reconfiguration},
	{"F1", bench.F1Throughput},
	{"F2", bench.F2BreakEven},
	{"F3", bench.F3BlockingFraction},
	{"F4", bench.F4Namespace},
	{"F5", bench.F5TrapCostSweep},
	{"P1", bench.P1ParallelProxyCall},
	{"P2", bench.P2ParallelLookup},
	{"P3", bench.P3CPUTopology},
	{"P5", bench.P5BatchSweep},
	{"P6", bench.P6BulkTransfer},
	{"P7", bench.P7RingStream},
	{"P8", bench.P8MixedTargetSweep},
	{"P9", bench.P9ScalingSweep},
	{"P10", bench.P10TraceOverhead},
}

func main() {
	parallel := flag.Bool("parallel", false,
		"also run the P-series parallel-throughput experiments (host wall-clock, not deterministic)")
	flag.Usage = func() {
		ids := make([]string, len(experiments))
		for i, e := range experiments {
			ids[i] = e.id
		}
		fmt.Fprintf(os.Stderr, "usage: benchtab [-parallel] [experiment ids...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s (default: all T/F)\n", strings.Join(ids, " "))
	}
	flag.Parse()

	want := make(map[string]bool)
	for _, a := range flag.Args() {
		id := strings.ToUpper(a)
		if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.id == id }) {
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", a)
			os.Exit(2)
		}
		want[id] = true
	}

	ran := 0
	for _, e := range experiments {
		switch {
		case len(want) > 0:
			if !want[e.id] {
				continue
			}
		case strings.HasPrefix(e.id, "P") && !*parallel:
			continue
		}
		t := e.run()
		fmt.Println(t.Render())
		ran++
	}
	if ran == 0 {
		flag.Usage()
		os.Exit(2)
	}
}
