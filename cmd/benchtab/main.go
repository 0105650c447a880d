// Command benchtab regenerates every experiment table and figure of
// the reproduction (README.md, "Performance") and prints them as text.
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

func main() {
	parallel := flag.Bool("parallel", false,
		"also run the P-series parallel-throughput experiments (host wall-clock, not deterministic)")
	flag.Usage = func() {
		ids := make([]string, len(bench.Experiments))
		for i, e := range bench.Experiments {
			ids[i] = e.ID
		}
		fmt.Fprintf(os.Stderr, "usage: benchtab [-parallel] [experiment ids...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s (default: all T/F)\n", strings.Join(ids, " "))
	}
	flag.Parse()

	want := make(map[string]bool)
	for _, a := range flag.Args() {
		id := strings.ToUpper(a)
		if !slices.ContainsFunc(bench.Experiments, func(e bench.Experiment) bool { return e.ID == id }) {
			fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", a)
			os.Exit(2)
		}
		want[id] = true
	}

	ran := 0
	for _, e := range bench.Experiments {
		switch {
		case len(want) > 0:
			if !want[e.ID] {
				continue
			}
		case strings.HasPrefix(e.ID, "P") && !*parallel:
			continue
		}
		t := e.Run()
		fmt.Println(t.Render())
		ran++
	}
	if ran == 0 {
		flag.Usage()
		os.Exit(2)
	}
}
