// Command paralint runs the repo-specific static analyzers over module
// packages and exits non-zero if any finding survives. It is the static
// complement to the dynamic CI gates: chargepath (cost-model dominance),
// lockorder (documented lock ranks), hotpathalloc (zero-alloc fast
// paths), atomicmix (no mixed atomic/plain field access), cpustate
// (per-CPU ownership), probesafe (gated, allocation-free emission) and
// threadfree (interrupt handlers that ignore their thread skip the
// carrier).
//
// Usage:
//
//	paralint [-analyzers name,name] [-list] [packages]
//
// Packages accept the usual ./... patterns; the default is ./... from
// the module root.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paramecium/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *names != "" {
		var err error
		analyzers, err = analysis.ByName(*names)
		if err != nil {
			fmt.Fprintf(stderr, "paralint: %v\n", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "paralint: %v\n", err)
		return 2
	}
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "paralint: %v\n", err)
		return 2
	}

	findings := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "paralint: %v\n", err)
			return 2
		}
		for _, a := range analyzers {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fmt.Fprintf(stderr, "paralint: %v\n", err)
				return 2
			}
			for _, d := range diags {
				fmt.Fprintln(stdout, d)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "paralint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
