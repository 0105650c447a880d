// Command bench stands in for _perfbench: a module beside this one
// that imports its internal packages.
package main

import "fix/internal/inner"

func main() {
	inner.OnlyBench()
	inner.Stale()
	_ = inner.Square{}
	var _ inner.Shape
}
