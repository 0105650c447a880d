package inner

// Unreferenced is reported: nothing refers to it.
func Unreferenced() {}

// OnlyTested is reported: only inner_test.go refers to it.
func OnlyTested() {}

// Shape is an interface the module declares.
type Shape interface{ Area() int }

// Square is referenced from _bench.
type Square struct{}

// Area is reached through Shape, not by name.
func (Square) Area() int { return 1 }

// Aliased is the type fix.Handle aliases.
type Aliased struct{}

// Method is public API through the alias.
func (*Aliased) Method() {}

// Opened is the type fix.Open returns.
type Opened struct{}

// Close is public API through fix.Open's signature.
func (*Opened) Close() {}

// OnlyBench is reached from _bench, the stand-in for _perfbench.
func OnlyBench() {}

// Kept carries a directive with a reason.
//
//paralint:ignore deadexport kept to show a directive with a reason suppresses
func Kept() {}

// Bare carries a directive with no reason, which keeps nothing.
//
//paralint:ignore deadexport
func Bare() {}

// Stale carries a directive, but _bench reaches it.
//
//paralint:ignore deadexport kept to show a directive that keeps nothing is reported
func Stale() {}
