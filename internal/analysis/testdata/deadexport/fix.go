// Package fix stands in for the module's public packages: what it
// exposes, an embedder outside the module can call.
package fix

import "fix/internal/inner"

// Handle aliases an internal type, so its methods are public API.
type Handle = inner.Aliased

// Open exposes an internal type through its signature.
func Open() *inner.Opened { return nil }
