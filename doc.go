// Package paramecium is a reproduction, in Go, of "Paramecium: an
// extensible object-based kernel" (van Doorn, Homburg, Tanenbaum;
// HotOS-V, 1995), with a public embedding API over it.
//
// The public surface is this package plus paramecium/api. Boot
// assembles a System — the nucleus, the simulated machine and the
// root of the hierarchical name space — configured by functional
// options (WithAuthority, WithMachine). Components are objects
// exporting named interfaces ("methods, state pointers and type
// information", api.InterfaceDecl); they are registered under paths
// and late-bound by name from protection Domains, which receive
// Handles — over the object itself in-domain, over a page-fault
// driven proxy across domains.
//
// Invocation follows the bind-once/invoke-many pattern the paper's
// late binding implies: Handle.Resolve (or api.Invoker.Resolve)
// pre-binds a method to an api.MethodHandle that dispatches by slot
// index, with no per-call name lookup or lock. An api.Invoker is
// Decl, State and Resolve; Handle.Invoke is the by-name path, which
// resolves and then calls on every call. Both validate argument and
// result arity against the interface's type information.
//
// The implementation lives under internal/: the simulated machine
// (hw, mmu, clock), the object architecture (obj), the name space
// (names), the nucleus services wired together by core, the thread
// package with proto-thread pop-up threads (threads), cross-domain
// proxies (proxy), shared-memory segments and the streaming ring
// protocol over them (shm, ring — see Domain.NewRing and
// Handle.Coalesce), the PVM bytecode with its SFI rewriter (sandbox),
// drivers and a protocol stack (drivers, netstack), a virtual-memory
// extension (vmm), the component repository (repoz), the
// monolithic-kernel baseline (baseline), monitoring tools (trace) and
// the experiment harness (bench).
//
// The invariants the design leans on are enforced statically by
// paralint (internal/analysis, run by CI as cmd/paralint): every raw
// byte movement in the data planes is dominated by a clock charge,
// the documented mutex ranks are never inverted, fields accessed via
// sync/atomic are never accessed plainly, and per-CPU state is only
// reached through a blessed CPU identity. Functions on the invocation
// or data fast path carry the //paramecium:hotpath directive in their
// doc comment, which holds them to hotpathalloc's zero-allocation
// rules — annotate any new fast-path function the same way.
//
// See README.md for a package tour and a quickstart that uses only
// the public API, and ARCHITECTURE.md for the layer diagram, the full
// virtual-cycle cost table, the ring wire format and the documented
// lock ranks.
package paramecium
