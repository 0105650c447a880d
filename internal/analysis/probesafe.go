package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ProbeSafe polices the flight-recorder emission discipline. The probe
// package's whole bargain is that a disabled recorder costs one atomic
// load: every Emit call site — Recorder.Emit or the Meter.Emit wrapper
// — must therefore be reachable only under the package-level enable
// gate, either inside an `if probe.Enabled() { ... }` block or after a
// leading `if !probe.Enabled() { return }` early exit, so the argument
// expressions are never even evaluated on the disabled path. The same
// sites must not allocate: an argument built from a composite literal,
// make/new/append, or string concatenation would put an allocation on
// a //paramecium:hotpath emit site and trip the bench gate's allocs
// check.
var ProbeSafe = &Analyzer{
	Name: "probesafe",
	Doc:  "flight-recorder emission must sit under the probe enable gate and not allocate",
	Run:  runProbeSafe,
}

func runProbeSafe(pass *Pass) error {
	// The probe package itself is the mechanism below the gate: its
	// Recorder.Emit body runs only because a gated caller invoked it.
	if pass.Pkg.Path() == "paramecium/internal/probe" {
		return nil
	}
	ps := &probeSafe{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ps.checkBlock(fn.Body.List, false)
		}
	}
	return nil
}

type probeSafe struct {
	pass *Pass
}

// isEnabledCall matches a call of the gate predicate: probe.Enabled()
// or a local Enabled() in the golden suite.
func isEnabledCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Enabled"
	case *ast.Ident:
		return fun.Name == "Enabled"
	}
	return false
}

// guardsEnabled reports whether the condition establishes the gate in
// its then-branch: Enabled() appears positively (possibly as one
// conjunct of &&, whose short-circuit makes the branch gated).
func guardsEnabled(cond ast.Expr) bool {
	switch cond := cond.(type) {
	case *ast.CallExpr:
		return isEnabledCall(cond)
	case *ast.ParenExpr:
		return guardsEnabled(cond.X)
	case *ast.BinaryExpr:
		if cond.Op == token.LAND {
			return guardsEnabled(cond.X) || guardsEnabled(cond.Y)
		}
	}
	return false
}

// isNegatedEnabled matches `!Enabled()` — the early-return guard form.
func isNegatedEnabled(cond ast.Expr) bool {
	u, ok := cond.(*ast.UnaryExpr)
	return ok && u.Op == token.NOT && isEnabledCall(u.X)
}

// isEmit matches an emission call: method Emit on the Meter or
// Recorder named types.
func (ps *probeSafe) isEmit(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" {
		return false
	}
	switch namedTypeName(ps.pass.TypesInfo.TypeOf(sel.X)) {
	case "Meter", "Recorder":
		return true
	}
	return false
}

// checkExpr scans one expression tree for emission calls, reporting
// ungated ones and allocating arguments. Function literals restart
// ungated: the literal may be invoked long after the enclosing guard.
func (ps *probeSafe) checkExpr(n ast.Node, guarded bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ps.checkBlock(n.Body.List, false)
			return false
		case *ast.CallExpr:
			if !ps.isEmit(n) {
				return true
			}
			if !guarded {
				ps.pass.Reportf(n.Pos(), "Emit call site is not under the probe enable gate; wrap it in `if probe.Enabled() { ... }` so disabled tracing stays a single atomic load")
			}
			for _, arg := range n.Args {
				ps.checkArg(arg)
			}
		}
		return true
	})
}

// checkArg flags argument expressions that allocate: the emit path is
// hot and must stay allocation-free even when the gate is open.
func (ps *probeSafe) checkArg(arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			ps.pass.Reportf(n.Pos(), "Emit argument builds a composite literal, which allocates on the emit hot path; precompute it outside the event")
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := ps.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						ps.pass.Reportf(n.Pos(), "Emit argument calls %s, which allocates on the emit hot path", b.Name())
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(ps.pass.TypesInfo.TypeOf(n)) {
				ps.pass.Reportf(n.Pos(), "Emit argument concatenates strings, which allocates on the emit hot path")
			}
		}
		return true
	})
}

// checkBlock walks statements sequentially, tracking whether the gate
// covers each point: a positive guard gates its then-branch, and a
// `if !Enabled() { return }` early exit gates everything after it.
func (ps *probeSafe) checkBlock(stmts []ast.Stmt, guarded bool) {
	for _, s := range stmts {
		guarded = ps.checkStmt(s, guarded)
	}
}

func (ps *probeSafe) checkStmt(s ast.Stmt, guarded bool) bool {
	switch s := s.(type) {
	case *ast.IfStmt:
		ps.checkStmt(s.Init, guarded)
		ps.checkExpr(s.Cond, guarded)
		thenGuarded := guarded || guardsEnabled(s.Cond)
		ps.checkBlock(s.Body.List, thenGuarded)
		if s.Else != nil {
			ps.checkStmt(s.Else, guarded)
		}
		if isNegatedEnabled(s.Cond) && terminates(s.Body.List) {
			return true
		}
		return guarded
	case *ast.BlockStmt:
		ps.checkBlock(s.List, guarded)
		return guarded
	case *ast.ForStmt:
		ps.checkStmt(s.Init, guarded)
		ps.checkExpr(s.Cond, guarded)
		ps.checkBlock(s.Body.List, guarded)
		ps.checkStmt(s.Post, guarded)
		return guarded
	case *ast.RangeStmt:
		ps.checkExpr(s.X, guarded)
		ps.checkBlock(s.Body.List, guarded)
		return guarded
	case *ast.SwitchStmt:
		ps.checkStmt(s.Init, guarded)
		ps.checkExpr(s.Tag, guarded)
		for _, c := range s.Body.List {
			ps.checkBlock(c.(*ast.CaseClause).Body, guarded)
		}
		return guarded
	case *ast.TypeSwitchStmt:
		ps.checkStmt(s.Init, guarded)
		for _, c := range s.Body.List {
			ps.checkBlock(c.(*ast.CaseClause).Body, guarded)
		}
		return guarded
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			ps.checkBlock(c.(*ast.CommClause).Body, guarded)
		}
		return guarded
	case *ast.DeferStmt:
		// A deferred emit runs at return, when the guard that covered
		// the defer statement may no longer describe the gate; require
		// the gate inside the deferred expression itself.
		ps.checkExpr(s.Call, false)
		return guarded
	case *ast.GoStmt:
		ps.checkExpr(s.Call, false)
		return guarded
	case *ast.LabeledStmt:
		return ps.checkStmt(s.Stmt, guarded)
	case nil:
		return guarded
	default:
		ps.checkExpr(s, guarded)
		return guarded
	}
}
