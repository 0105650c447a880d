package analysis

import (
	"go/ast"
	"go/types"
)

// ThreadFree points interrupt handlers that ignore their thread at the
// thread-free registration form. A handler literal passed to
// RegisterIRQOn whose *Thread parameter is blank, unnamed or never
// referenced cannot block: every blocking primitive of the thread
// package takes the blocking thread. Registered with
// RegisterThreadFreeIRQOn instead, proto dispatch runs it inline on
// the delivering goroutine, with no carrier handoff.
var ThreadFree = &Analyzer{
	Name: "threadfree",
	Doc:  "an interrupt handler that ignores its thread must use the thread-free registration form",
	Run:  runThreadFree,
}

func runThreadFree(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "RegisterIRQOn" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok && ignoresThread(pass.TypesInfo, lit) {
					pass.Reportf(lit.Pos(), "interrupt handler ignores its *Thread; register it with RegisterThreadFreeIRQOn and a func(hw.TrapFrame), which proto dispatch runs without a carrier")
				}
			}
			return true
		})
	}
	return nil
}

// ignoresThread reports whether a handler literal has a *Thread
// parameter that is blank, unnamed or never referenced in its body.
func ignoresThread(info *types.Info, lit *ast.FuncLit) bool {
	for _, field := range lit.Type.Params.List {
		p, ok := info.TypeOf(field.Type).(*types.Pointer)
		if !ok || namedTypeName(p.Elem()) != "Thread" {
			continue
		}
		if len(field.Names) == 0 {
			return true
		}
		for _, name := range field.Names {
			if name.Name == "_" || !referenced(info, lit.Body, info.Defs[name]) {
				return true
			}
		}
	}
	return false
}

// referenced reports whether obj is used anywhere under body.
func referenced(info *types.Info, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && obj != nil && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
