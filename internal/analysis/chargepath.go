package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ChargePath enforces the cost-model discipline on raw data movement:
// in the data-plane packages, any statement that moves payload bytes —
// a call to PhysMem.Read/Write or a builtin copy over byte slices —
// must be dominated by a clock charge (Meter.ChargeFor/ChargeNFor, or a
// call to a same-package function that itself charges) on every path from
// the function's entry. No crossing or copy is ever free.
//
// The PhysMem methods themselves are the raw DRAM primitive and sit
// below the cost model: charging belongs at the access layer that
// invokes them, so functions whose receiver is PhysMem are exempt.
var ChargePath = &Analyzer{
	Name: "chargepath",
	Doc:  "raw data movement must be dominated by a clock charge",
	Run:  runChargePath,
}

// chargePathPackages are the module packages the invariant covers: the
// data planes that move payload bytes. Non-module (testdata) packages
// are always covered.
var chargePathPackages = []string{
	"internal/proxy",
	"internal/mmu",
	"internal/shm",
	"internal/hw",
	"internal/ring",
}

func inScopeFor(pass *Pass, suffixes []string) bool {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "paramecium") {
		return true // testdata / golden-suite package
	}
	for _, s := range suffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

func runChargePath(pass *Pass) error {
	if !inScopeFor(pass, chargePathPackages) {
		return nil
	}
	cp := &chargePath{pass: pass, charging: make(map[types.Object]bool)}
	// Pre-pass: same-package functions that contain a direct charge
	// anywhere count as charging helpers when called.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			direct := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && cp.isDirectCharge(call) {
					direct = true
				}
				return !direct
			})
			if direct {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					cp.charging[obj] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || cp.isPhysMemMethod(fn) {
				continue
			}
			cp.checkBlock(fn.Body.List, false)
		}
	}
	return nil
}

type chargePath struct {
	pass     *Pass
	charging map[types.Object]bool
}

// isPhysMemMethod reports whether fn is a method on the raw-memory
// primitive type, which is below the cost model by design.
func (cp *chargePath) isPhysMemMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := cp.pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	return namedTypeName(t) == "PhysMem"
}

// namedTypeName unwraps pointers and reports the named type's name.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isDirectCharge reports a Meter.ChargeFor/ChargeNFor call.
func (cp *chargePath) isDirectCharge(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "ChargeFor", "ChargeNFor":
	default:
		return false
	}
	return namedTypeName(cp.pass.TypesInfo.TypeOf(sel.X)) == "Meter"
}

// isCharge reports a direct charge or a call to a same-package
// function known to charge.
func (cp *chargePath) isCharge(call *ast.CallExpr) bool {
	if cp.isDirectCharge(call) {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return cp.charging[cp.pass.TypesInfo.Uses[fun]]
	case *ast.SelectorExpr:
		return cp.charging[cp.pass.TypesInfo.Uses[fun.Sel]]
	}
	return false
}

// isMovement reports a raw payload movement: PhysMem.Read/Write, or
// builtin copy with a byte-slice operand.
func (cp *chargePath) isMovement(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "copy" && len(call.Args) == 2 {
			if obj, ok := cp.pass.TypesInfo.Uses[fun].(*types.Builtin); ok && obj.Name() == "copy" {
				for _, arg := range call.Args {
					if isByteSlice(cp.pass.TypesInfo.TypeOf(arg)) {
						return "copy of payload bytes", true
					}
				}
			}
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Read" || fun.Sel.Name == "Write" {
			if namedTypeName(cp.pass.TypesInfo.TypeOf(fun.X)) == "PhysMem" {
				return "PhysMem." + fun.Sel.Name, true
			}
		}
	}
	return "", false
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// checkExpr scans one expression tree in evaluation order, reporting
// uncharged movements and returning the charged state after it.
func (cp *chargePath) checkExpr(n ast.Node, charged bool) bool {
	if n == nil {
		return charged
	}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what, ok := cp.isMovement(call); ok && !charged {
			cp.pass.Reportf(call.Pos(), "%s is not dominated by a clock charge on every path from the function entry", what)
		}
		if cp.isCharge(call) {
			charged = true
		}
		return true
	})
	return charged
}

// checkBlock walks statements sequentially, tracking whether a charge
// dominates each movement. Branches merge conservatively: the charged
// state after an if/switch is true only when every arm (including an
// else/default) charges.
func (cp *chargePath) checkBlock(stmts []ast.Stmt, charged bool) bool {
	for _, s := range stmts {
		charged = cp.checkStmt(s, charged)
	}
	return charged
}

func (cp *chargePath) checkStmt(s ast.Stmt, charged bool) bool {
	switch s := s.(type) {
	case *ast.IfStmt:
		charged = cp.checkStmt(s.Init, charged)
		charged = cp.checkExpr(s.Cond, charged)
		thenOut := cp.checkBlock(s.Body.List, charged)
		elseOut := charged
		hasElse := s.Else != nil
		if hasElse {
			elseOut = cp.checkStmt(s.Else, charged)
		}
		if hasElse && thenOut && elseOut {
			return true
		}
		return charged
	case *ast.BlockStmt:
		return cp.checkBlock(s.List, charged)
	case *ast.ForStmt:
		charged = cp.checkStmt(s.Init, charged)
		cp.checkExpr(s.Cond, charged)
		cp.checkBlock(s.Body.List, charged)
		cp.checkStmt(s.Post, charged)
		return charged // body may run zero times
	case *ast.RangeStmt:
		charged = cp.checkExpr(s.X, charged)
		cp.checkBlock(s.Body.List, charged)
		return charged
	case *ast.SwitchStmt:
		charged = cp.checkStmt(s.Init, charged)
		charged = cp.checkExpr(s.Tag, charged)
		all := true
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			if !cp.checkBlock(cc.Body, charged) {
				all = false
			}
		}
		if all && hasDefault {
			return true
		}
		return charged
	case *ast.TypeSwitchStmt:
		charged = cp.checkStmt(s.Init, charged)
		for _, c := range s.Body.List {
			cp.checkBlock(c.(*ast.CaseClause).Body, charged)
		}
		return charged
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cp.checkBlock(c.(*ast.CommClause).Body, charged)
		}
		return charged
	case *ast.DeferStmt:
		// A deferred movement runs at return, after any charge the
		// body performs; treat it with the state accumulated so far.
		return cp.checkExpr(s.Call, charged)
	case *ast.GoStmt:
		return cp.checkExpr(s.Call, charged)
	case *ast.LabeledStmt:
		return cp.checkStmt(s.Stmt, charged)
	case nil:
		return charged
	default:
		return cp.checkExpr(s, charged)
	}
}
