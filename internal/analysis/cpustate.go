package analysis

import (
	"go/ast"
	"strings"
)

// CPUState guards the per-CPU ownership discipline. Per-CPU state (the
// "cpus" arrays in the MMU and machine layers) may only be reached
// through the blessed entry points — the package's own cpu()/CPUByID
// accessors, a CPU identity threaded in as a CPUID parameter or lease,
// a frame's .CPU field, or a vp.ID() — never by indexing with an
// unrelated integer, which silently reads another CPU's state.
//
// It also polices the boot CPU as an initiator: every operation that
// touches per-CPU state takes its CPU explicitly, and referencing the
// BootCPU constant is only allowed in functions whose doc comment says
// so ("boot CPU"), making every such choice an explicit, documented
// decision.
var CPUState = &Analyzer{
	Name: "cpustate",
	Doc:  "per-CPU state must be reached through a blessed CPU identity",
	Run:  runCPUState,
}

// cpuStatePackages are the packages holding per-CPU arrays.
var cpuStatePackages = []string{
	"internal/mmu",
	"internal/hw",
}

// cpuAccessorFuncs may index the per-CPU array directly: they are the
// blessed accessors everything else must go through.
var cpuAccessorFuncs = map[string]bool{
	"cpu":        true,
	"CPUByID":    true,
	"AcquireCPU": true,
}

func runCPUState(pass *Pass) error {
	checkIndexing := inScopeFor(pass, cpuStatePackages)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if checkIndexing && !cpuAccessorFuncs[fn.Name.Name] {
				checkCPUIndexing(pass, fn)
			}
			checkBootCPUUse(pass, fn)
		}
	}
	return nil
}

// checkCPUIndexing flags indexing of a "cpus" field by anything that is
// not a CPU identity.
func checkCPUIndexing(pass *Pass, fn *ast.FuncDecl) {
	// Range-key variables over a cpus field are CPU-shaped by
	// construction.
	rangeKeys := make(map[string]string) // key var name -> ranged field text
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if key, ok := r.Key.(*ast.Ident); ok && isCPUsField(r.X) {
			rangeKeys[key.Name] = exprString(r.X)
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok || !isCPUsField(idx.X) {
			return true
		}
		if isBlessedCPUIndex(pass, idx.Index, exprString(idx.X), rangeKeys) {
			return true
		}
		pass.Reportf(idx.Index.Pos(), "per-CPU state indexed by %s, which is not a CPU identity; go through the cpu() accessor, a CPUID parameter, frame.CPU, or vp.ID()", describeIndex(idx.Index))
		return true
	})
}

// isCPUsField matches a selector (or ident) naming a per-CPU array
// field.
func isCPUsField(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "cpus"
	case *ast.Ident:
		return e.Name == "cpus"
	}
	return false
}

// isBlessedCPUIndex reports whether the index expression carries a CPU
// identity.
func isBlessedCPUIndex(pass *Pass, index ast.Expr, field string, rangeKeys map[string]string) bool {
	// A value already typed as CPUID (including CPUID(x) conversions).
	if t := pass.TypesInfo.TypeOf(index); t != nil {
		if name := namedTypeName(t); name == "CPUID" {
			return true
		}
	}
	switch index := index.(type) {
	case *ast.Ident:
		// The key variable of a range over the same field.
		if ranged, ok := rangeKeys[index.Name]; ok && ranged == field {
			return true
		}
	case *ast.SelectorExpr:
		// frame.CPU and friends: an explicit CPU slot on a struct.
		if index.Sel.Name == "CPU" {
			return true
		}
	case *ast.CallExpr:
		// vp.ID(): asking a virtual processor for its own identity.
		if sel, ok := index.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ID" {
			return true
		}
	}
	return false
}

func describeIndex(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return "plain variable " + e.Name
	case *ast.BasicLit:
		return "literal " + e.Value
	case *ast.SelectorExpr:
		return "field " + exprString(e)
	}
	return "an unrelated expression"
}

// checkBootCPUUse flags BootCPU references in functions whose doc does
// not acknowledge the boot-CPU choice.
func checkBootCPUUse(pass *Pass, fn *ast.FuncDecl) {
	if strings.Contains(strings.ToLower(funcDoc(fn)), "boot cpu") {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != "BootCPU" {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		pass.Reportf(id.Pos(), "BootCPU used as an implicit initiator in a function whose doc comment does not mention the boot CPU; thread the real CPU through or document the choice")
		return true
	})
}
