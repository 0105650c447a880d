package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder builds a static lock-acquisition graph over the repo's
// named mutexes and flags edges that invert the documented partial
// order. A lock is identified by its declaring struct field
// ("pkg.Type.field"); acquiring B while holding A records the edge
// A→B, both intraprocedurally and through same-package calls (a call
// made while holding A contributes edges from A to every lock the
// callee may acquire). Acquiring a lock of the same class that is
// already held exclusively is flagged as self-deadlock.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions must respect the documented partial order",
	Run:  runLockOrder,
}

// lockRanks is the documented partial order, one rank group per
// subsystem. Within a group, a lock may only be acquired while holding
// locks of strictly lower rank; locks in different groups (or absent
// here) are unordered and unchecked. The "lockorder" group covers the
// analyzer's own golden-suite package.
var lockRanks = map[string]map[string]int{
	"shm": {
		"shm.Registry.mu":      1,
		"shm.Segment.accessMu": 2,
		"shm.Grant.accessMu":   3,
	},
	"mmu": {
		"mmu.MMU.mu":       1,
		"mmu.pageTable.mu": 2,
		"mmu.cpuState.mu":  3,
	},
	"core": {
		"core.Kernel.regMu": 1,
		"core.Kernel.mu":    2,
	},
	"hw": {
		"hw.NIC.txMu": 1,
		"hw.NIC.mu":   2,
	},
	"threads": {
		"threads.Scheduler.runMu":  0,
		"threads.Scheduler.mu":     1,
		"threads.runqueue.mu":      2,
		"threads.Scheduler.idleMu": 2,
		"threads.Scheduler.genMu":  3,
	},
	"lockorder": {
		"lockorder.Registry.mu": 1,
		"lockorder.Segment.mu":  2,
		"lockorder.Grant.mu":    3,
	},
}

// rankOf resolves a lock class to its (group, rank).
func rankOf(class string) (string, int, bool) {
	for group, ranks := range lockRanks {
		if r, ok := ranks[class]; ok {
			return group, r, true
		}
	}
	return "", 0, false
}

// lockOp is one acquisition or release in source order.
type lockOp struct {
	class    string
	read     bool // RLock/RUnlock
	acquire  bool
	deferred bool
	pos      token.Pos
}

type lockOrder struct {
	pass *Pass
	// summaries maps each same-package function to the set of lock
	// classes it (transitively) may acquire.
	summaries map[types.Object]map[string]bool
	bodies    map[types.Object]*ast.FuncDecl
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrder{
		pass:      pass,
		summaries: make(map[types.Object]map[string]bool),
		bodies:    make(map[types.Object]*ast.FuncDecl),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					lo.bodies[obj] = fn
				}
			}
		}
	}
	// Fixpoint over transitive acquire sets.
	for obj, fn := range lo.bodies {
		lo.summaries[obj] = lo.directAcquires(fn)
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range lo.bodies {
			sum := lo.summaries[obj]
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := lo.calleeObject(call); callee != nil {
					for class := range lo.summaries[callee] {
						if !sum[class] {
							sum[class] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	for _, fn := range lo.bodies {
		held := &heldSet{}
		lo.checkBlock(fn.Body.List, held)
	}
	return nil
}

// directAcquires collects the lock classes fn acquires directly.
func (lo *lockOrder) directAcquires(fn *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := lo.lockOpOf(call); ok && op.acquire {
				out[op.class] = true
			}
		}
		return true
	})
	return out
}

// calleeObject resolves a call to a same-package function or method.
func (lo *lockOrder) calleeObject(call *ast.CallExpr) types.Object {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := lo.pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() != lo.pass.Pkg {
		return nil
	}
	if _, ok := lo.bodies[obj]; !ok {
		return nil
	}
	return obj
}

// lockOpOf classifies a call as a mutex acquire/release on a named
// struct-field lock and returns its class.
func (lo *lockOrder) lockOpOf(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return lockOp{}, false
	}
	recv, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fsel := lo.pass.TypesInfo.Selections[recv]
	if fsel == nil || fsel.Kind() != types.FieldVal {
		return lockOp{}, false
	}
	field, ok := fsel.Obj().(*types.Var)
	if !ok || !isMutexType(field.Type()) {
		return lockOp{}, false
	}
	owner := namedTypeName(fsel.Recv())
	if owner == "" {
		return lockOp{}, false
	}
	pkgName := ""
	if field.Pkg() != nil {
		pkgName = field.Pkg().Name()
	}
	return lockOp{
		class:   fmt.Sprintf("%s.%s.%s", pkgName, owner, field.Name()),
		read:    read,
		acquire: acquire,
		pos:     call.Pos(),
	}, true
}

func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// heldSet is the ordered multiset of locks held at a program point.
type heldSet struct {
	locks []lockOp
}

func (h *heldSet) clone() *heldSet {
	return &heldSet{locks: append([]lockOp(nil), h.locks...)}
}

func (h *heldSet) push(op lockOp) { h.locks = append(h.locks, op) }

func (h *heldSet) release(class string) {
	for i := len(h.locks) - 1; i >= 0; i-- {
		if h.locks[i].class == class && !h.locks[i].deferred {
			h.locks = append(h.locks[:i], h.locks[i+1:]...)
			return
		}
	}
}

// checkAcquire validates acquiring op while holding h.
func (lo *lockOrder) checkAcquire(op lockOp, h *heldSet) {
	for _, held := range h.locks {
		if held.class == op.class {
			if !held.read || !op.read {
				lo.pass.Reportf(op.pos, "acquiring %s while an exclusive hold of %s is outstanding (self-deadlock)", op.class, held.class)
			}
			continue
		}
		hg, hr, hok := rankOf(held.class)
		og, or, ook := rankOf(op.class)
		if hok && ook && hg == og && hr >= or {
			lo.pass.Reportf(op.pos, "lock order inversion: acquiring %s (rank %d) while holding %s (rank %d); the documented order is the other way around", op.class, or, held.class, hr)
		}
	}
}

// checkCall applies a same-package callee's acquire summary against the
// current held set.
func (lo *lockOrder) checkCall(call *ast.CallExpr, h *heldSet) {
	callee := lo.calleeObject(call)
	if callee == nil || len(h.locks) == 0 {
		return
	}
	for class := range lo.summaries[callee] {
		lo.checkAcquire(lockOp{class: class, pos: call.Pos()}, h)
	}
}

// checkExpr scans an expression for lock operations and calls, updating
// the held set in evaluation order.
func (lo *lockOrder) checkExpr(n ast.Node, h *heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			// A function literal's body runs at call time, not here;
			// analyze it against an empty held set.
			lo.checkBlock(fl.Body.List, &heldSet{})
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := lo.lockOpOf(call); ok {
			if op.acquire {
				lo.checkAcquire(op, h)
				h.push(op)
			} else {
				h.release(op.class)
			}
			return false
		}
		lo.checkCall(call, h)
		return true
	})
}

// terminates reports whether a statement list certainly transfers
// control out (return or panic as its last statement).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (lo *lockOrder) checkBlock(stmts []ast.Stmt, h *heldSet) {
	for _, s := range stmts {
		lo.checkStmt(s, h)
	}
}

func (lo *lockOrder) checkStmt(s ast.Stmt, h *heldSet) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.DeferStmt:
		if op, ok := lo.lockOpOf(s.Call); ok {
			if !op.acquire {
				// defer x.Unlock(): the lock stays held to function
				// end; mark it so release() skips it.
				for i := len(h.locks) - 1; i >= 0; i-- {
					if h.locks[i].class == op.class {
						h.locks[i].deferred = true
						break
					}
				}
				return
			}
			lo.checkAcquire(op, h)
			return
		}
		lo.checkExpr(s.Call, h)
	case *ast.BlockStmt:
		lo.checkBlock(s.List, h)
	case *ast.IfStmt:
		lo.checkStmt(s.Init, h)
		lo.checkExpr(s.Cond, h)
		thenH := h.clone()
		lo.checkBlock(s.Body.List, thenH)
		if s.Else != nil {
			elseH := h.clone()
			lo.checkStmt(s.Else, elseH)
			switch {
			case terminates(s.Body.List):
				h.locks = elseH.locks
			default:
				h.locks = thenH.locks
			}
			return
		}
		if !terminates(s.Body.List) {
			h.locks = thenH.locks
		}
	case *ast.ForStmt:
		lo.checkStmt(s.Init, h)
		lo.checkExpr(s.Cond, h)
		bodyH := h.clone()
		lo.checkBlock(s.Body.List, bodyH)
		lo.checkStmt(s.Post, bodyH)
	case *ast.RangeStmt:
		lo.checkExpr(s.X, h)
		bodyH := h.clone()
		lo.checkBlock(s.Body.List, bodyH)
	case *ast.SwitchStmt:
		lo.checkStmt(s.Init, h)
		lo.checkExpr(s.Tag, h)
		for _, c := range s.Body.List {
			lo.checkBlock(c.(*ast.CaseClause).Body, h.clone())
		}
	case *ast.TypeSwitchStmt:
		lo.checkStmt(s.Init, h)
		for _, c := range s.Body.List {
			lo.checkBlock(c.(*ast.CaseClause).Body, h.clone())
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			lo.checkBlock(c.(*ast.CommClause).Body, h.clone())
		}
	case *ast.LabeledStmt:
		lo.checkStmt(s.Stmt, h)
	case *ast.GoStmt:
		// The goroutine starts with no locks held.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lo.checkBlock(fl.Body.List, &heldSet{})
		} else {
			lo.checkExpr(s.Call, &heldSet{})
		}
	default:
		lo.checkExpr(s, h)
	}
}
