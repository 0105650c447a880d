package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExport names the check in //paralint:ignore directives. It is not
// one of All(): an Analyzer sees one package, and reachability needs
// every package's references at once.
var deadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported identifiers under internal/ that no non-test code reaches",
}

// deadExports reports every exported func, method, type, var and const
// declared under the module's internal/ tree that no non-test code
// reaches. The code searched is every package of ./... plus the package
// in each extra directory, relative to the module root: a module that
// imports this one, as _perfbench does. An identifier is reached when:
//
//   - any of that code refers to it, in its own package or another;
//   - it is a method, and a type whose method set holds it implements
//     an interface that code uses: fmt.Stringer, error, sort.Interface
//     or one the module declares;
//   - it is an exported method of a type reachable from an exported name
//     of the public packages (the module root and api), through
//     aliases, signatures and exported or embedded fields: an embedder
//     outside the module can call it.
//
// A finding is kept deliberately with //paralint:ignore deadexport
// <reason> on its line or the line above. A directive with no reason
// keeps nothing and is itself reported, and so is one that no longer
// keeps anything.
func deadExports(l *Loader, extra ...string) ([]Diagnostic, error) {
	paths, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	for _, dir := range extra {
		pkg, err := l.loadAt(filepath.Join(l.ModuleDir, dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}

	reached := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			reached[origin(obj)] = true
		}
	}
	markInterfaceMethods(pkgs, reached)
	for _, pkg := range pkgs {
		if pkg.Path == l.ModulePath || pkg.Path == l.ModulePath+"/api" {
			markPublicMethods(l.ModulePath, pkg.Types, reached)
		}
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, l.ModulePath+"/internal/") {
			continue
		}
		pass := &Pass{Analyzer: deadExport, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
		pass.collectIgnores()
		for _, f := range pkg.Files {
			for _, id := range declaredNames(f) {
				obj := pkg.Info.Defs[id]
				if obj == nil || !id.IsExported() || reached[obj] || isAlwaysReached(obj) {
					continue
				}
				pass.Reportf(id.Pos(), "%s: no non-test reference", qualifiedName(obj))
			}
		}
		for file, lines := range pass.ignores {
			for line, e := range lines {
				if e.analyzer == deadExport.Name && e.reason != "" && !e.used {
					pass.diags = append(pass.diags, Diagnostic{
						Pos:      token.Position{Filename: file, Line: line},
						Analyzer: deadExport.Name,
						Message:  "directive keeps nothing: the identifier below it is reached or gone",
					})
				}
			}
		}
		diags = append(diags, pass.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, nil
}

// declaredNames returns the names of a file's package-level funcs,
// methods, types, vars and consts.
func declaredNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return out
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isAlwaysReached exempts String and Error methods, which fmt and error
// values reach through interfaces the code need not name.
func isAlwaysReached(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	return fn.Name() == "String" || fn.Name() == "Error"
}

// markInterfaceMethods marks every method through which a named type
// satisfies an interface the code uses: one it declares, names in an
// expression, or passes to a function whose signature names it.
func markInterfaceMethods(pkgs []*Package, reached map[types.Object]bool) {
	ifaces := make(map[*types.Interface]bool)
	named := make(map[*types.Named]bool)
	var note func(t types.Type, inSig bool)
	note = func(t types.Type, inSig bool) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces[it] = true
				}
			} else if t.TypeParams().Len() == 0 || t.TypeArgs().Len() > 0 {
				named[t] = true
			}
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces[t] = true
			}
		case *types.Pointer:
			note(t.Elem(), inSig)
		case *types.Signature:
			if inSig {
				return
			}
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					note(tup.At(i).Type(), true)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			note(tv.Type, false)
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				note(tn.Type(), false)
			}
		}
	}
	for t := range named {
		for it := range ifaces {
			var recv types.Type = t
			if !types.Implements(recv, it) {
				if recv = types.NewPointer(t); !types.Implements(recv, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(recv, false, t.Obj().Pkg(), it.Method(i).Name())
				if m != nil {
					reached[origin(m)] = true
				}
			}
		}
	}
}

// markPublicMethods marks every exported method of a module type
// reachable from an exported name of the public package pub.
func markPublicMethods(modulePath string, pub *types.Package, reached map[types.Object]bool) {
	seen := make(map[types.Type]bool)
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			p := t.Obj().Pkg()
			if p == nil || (p.Path() != modulePath && !strings.HasPrefix(p.Path(), modulePath+"/")) {
				return
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					reached[m.Origin()] = true
					visit(m.Type())
				}
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				visit(t.Method(i).Type())
			}
		}
	}
	scope := pub.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			visit(obj.Type())
		}
	}
}

// qualifiedName prints pkg.Name or pkg.(*T).Name for a finding.
func qualifiedName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	star := ""
	if p, ok := recv.(*types.Pointer); ok {
		star, recv = "*", p.Elem()
	}
	base := recv.(*types.Named).Obj().Name()
	if star != "" {
		return fmt.Sprintf("%s.(*%s).%s", obj.Pkg().Name(), base, obj.Name())
	}
	return fmt.Sprintf("%s.%s.%s", obj.Pkg().Name(), base, obj.Name())
}

// TestDeadExports fails on every exported internal/ identifier that no
// non-test code of the module or of _perfbench reaches. Delete such an
// identifier with the tests that only exercise it, or unexport it when
// a test of its own package needs it.
func TestDeadExports(t *testing.T) {
	diags, err := deadExports(sharedLoader(t), "_perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestDeadExportsFixture runs the check on testdata/deadexport, one case
// per rule. Its _bench directory stands in for _perfbench, and
// inner_test.go refers to OnlyTested, which still counts as unreached.
func TestDeadExportsFixture(t *testing.T) {
	l, err := NewLoader(filepath.Join("testdata", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := deadExports(l, "_bench")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
	}
	want := []string{
		"inner.go:4: inner.Unreferenced: no non-test reference",
		"inner.go:7: inner.OnlyTested: no non-test reference",
		"inner.go:40: malformed //paralint:ignore directive: want analyzer name and reason",
		"inner.go:41: inner.Bare: no non-test reference",
		"inner.go:45: directive keeps nothing: the identifier below it is reached or gone",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
