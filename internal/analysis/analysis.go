// Package analysis is paralint: a family of repo-specific static
// analyzers that enforce the kernel's cost-model, locking and hot-path
// invariants at compile time — the static complement to the dynamic
// gates (-race, benchgate -allocgate).
//
// The framework mirrors the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) but is reimplemented on the standard
// library's go/ast + go/types only: this module is dependency-free by
// design, so the analyzers must be too.
//
// # Suppression
//
// A finding can be deliberately suppressed with a directive on the
// flagged line or the line above it:
//
//	//paralint:ignore <analyzer> <reason>
//
// The reason is mandatory: a bare directive is itself reported. The
// driver treats suppressions as documentation of a reviewed deviation,
// never as a fix — true findings must be fixed, not ignored.
//
// # Hot-path annotation
//
// Functions on the invocation or data fast path are annotated in their
// doc comment with:
//
//	//paramecium:hotpath
//
// and are then held to hotpathalloc's no-allocation rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects a Pass and reports
// findings through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned and attributed to the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	ignores map[string]map[int]ignoreEntry // file -> line -> directive
}

// ignoreEntry is one parsed //paralint:ignore directive.
type ignoreEntry struct {
	analyzer string
	reason   string
	used     bool
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//paralint:ignore"

// HotpathDirective marks a function as allocation-free fast path.
const HotpathDirective = "//paramecium:hotpath"

// Reportf records a finding at pos unless a suppression directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether an ignore directive for this analyzer sits
// on the finding's line or the line above it, and marks it used.
func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.ignores[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if e, ok := lines[line]; ok && e.analyzer == p.Analyzer.Name && e.reason != "" {
			e.used = true
			lines[line] = e
			return true
		}
	}
	return false
}

// collectIgnores parses every //paralint:ignore directive in the pass's
// files, reporting malformed ones (missing analyzer or reason) as
// findings of the running analyzer's pass driver.
func (p *Pass) collectIgnores() {
	p.ignores = make(map[string]map[int]ignoreEntry)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnoreDirective)
				fields := strings.Fields(rest)
				pos := p.Fset.Position(c.Pos())
				if len(fields) < 2 {
					// Malformed: suppresses nothing, and the first
					// analyzer to visit the file says so.
					p.diags = append(p.diags, Diagnostic{
						Pos:      pos,
						Analyzer: p.Analyzer.Name,
						Message:  fmt.Sprintf("malformed %s directive: want analyzer name and reason", IgnoreDirective),
					})
					continue
				}
				m := p.ignores[pos.Filename]
				if m == nil {
					m = make(map[int]ignoreEntry)
					p.ignores[pos.Filename] = m
				}
				m[pos.Line] = ignoreEntry{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				}
			}
		}
	}
}

// Run executes one analyzer over one loaded package and returns its
// findings sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	pass.collectIgnores()
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sort.Slice(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i].Pos, pass.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return pass.diags, nil
}

// All returns every paralint analyzer in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{
		ChargePath,
		LockOrder,
		HotpathAlloc,
		AtomicMix,
		CPUState,
		ProbeSafe,
		ThreadFree,
	}
}

// ByName resolves a comma-separated analyzer list; an unknown name is
// an error.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// funcDoc returns the doc comment text of the function declaration
// enclosing pos, or the empty string.
func funcDoc(fn *ast.FuncDecl) string {
	if fn == nil || fn.Doc == nil {
		return ""
	}
	var b strings.Builder
	for _, c := range fn.Doc.List {
		b.WriteString(c.Text)
		b.WriteString("\n")
	}
	return b.String()
}

// isHotpath reports whether the function carries the hotpath directive.
func isHotpath(fn *ast.FuncDecl) bool {
	return strings.Contains(funcDoc(fn), HotpathDirective)
}
