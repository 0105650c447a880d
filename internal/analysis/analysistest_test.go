package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted regexps of one "// want" comment.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one "// want" entry: a line that must produce a
// finding matching re.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// runGolden runs one analyzer over the package in dir (a testdata
// package) and compares its findings against the package's "// want"
// comments, exactly like x/tools' analysistest: every finding must
// match a want expectation on its line, and every expectation must be
// matched by a finding. Lines carrying a //paralint:ignore directive
// therefore assert suppression simply by carrying no want comment.
func runGolden(t *testing.T, loader *Loader, dir string, a *Analyzer) {
	t.Helper()
	pkg, err := loader.loadAt(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := Run(a, pkg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(text[idx+len("want "):], -1) {
					pattern := q
					if q[0] == '"' {
						var err error
						pattern, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					} else {
						pattern = strings.Trim(q, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, q, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: pattern,
					})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.raw)
		}
	}
}
