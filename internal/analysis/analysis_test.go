package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// The loader is shared across tests: the expensive part is source-
// importing the standard library, which memoizes in one loader.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testLoader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return testLoader
}

func golden(t *testing.T, a *Analyzer) {
	t.Helper()
	RunGolden(t, sharedLoader(t), filepath.Join("testdata", "src", a.Name), a)
}

func TestChargePathGolden(t *testing.T)   { golden(t, ChargePath) }
func TestLockOrderGolden(t *testing.T)    { golden(t, LockOrder) }
func TestHotpathAllocGolden(t *testing.T) { golden(t, HotpathAlloc) }
func TestAtomicMixGolden(t *testing.T)    { golden(t, AtomicMix) }
func TestCPUStateGolden(t *testing.T)     { golden(t, CPUState) }
func TestProbeSafeGolden(t *testing.T)    { golden(t, ProbeSafe) }
func TestThreadFreeGolden(t *testing.T)   { golden(t, ThreadFree) }

// TestRealTreeClean is the smoke gate behind CI's paralint job: every
// analyzer over every module package must produce zero findings.
func TestRealTreeClean(t *testing.T) {
	loader := sharedLoader(t)
	paths, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("expanding ./...: %v", err)
	}
	if len(paths) < 10 {
		t.Fatalf("expected the module tree, got %d packages: %v", len(paths), paths)
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, a := range All() {
			diags, err := Run(a, pkg)
			if err != nil {
				t.Fatalf("running %s on %s: %v", a.Name, path, err)
			}
			for _, d := range diags {
				t.Errorf("real tree is not clean: %s", d)
			}
		}
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("chargepath, lockorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != ChargePath || got[1] != LockOrder {
		t.Fatalf("ByName resolved %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
