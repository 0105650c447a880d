package analysis

import "testing"

func TestGoldenCounts(t *testing.T) {
	for _, tc := range []struct {
		a    *Analyzer
		dir  string
		want int
	}{
		{ChargePath, "testdata/src/chargepath", 4},
		{LockOrder, "testdata/src/lockorder", 3},
		{HotpathAlloc, "testdata/src/hotpathalloc", 8},
		{AtomicMix, "testdata/src/atomicmix", 2},
		{CPUState, "testdata/src/cpustate", 3},
		{ProbeSafe, "testdata/src/probesafe", 8},
		{ThreadFree, "testdata/src/threadfree", 3},
	} {
		pkg, err := sharedLoader(t).loadAt(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(tc.a, pkg)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != tc.want {
			t.Errorf("%s: %d findings, want %d:", tc.a.Name, len(diags), tc.want)
			for _, d := range diags {
				t.Errorf("  %s", d)
			}
		}
	}
}
