package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedDirective checks that a //paralint:ignore directive
// without a reason suppresses nothing and is itself reported.
func TestMalformedDirective(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

type Meter struct{}

func (m *Meter) ChargeFor(payer uint32, op int) {}

func move(dst, src []byte) {
	//paralint:ignore chargepath
	copy(dst, src)
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := sharedLoader(t).loadAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(ChargePath, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want malformed-directive and unsuppressed-copy findings, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "malformed") {
		t.Errorf("first finding should flag the malformed directive, got %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "copy of payload bytes") {
		t.Errorf("second finding should flag the copy as unsuppressed, got %s", diags[1])
	}
}

// TestSuppressionRequiresMatchingAnalyzer checks that a directive for
// one analyzer does not silence another.
func TestSuppressionRequiresMatchingAnalyzer(t *testing.T) {
	dir := t.TempDir()
	src := `package cross

type Meter struct{}

func (m *Meter) ChargeFor(payer uint32, op int) {}

func move(dst, src []byte) {
	//paralint:ignore lockorder wrong analyzer named here
	copy(dst, src)
}
`
	if err := os.WriteFile(filepath.Join(dir, "cross.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := sharedLoader(t).loadAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(ChargePath, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "copy of payload bytes") {
		t.Fatalf("a lockorder directive must not silence chargepath, got %v", diags)
	}
}
