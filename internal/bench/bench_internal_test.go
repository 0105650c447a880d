package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tbl Table, row, col int) float64 {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%v", tbl.ID, row, col, tbl.Rows)
	}
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

// findRow returns the first row whose first column contains substr.
func findRow(t *testing.T, tbl Table, substr string) []string {
	t.Helper()
	for _, r := range tbl.Rows {
		if strings.Contains(r[0], substr) {
			return r
		}
	}
	t.Fatalf("%s: no row containing %q", tbl.ID, substr)
	return nil
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%q not numeric", s)
	}
	return v
}

func TestT1InvocationShape(t *testing.T) {
	tbl := t1Invocation()
	direct := num(t, findRow(t, tbl, "direct")[1])
	iface := num(t, findRow(t, tbl, "interface")[1])
	deleg := num(t, findRow(t, tbl, "delegated")[1])
	d4 := num(t, findRow(t, tbl, "depth 4")[1])
	if !(direct < iface && iface <= deleg && deleg <= d4) {
		t.Fatalf("ordering violated: %v", tbl.Rows)
	}
	// The paper's claim: overhead is low — single-digit multiples of a
	// call, not orders of magnitude.
	if iface > 20*direct {
		t.Fatalf("interface call %vx direct — not 'relatively low'", iface/direct)
	}
}

func TestT2CrossDomainShape(t *testing.T) {
	tbl := t2CrossDomain()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		local := cell(t, tbl, i, 1)
		prox := cell(t, tbl, i, 2)
		mono := cell(t, tbl, i, 3)
		if !(local < mono && mono < prox) {
			t.Fatalf("row %d ordering: local=%v mono=%v proxy=%v", i, local, mono, prox)
		}
	}
	// Costs grow with argument size.
	if !(cell(t, tbl, 3, 2) > cell(t, tbl, 0, 2)) {
		t.Fatal("proxy cost does not grow with args")
	}
}

func TestT3InterruptShape(t *testing.T) {
	tbl := t3Interrupt()
	raw := cell(t, tbl, 0, 2)
	protoInline := cell(t, tbl, 1, 2)
	protoBlocked := cell(t, tbl, 2, 2)
	eager := cell(t, tbl, 3, 2)
	if !(raw < protoInline && protoInline < eager) {
		t.Fatalf("raw=%v protoInline=%v eager=%v", raw, protoInline, eager)
	}
	if protoBlocked <= protoInline {
		t.Fatal("promotion not visible")
	}
}

func TestT4CertificationShape(t *testing.T) {
	tbl := t4Certification()
	// Cold validation grows with image size; cached is much cheaper
	// than cold for large images.
	var colds, warms []float64
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r[0], "validate (cold)") {
			colds = append(colds, num(t, r[2]))
		}
		if strings.HasPrefix(r[0], "validate (cached)") {
			warms = append(warms, num(t, r[2]))
		}
	}
	if len(colds) != 5 || len(warms) != 5 {
		t.Fatalf("rows missing: %d cold, %d warm", len(colds), len(warms))
	}
	for i := 1; i < len(colds); i++ {
		if colds[i] < colds[i-1] {
			t.Fatal("cold validation does not grow with size")
		}
	}
	if warms[4] >= colds[4] {
		t.Fatal("cache ineffective")
	}
	// Chain registration grows with depth.
	var chains []float64
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r[0], "register delegation") {
			chains = append(chains, num(t, r[2]))
		}
	}
	if len(chains) != 4 || chains[3] <= chains[0] {
		t.Fatalf("chain costs = %v", chains)
	}
}

func TestT5FilterPlacementShape(t *testing.T) {
	tbl := t5FilterPlacement()
	certified := num(t, findRow(t, tbl, "kernel-certified")[1])
	sandboxed := num(t, findRow(t, tbl, "kernel-sandboxed")[1])
	user := num(t, findRow(t, tbl, "user")[1])
	mono := num(t, findRow(t, tbl, "monolith")[1])
	if !(certified < sandboxed && sandboxed < user) {
		t.Fatalf("certified=%v sandboxed=%v user=%v", certified, sandboxed, user)
	}
	if mono >= sandboxed {
		t.Fatalf("monolith fixed path (%v) should undercut sandboxed (%v)", mono, sandboxed)
	}
}

func TestT6ReconfigurationShape(t *testing.T) {
	tbl := t6Reconfiguration()
	cold := num(t, findRow(t, tbl, "cold")[1])
	bind := num(t, findRow(t, tbl, "bind")[1])
	if cold <= bind {
		t.Fatal("cold load should dwarf a bind")
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestF1ThroughputShape(t *testing.T) {
	tbl := f1Throughput()
	last := tbl.Rows[len(tbl.Rows)-1]
	cert := num(t, last[1])
	sfi := num(t, last[2])
	user := num(t, last[3])
	if !(cert > sfi && sfi > user) {
		t.Fatalf("saturation ordering: cert=%v sfi=%v user=%v", cert, sfi, user)
	}
	// At low offered load all placements keep up.
	first := tbl.Rows[0]
	if num(t, first[1]) != num(t, first[2]) || num(t, first[2]) != num(t, first[3]) {
		t.Fatalf("low-load row should be un-saturated: %v", first)
	}
}

func TestF2BreakEvenShape(t *testing.T) {
	tbl := f2BreakEven()
	var evens []float64
	for _, r := range tbl.Rows {
		if r[4] == "never" {
			t.Fatalf("sandboxing never worse? row %v", r)
		}
		evens = append(evens, num(t, r[4]))
	}
	// More filter work per packet -> bigger per-packet saving ->
	// earlier break-even.
	if evens[len(evens)-1] >= evens[0] {
		t.Fatalf("break-even did not fall with work: %v", evens)
	}
}

func TestF3BlockingFractionShape(t *testing.T) {
	tbl := f3BlockingFraction()
	// At 0% blocking proto clearly beats eager.
	p0, e0 := cell(t, tbl, 0, 1), cell(t, tbl, 0, 2)
	if p0 >= e0 {
		t.Fatalf("0%% blocking: proto=%v eager=%v", p0, e0)
	}
	// Proto cost rises with blocking fraction.
	pLast := cell(t, tbl, len(tbl.Rows)-1, 1)
	if pLast <= p0 {
		t.Fatal("proto cost flat despite blocking")
	}
}

func TestF4NamespaceShape(t *testing.T) {
	tbl := f4Namespace()
	d1 := num(t, findRow(t, tbl, "depth 1, direct")[1])
	d8 := num(t, findRow(t, tbl, "depth 8, direct")[1])
	ov := num(t, findRow(t, tbl, "override hit")[1])
	if d8 <= d1 {
		t.Fatal("lookup cost flat with depth")
	}
	if ov >= d8 {
		t.Fatal("override hit not cheaper than deep lookup")
	}
}

func TestF5TrapCostSweepShape(t *testing.T) {
	tbl := f5TrapCostSweep()
	if len(tbl.Rows) != 4*3*2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Higher trap cost -> higher call cost (same switch, same tlb).
	var lowTrap, highTrap float64
	for _, r := range tbl.Rows {
		if r[1] == "200" && r[2] == "asid" {
			if r[0] == "60" {
				lowTrap = num(t, r[3])
			}
			if r[0] == "600" {
				highTrap = num(t, r[3])
			}
		}
	}
	if highTrap <= lowTrap {
		t.Fatalf("trap sweep flat: %v vs %v", lowTrap, highTrap)
	}
	// Flush-on-switch costs more than ASID for the same row.
	var asid, flush float64
	for _, r := range tbl.Rows {
		if r[0] == "120" && r[1] == "200" {
			if r[2] == "asid" {
				asid = num(t, r[3])
			} else {
				flush = num(t, r[3])
			}
		}
	}
	if flush <= asid {
		t.Fatalf("flush (%v) not costlier than asid (%v)", flush, asid)
	}
}

// TestP6ShareBeatsCopyByFourXAtPageSize pins the PR's acceptance
// claim: at a 4 KiB payload the shared-segment path beats the
// copy-through-batch path by at least 4x cycles per transfer, with the
// attach (map) and revoke (shootdown path) charges included in the
// share measurement.
func TestP6ShareBeatsCopyByFourXAtPageSize(t *testing.T) {
	tbl := p6BulkTransfer()
	row := findRow(t, tbl, "4096")
	copyCost, shareCost := num(t, row[1]), num(t, row[2])
	if copyCost < 4*shareCost {
		t.Fatalf("share advantage %.2fx at 4 KiB, want >= 4x (copy %.1f vs share %.1f cycles/op)",
			copyCost/shareCost, copyCost, shareCost)
	}
}

// TestP6ShapeIsFlatVsLinear: share cost is flat in payload size while
// copy cost grows with it — the structural signature of zero-copy.
func TestP6ShapeIsFlatVsLinear(t *testing.T) {
	tbl := p6BulkTransfer()
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	small, large := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if num(t, large[1]) < 10*num(t, small[1]) {
		t.Fatalf("copy cost not growing with payload: %v -> %v", small[1], large[1])
	}
	if num(t, large[2]) > 2*num(t, small[2]) {
		t.Fatalf("share cost not flat: %v -> %v", small[2], large[2])
	}
}

// TestRenderAndAll renders a table, then every experiment in the
// list: each renders non-empty under its own id.
func TestRenderAndAll(t *testing.T) {
	tbl := Table{ID: "X", Title: "t", Header: []string{"a", "b"}}
	tbl.AddRow("x", 1)
	tbl.AddRow("longer", 2.5)
	out := tbl.Render()
	if !strings.Contains(out, "== X: t ==") || !strings.Contains(out, "longer") {
		t.Fatalf("render:\n%s", out)
	}
	for _, e := range Experiments {
		tb := e.Run()
		if tb.ID != e.ID || len(tb.Rows) == 0 || tb.Render() == "" {
			t.Fatalf("experiment %s: table %q with %d rows", e.ID, tb.ID, len(tb.Rows))
		}
	}
}

// TestScenarioRegistry: scenario names are unique, and every row of
// the committed bench baseline names a registered scenario, so no
// gated row can be built outside the registry.
func TestScenarioRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Scenarios {
		if seen[s.Name] {
			t.Errorf("scenario %s registered twice", s.Name)
		}
		seen[s.Name] = true
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "ci", "bench_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Benchmarks map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	if len(baseline.Benchmarks) == 0 {
		t.Fatal("baseline lists no rows")
	}
	for row := range baseline.Benchmarks {
		if name := strings.TrimPrefix(row, "Benchmark"); !seen[name] {
			t.Errorf("baseline row %s names no registered scenario", row)
		}
	}
}
