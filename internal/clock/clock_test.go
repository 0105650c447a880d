package clock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %d, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	if got := c.Advance(5); got != 5 {
		t.Fatalf("Advance(5) = %d, want 5", got)
	}
	if got := c.Advance(7); got != 12 {
		t.Fatalf("second Advance = %d, want 12", got)
	}
	if got := c.Now(); got != 12 {
		t.Fatalf("Now() = %d, want 12", got)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(100)
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() after Reset = %d, want 0", got)
	}
}

func TestStopwatch(t *testing.T) {
	c := New()
	c.Advance(10)
	w := c.StartWatch()
	c.Advance(32)
	if got := w.Elapsed(); got != 32 {
		t.Fatalf("Elapsed = %d, want 32", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*perWorker {
		t.Fatalf("Now() = %d, want %d", got, workers*perWorker)
	}
}

func TestOpString(t *testing.T) {
	if got := OpTrapEnter.String(); got != "trap-enter" {
		t.Errorf("OpTrapEnter = %q", got)
	}
	if got := Op(-1).String(); got != "op(-1)" {
		t.Errorf("Op(-1) = %q", got)
	}
	if got := Op(999).String(); got != "op(999)" {
		t.Errorf("Op(999) = %q", got)
	}
	// Every defined op must have a non-empty name.
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
}

func TestDefaultCostsNonZeroForPrivilegedOps(t *testing.T) {
	m := DefaultCosts()
	for _, op := range []Op{OpTrapEnter, OpTrapExit, OpCtxSwitch, OpTLBMiss, OpSigVerify, OpThreadCreate} {
		if m.Cost(op) == 0 {
			t.Errorf("default cost of %v is zero", op)
		}
	}
	// The paper's efficiency argument requires traps to dominate calls.
	if m.Cost(OpTrapEnter) <= m.Cost(OpCall) {
		t.Errorf("trap cost %d should exceed call cost %d", m.Cost(OpTrapEnter), m.Cost(OpCall))
	}
	// And proto-threads to be much cheaper than full threads.
	if m.Cost(OpProtoThread)*4 > m.Cost(OpThreadCreate) {
		t.Errorf("proto-thread cost %d not clearly below thread-create %d",
			m.Cost(OpProtoThread), m.Cost(OpThreadCreate))
	}
}

func TestWithCost(t *testing.T) {
	base := DefaultCosts()
	mod := base.WithCost(OpTrapEnter, 999)
	if got := mod.Cost(OpTrapEnter); got != 999 {
		t.Fatalf("modified cost = %d, want 999", got)
	}
	if got := base.Cost(OpTrapEnter); got == 999 {
		t.Fatal("WithCost mutated the receiver")
	}
	// Out-of-range op is a no-op, not a panic.
	_ = base.WithCost(Op(-1), 1)
	_ = base.WithCost(Op(NumOps), 1)
}

func TestCostOutOfRange(t *testing.T) {
	m := DefaultCosts()
	if got := m.Cost(Op(-3)); got != 0 {
		t.Errorf("Cost(-3) = %d, want 0", got)
	}
	if got := m.Cost(Op(NumOps + 1)); got != 0 {
		t.Errorf("Cost(out of range) = %d, want 0", got)
	}
}

func TestMeterChargeAdvancesAndCounts(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.ChargeFor(KernelDomain, OpTrapEnter)
	m.ChargeFor(KernelDomain, OpTrapEnter)
	m.ChargeFor(KernelDomain, OpCall)
	wantCycles := 2*m.Model.Cost(OpTrapEnter) + m.Model.Cost(OpCall)
	if got := m.Clock.Now(); got != wantCycles {
		t.Fatalf("clock = %d, want %d", got, wantCycles)
	}
	if got := m.Count(OpTrapEnter); got != 2 {
		t.Fatalf("Count(OpTrapEnter) = %d, want 2", got)
	}
	if got := m.Count(OpCall); got != 1 {
		t.Fatalf("Count(OpCall) = %d, want 1", got)
	}
	if got := m.Count(OpTLBMiss); got != 0 {
		t.Fatalf("Count(OpTLBMiss) = %d, want 0", got)
	}
}

func TestMeterChargeN(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.ChargeNFor(KernelDomain, OpCopyWord, 128)
	if got := m.Count(OpCopyWord); got != 128 {
		t.Fatalf("Count = %d, want 128", got)
	}
	if got := m.Clock.Now(); got != 128*m.Model.Cost(OpCopyWord) {
		t.Fatalf("clock = %d", got)
	}
	m.ChargeNFor(KernelDomain, OpCopyWord, 0) // must be a no-op
	if got := m.Count(OpCopyWord); got != 128 {
		t.Fatalf("ChargeNFor(0) changed count to %d", got)
	}
}

func TestMeterResetCounts(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.ChargeFor(KernelDomain, OpSchedule)
	before := m.Clock.Now()
	m.ResetCounts()
	if got := m.Count(OpSchedule); got != 0 {
		t.Fatalf("count after reset = %d", got)
	}
	if got := m.Clock.Now(); got != before {
		t.Fatalf("ResetCounts moved the clock: %d != %d", got, before)
	}
}

func TestMeterSnapshot(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.ChargeNFor(KernelDomain, OpTLBMiss, 3)
	m.ChargeFor(KernelDomain, OpTrapExit)
	snap := m.Snapshot()
	if snap[OpTLBMiss] != 3 || snap[OpTrapExit] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestMeterChargeOutOfRangeOp(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.ChargeFor(KernelDomain, Op(-1)) // must not panic
	m.ChargeFor(KernelDomain, Op(NumOps))
	if got := m.Clock.Now(); got != 0 {
		t.Fatalf("out-of-range charge advanced clock to %d", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of range", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRandBytesCoversTail(t *testing.T) {
	r := NewRand(5)
	b := make([]byte, 13) // not a multiple of 8
	r.Bytes(b)
	allZero := true
	for _, v := range b {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("Bytes left buffer all zero")
	}
}

// Property: the clock equals the sum of (count × cost) over all ops when
// only ChargeFor is used.
func TestMeterAccountingInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewMeter(DefaultCosts())
		for _, o := range ops {
			m.ChargeFor(KernelDomain, Op(int(o)%NumOps))
		}
		var want uint64
		snap := m.Snapshot()
		for op, n := range snap {
			want += uint64(n) * m.Model.Cost(Op(op))
		}
		return m.Clock.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Perm always returns a valid permutation for any small n.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		p := NewRand(seed).Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
