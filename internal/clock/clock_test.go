package clock

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"paramecium/internal/probe"
)

func TestClockStartsAtZero(t *testing.T) {
	c := &Clock{}
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %d, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	c := &Clock{}
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

func TestStopwatch(t *testing.T) {
	c := &Clock{}
	c.Advance(10)
	w := c.StartWatch()
	c.Advance(32)
	if got := w.Elapsed(); got != 32 {
		t.Fatalf("Elapsed = %d, want 32", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := &Clock{}
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
	m.ChargeNFor(KernelDomain, OpCopyWord, 9)
	m.Clock.Advance(13)
	before := m.Clock.Now()
	m.ResetCounts()
	if got := m.Count(OpSchedule); got != 0 {
		t.Fatalf("count after reset = %d", got)
	}
	if snap := m.Snapshot(); snap != [NumOps]uint64{} {
		t.Fatalf("snapshot after reset = %v, want all zero", snap)
	}
	if got := m.Clock.Now(); got != before {
		t.Fatalf("ResetCounts moved the clock: %d != %d", got, before)
	}
	// Counting resumes from the reset, and the clock keeps pricing the
	// charges made before it.
	m.ChargeFor(KernelDomain, OpSchedule)
	if got := m.Count(OpSchedule); got != 1 {
		t.Fatalf("count after reset and one charge = %d, want 1", got)
	}
	if got, want := m.Clock.Now(), before+m.Model.Cost(OpSchedule); got != want {
		t.Fatalf("clock after reset and one charge = %d, want %d", got, want)
	}
}

// TestDerivedClockConcurrentMix: the derived clock equals the sum of
// every charge and advance made through it, whatever the interleaving,
// and a reader racing the writers never sees it go backwards.
func TestDerivedClockConcurrentMix(t *testing.T) {
	m := NewMeter(DefaultCosts())
	const workers, perWorker = 4, 3000
	sums := make([]uint64, workers)
	stop := make(chan struct{})
	readerErr := make(chan string, 1)
	go func() {
		defer close(readerErr)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := m.Clock.Now()
			if now < last {
				readerErr <- fmt.Sprintf("Now went backwards: %d after %d", now, last)
				return
			}
			last = now
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRand(uint64(w) + 1)
			var sum uint64
			for i := 0; i < perWorker; i++ {
				switch r.Intn(2) {
				case 0:
					op, n := Op(r.Intn(NumOps)), uint64(r.Intn(5))
					m.ChargeNFor(uint32(w), op, n)
					sum += n * m.Model.Cost(op)
				default:
					n := uint64(r.Intn(100))
					m.Clock.Advance(n)
					sum += n
				}
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	close(stop)
	if msg, ok := <-readerErr; ok {
		t.Fatal(msg)
	}
	var want uint64
	for _, s := range sums {
		want += s
	}
	if got := m.Clock.Now(); got != want {
		t.Fatalf("Now() = %d, want the running sum %d", got, want)
	}
}

// TestLedgerMatchesClock: with tracing on, every charge lands in the
// ledger as well as the clock, so the ledger's total equals the clock
// and its per-op counts equal the meter's. The
// ledger keeps its own counts, so a charge that skipped it would show
// here as drift.
func TestLedgerMatchesClock(t *testing.T) {
	m := NewMeter(DefaultCosts())
	led := probe.NewLedger(LedgerSlots)
	m.EnableTracing(nil, led)
	defer m.DisableTracing()
	r := NewRand(3)
	for i := 0; i < 2000; i++ {
		m.ChargeNFor(uint32(r.Intn(4)), Op(r.Intn(NumOps)), uint64(r.Intn(4)))
	}
	if got, want := led.Total(), m.Clock.Now(); got != want {
		t.Fatalf("ledger total %d != clock %d", got, want)
	}
	var counts [NumOps]uint64
	for _, row := range led.Snapshot() {
		for op := range counts {
			counts[op] += row.Counts[op]
		}
	}
	if snap := m.Snapshot(); counts != snap {
		t.Fatalf("ledger counts %v != meter counts %v", counts, snap)
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
