package probe

import (
	"sync"
	"testing"
)

// TestGateCounts: the enable gate is a counter — it stays up until the
// last of several concurrent enablers disables, so traced systems in
// one process never turn each other's instrumentation off.
func TestGateCounts(t *testing.T) {
	if Enabled() {
		t.Fatal("gate up before any Enable")
	}
	Enable()
	Enable()
	if !Enabled() {
		t.Fatal("gate down after Enable")
	}
	Disable()
	if !Enabled() {
		t.Fatal("gate down while one enabler remains")
	}
	Disable()
	if Enabled() {
		t.Fatal("gate up after the last Disable")
	}
}

// TestKindNamesExhaustive: every Kind has a mnemonic and out-of-range
// kinds degrade to a placeholder instead of panicking.
func TestKindNamesExhaustive(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "" || k.String() == "kind(?)" {
			t.Fatalf("kind %d has no mnemonic", k)
		}
	}
	if got := Kind(200).String(); got != "kind(?)" {
		t.Fatalf("out-of-range kind = %q", got)
	}
}

// TestRecorderWrapAndDrop: a ring retains exactly its capacity of the
// most recent events, counts everything it overwrote, and the snapshot
// comes back in emission order.
func TestRecorderWrapAndDrop(t *testing.T) {
	r := NewRecorder(2, 8)
	if r.CPUs() != 2 || r.Capacity() != 8 {
		t.Fatalf("CPUs=%d Capacity=%d, want 2, 8", r.CPUs(), r.Capacity())
	}
	const n = 20
	for i := 0; i < n; i++ {
		r.Emit(0, uint64(100+i), KindDoorbell, 7, uint64(i), uint64(i))
	}
	if got := r.Emitted(0); got != n {
		t.Fatalf("Emitted(0) = %d, want %d", got, n)
	}
	if got := r.Dropped(0); got != n-8 {
		t.Fatalf("Dropped(0) = %d, want %d", got, n-8)
	}
	if got := r.Emitted(1); got != 0 {
		t.Fatalf("Emitted(1) = %d, want 0 (untouched ring)", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || len(snap[1]) != 0 {
		t.Fatalf("snapshot shape = %d rings, cpu1 %d events", len(snap), len(snap[1]))
	}
	evs := snap[0]
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, e := range evs {
		want := uint64(n - 8 + i)
		if e.Seq != want || e.A != want || e.Cycles != 100+want {
			t.Fatalf("event %d = %+v, want seq/A %d cycles %d", i, e, want, 100+want)
		}
		if e.Kind != KindDoorbell || e.Domain != 7 || e.CPU != 0 {
			t.Fatalf("event %d payload = %+v", i, e)
		}
	}
}

// TestRecorderEdgeCPUs: a nil recorder and out-of-range CPU ids are the
// boot-time and NoCPU-sentinel paths — the former is a no-op, the
// latter lands on ring 0.
func TestRecorderEdgeCPUs(t *testing.T) {
	var nilRec *Recorder
	nilRec.Emit(0, 1, KindTrap, 0, 0, 0) // must not panic
	if nilRec.Snapshot() != nil {
		t.Fatal("nil recorder snapshot not nil")
	}

	r := NewRecorder(0, 0) // clamps to 1 CPU, default capacity
	if r.CPUs() != 1 || r.Capacity() != DefaultRingCapacity {
		t.Fatalf("clamped recorder: CPUs=%d Capacity=%d", r.CPUs(), r.Capacity())
	}
	r.Emit(-1, 1, KindTrap, 1, 10, 0)
	r.Emit(99, 2, KindTrap, 1, 20, 0)
	if got := r.Emitted(0); got != 2 {
		t.Fatalf("out-of-range CPUs emitted %d events on ring 0, want 2", got)
	}
	if got := r.Emitted(-5); got != 0 {
		t.Fatalf("Emitted(-5) = %d", got)
	}
}

// TestRecorderSnapshotUnderFire: snapshots racing live emits never
// return a torn slot. Every emit stores A == B, so any snapshot event
// where they differ was stitched from two writes.
func TestRecorderSnapshotUnderFire(t *testing.T) {
	r := NewRecorder(2, 16) // small ring: constant lapping
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Emit(cpu, i, Kind(i%uint64(kindCount)), uint32(i), i, i)
			}
		}(cpu)
	}
	for round := 0; round < 200; round++ {
		for cpu, evs := range r.Snapshot() {
			for _, e := range evs {
				if e.A != e.B {
					t.Errorf("cpu %d: torn event %+v", cpu, e)
				}
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestLedgerAccounting: counts accumulate per cell and are priced by
// SetCosts, unpriced slots count without cycles, rows sort by domain,
// out-of-range ops are ignored, and the grand total is the sum of the
// rows.
func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(4)
	if l.Ops() != 4 {
		t.Fatalf("Ops = %d", l.Ops())
	}
	l.SetCosts([]uint64{7, 50, 0, 5}) // slot 2 stays unpriced
	l.Add(2, 1, 2)
	l.Add(2, 1, 1)
	l.Add(2, 3, 5)
	l.Add(2, 2, 4) // unpriced count: no cycles
	l.Add(0, 0, 1)
	l.Add(2, -1, 1) // out of range: dropped
	l.Add(2, 4, 1)  // out of range: dropped

	if got := l.DomainCycles(2); got != 175 {
		t.Fatalf("DomainCycles(2) = %d, want 175", got)
	}
	if got := l.DomainCycles(9); got != 0 {
		t.Fatalf("DomainCycles(9) = %d, want 0 (no row)", got)
	}
	if got := l.Total(); got != 182 {
		t.Fatalf("Total = %d, want 182", got)
	}

	rows := l.Snapshot()
	if len(rows) != 2 || rows[0].Domain != 0 || rows[1].Domain != 2 {
		t.Fatalf("snapshot rows = %+v, want domains [0 2]", rows)
	}
	d2 := rows[1]
	if d2.Cycles[1] != 150 || d2.Counts[1] != 3 || d2.Cycles[3] != 25 || d2.Counts[3] != 5 ||
		d2.Cycles[2] != 0 || d2.Counts[2] != 4 {
		t.Fatalf("domain 2 cells = cycles %v counts %v", d2.Cycles, d2.Counts)
	}
	if d2.Total != 175 || d2.Frozen {
		t.Fatalf("domain 2 row = %+v", d2)
	}
}

// TestLedgerFreeze: freezing keeps a destroyed domain's bill readable,
// and freezing a domain that never charged records an empty row.
func TestLedgerFreeze(t *testing.T) {
	l := NewLedger(2)
	l.SetCosts([]uint64{40})
	l.Add(5, 0, 1)
	l.Freeze(5)
	if !l.Frozen(5) {
		t.Fatal("row not frozen")
	}
	if got := l.DomainCycles(5); got != 40 {
		t.Fatalf("frozen row cycles = %d, want 40", got)
	}
	l.Freeze(6) // never charged: empty frozen row records existence
	if !l.Frozen(6) || l.DomainCycles(6) != 0 {
		t.Fatalf("empty frozen row: frozen=%v cycles=%d", l.Frozen(6), l.DomainCycles(6))
	}
	if l.Frozen(7) {
		t.Fatal("nonexistent row reports frozen")
	}

	var nilLedger *Ledger
	nilLedger.Add(0, 0, 1) // all nil-receiver paths are no-ops
	nilLedger.Freeze(0)
	if nilLedger.DomainCycles(0) != 0 || nilLedger.Snapshot() != nil {
		t.Fatal("nil ledger not inert")
	}
}

// TestLedgerConcurrentAdd: the lock-free charge path loses nothing
// under contention — the invariant behind ledger-total == meter-clock.
func TestLedgerConcurrentAdd(t *testing.T) {
	l := NewLedger(3)
	l.SetCosts([]uint64{3, 3, 3})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Add(uint32(w%4), i%3, 1)
			}
		}(w)
	}
	wg.Wait()
	if got, want := l.Total(), uint64(workers*perWorker*3); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	for d := uint32(0); d < 4; d++ {
		if got := l.DomainCycles(d); got != workers/4*perWorker*3 {
			t.Fatalf("domain %d = %d cycles", d, got)
		}
	}
}

// TestLedgerDomainsPastTheIndex: a domain id too large for the dense
// index, and ids that grow it several times, accumulate, freeze and
// snapshot like any other row.
func TestLedgerDomainsPastTheIndex(t *testing.T) {
	l := NewLedger(2)
	l.SetCosts([]uint64{0, 10})
	far := uint32(maxIndexedDomain + 7)
	for _, d := range []uint32{far, 1, 9, 100, far} {
		l.Add(d, 1, 1)
	}
	if got := l.DomainCycles(far); got != 20 {
		t.Fatalf("DomainCycles(far) = %d, want 20", got)
	}
	if got := l.DomainCycles(100); got != 10 {
		t.Fatalf("DomainCycles(100) = %d, want 10", got)
	}
	l.Freeze(far)
	if !l.Frozen(far) || l.Frozen(far+1) {
		t.Fatal("far row's frozen flag wrong")
	}
	snap := l.Snapshot()
	if len(snap) != 4 || snap[3].Domain != far || snap[3].Total != 20 || snap[3].Counts[1] != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := l.Total(); got != 50 {
		t.Fatalf("Total = %d, want 50", got)
	}
}
