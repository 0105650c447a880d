package probe

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Ledger rolls clock charges up into per-domain rows: occurrence
// counts per operation, per paying protection-domain context. Every
// charge the meter makes while tracing is enabled lands in exactly one
// row, so the sum of all row totals equals the clock — the invariant the
// acceptance tests pin.
//
// A cell keeps a count only. Its cycles are the count times the slot's
// cost, which the meter hands over (SetCosts) when tracing is enabled,
// so a charge is one atomic add. A slot without a fixed cost — the
// idle pseudo-slot — records explicit cycles through AddCycles. The
// counts are the ledger's own record, kept apart from the meter's
// tally, so a charge that misses the ledger still shows as drift.
//
// The operation index space is the clock package's Op ordinals plus one
// trailing pseudo-slot for unattributed clock advances (scheduler idle
// fast-forward); the ledger itself only knows the slot count, keeping
// this package free of a clock dependency.
type Ledger struct {
	ops int

	// index finds a row by domain context id on the charge path with
	// two atomic loads and no lock. The MMU hands out small consecutive
	// context ids, so a table indexed by id stays short. It is
	// published by pointer and replaced by a longer copy when a domain
	// past its end creates its row; ids from maxIndexedDomain up are
	// found through rows alone.
	index atomic.Pointer[[]atomic.Pointer[ledgerRow]]

	mu    sync.Mutex            // guards rows, costs and index growth
	rows  map[uint32]*ledgerRow // every row, by domain
	costs []uint64              // cycles per occurrence, per slot; ops long
}

// maxIndexedDomain bounds the index, so an outlandish domain id costs a
// map entry rather than a huge table.
const maxIndexedDomain = 1 << 16

// ledgerRow is one domain's accumulation. Cells are updated with
// atomics on the charge path; a row's total is the sum of its cells'
// cycles. counts is dense so a charge touches one word of it; cycles
// holds only explicit cycles, written by AddCycles.
type ledgerRow struct {
	frozen atomic.Bool
	counts []atomic.Uint64
	cycles []atomic.Uint64
}

// NewLedger builds a ledger with the given operation-slot count. Every
// slot costs nothing until SetCosts prices it.
func NewLedger(ops int) *Ledger {
	if ops < 1 {
		ops = 1
	}
	return &Ledger{ops: ops, rows: make(map[uint32]*ledgerRow), costs: make([]uint64, ops)}
}

// Ops reports the ledger's operation-slot count.
func (l *Ledger) Ops() int { return l.ops }

// SetCosts prices the ledger's slots: slot i's cycles are its count
// times costs[i]. Slots past len(costs) stay unpriced and carry only
// explicit cycles. Readers price counts at read time, so SetCosts
// reprices everything already counted.
func (l *Ledger) SetCosts(costs []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.costs)
	copy(l.costs, costs)
}

// Add counts n occurrences of op against domain's row; their cycles
// are n times op's cost. The fast path — row already exists — is an
// index lookup plus one atomic add; a domain's first charge creates its
// row under the ledger lock.
func (l *Ledger) Add(domain uint32, op int, n uint64) {
	if l == nil || op < 0 || op >= l.ops {
		return
	}
	l.row(domain).counts[op].Add(n)
}

// AddCycles attributes n occurrences of op worth cycles virtual cycles
// in total, beyond any cost SetCosts gave op, to domain's row. It is
// for slots with no fixed cost: the idle pseudo-slot.
func (l *Ledger) AddCycles(domain uint32, op int, cycles, n uint64) {
	if l == nil || op < 0 || op >= l.ops {
		return
	}
	r := l.row(domain)
	r.cycles[op].Add(cycles)
	r.counts[op].Add(n)
}

// row returns domain's row, creating it on first sight.
func (l *Ledger) row(domain uint32) *ledgerRow {
	if t := l.index.Load(); t != nil && int(domain) < len(*t) {
		if r := (*t)[domain].Load(); r != nil {
			return r
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.rows[domain]; r != nil {
		return r
	}
	r := &ledgerRow{counts: make([]atomic.Uint64, l.ops), cycles: make([]atomic.Uint64, l.ops)}
	l.rows[domain] = r
	if domain >= maxIndexedDomain {
		return r
	}
	var t []atomic.Pointer[ledgerRow]
	if p := l.index.Load(); p != nil {
		t = *p
	}
	if int(domain) >= len(t) {
		grown := make([]atomic.Pointer[ledgerRow], max(int(domain)+1, 2*len(t)))
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		l.index.Store(&grown)
		t = grown
	}
	t[domain].Store(r)
	return r
}

// existing returns domain's row, or nil if it has none.
func (l *Ledger) existing(domain uint32) *ledgerRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rows[domain]
}

// Freeze marks domain's row final — DestroyDomain calls it once the
// domain is quiescent, so a dead domain's bill stays readable instead
// of being dropped with the domain. Context ids are never reused, so a
// frozen row accumulates nothing further; freezing a domain that never
// charged anything creates an empty frozen row, recording that the
// domain existed.
func (l *Ledger) Freeze(domain uint32) {
	if l == nil {
		return
	}
	l.row(domain).frozen.Store(true)
}

// Frozen reports whether domain's row has been frozen.
func (l *Ledger) Frozen(domain uint32) bool {
	r := l.existing(domain)
	return r != nil && r.frozen.Load()
}

// DomainCycles reports the total cycles attributed to domain.
func (l *Ledger) DomainCycles(domain uint32) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rows[domain]
	if r == nil {
		return 0
	}
	return l.total(r)
}

// Total reports the cycles attributed across all rows. With tracing
// enabled from boot this equals the meter's clock.
func (l *Ledger) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum uint64
	for _, r := range l.rows {
		sum += l.total(r)
	}
	return sum
}

// total sums the row's cycles: each cell's count times its slot's
// cost, plus its explicit cycles. Caller holds l.mu.
func (l *Ledger) total(r *ledgerRow) uint64 {
	var sum uint64
	for i := range r.counts {
		sum += r.counts[i].Load()*l.costs[i] + r.cycles[i].Load()
	}
	return sum
}

// RowSnapshot is one domain's ledger row as read by Snapshot.
type RowSnapshot struct {
	Domain uint32
	Frozen bool
	Total  uint64
	Cycles []uint64 // per op slot
	Counts []uint64 // per op slot
}

// Snapshot copies every row, sorted by domain context id. The copy is
// cell-atomic, not row-atomic: a snapshot racing live charges may see
// one of a row's cells before a charge and another after it. Each
// row's Total is the sum of its copied Cycles.
func (l *Ledger) Snapshot() []RowSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RowSnapshot, 0, len(l.rows))
	for d, r := range l.rows {
		row := RowSnapshot{
			Domain: d,
			Frozen: r.frozen.Load(),
			Cycles: make([]uint64, l.ops),
			Counts: make([]uint64, l.ops),
		}
		for i := range r.counts {
			row.Counts[i] = r.counts[i].Load()
			row.Cycles[i] = row.Counts[i]*l.costs[i] + r.cycles[i].Load()
			row.Total += row.Cycles[i]
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}
