package paramecium

import (
	"io"

	"paramecium/api"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/probe"
)

// TraceOptions configures the kernel flight recorder; see WithTracing.
// The zero value selects defaults.
type TraceOptions struct {
	// RingCapacity sizes each per-CPU event ring in events (0 selects
	// the default of 4096). Rings retain the most recent events; the
	// cycle ledger is exact regardless of ring capacity.
	RingCapacity int
}

// WithTracing boots the system with the kernel flight recorder on:
// per-CPU event rings recording crossings, batch dispatches, faults,
// TLB traffic, doorbells, grant motion and scheduler activity — each
// event stamped with virtual-clock cycles, CPU and paying domain — plus
// a per-domain cycle ledger every meter charge rolls up into. Recording
// is free in virtual time (observing the simulation does not perturb
// it), and with tracing off the emit path is a single atomic load, so
// untraced systems measure exactly as before. Read the results with
// System.TraceSnapshot and Domain.Cycles, or run cmd/paratrace.
func WithTracing(opts TraceOptions) Option {
	return func(c *core.Config) {
		c.Trace = true
		c.TraceRingCapacity = opts.RingCapacity
	}
}

// Tracing reports whether the system booted with the flight recorder.
func (s *System) Tracing() bool { return s.k.Meter.Recorder() != nil }

// Cycles reports the total virtual cycles attributed to this domain in
// the cycle ledger — what the domain has paid for its crossings, copies,
// TLB traffic and shootdowns since boot. Zero when the system did not
// boot WithTracing. The row survives Destroy: a dead domain's bill
// stays readable (frozen) rather than vanishing with the domain.
func (d *Domain) Cycles() uint64 {
	led := d.s.k.Meter.Ledger()
	if led == nil {
		return 0
	}
	return led.DomainCycles(uint32(d.d.Ctx))
}

// TraceSnapshot is a point-in-time copy of everything the flight
// recorder holds: the per-CPU event timelines, the per-domain cycle
// ledger, and the method histograms of every Tracer installed through
// Handle.Trace. Snapshots are safe to take while the system runs.
type TraceSnapshot struct {
	// Events holds each CPU's retained event window, ordered by virtual
	// time. Nil when the system did not boot WithTracing.
	Events [][]api.TraceEvent
	// Ledger holds one row per protection domain that has ever been
	// charged, sorted by domain context id. Nil without WithTracing.
	Ledger []api.LedgerRow
	// Methods holds the merged per-method call histograms of every
	// tracer installed with Handle.Trace, grouped by traced path.
	Methods []TracedMethods
}

// TracedMethods is one traced name's method stats within a snapshot:
// the path and the stats of each method called through its tracer.
type TracedMethods = probe.TracedMethods

// TraceSnapshot copies the flight recorder's current state; see
// TraceSnapshot (type). On a system booted without WithTracing the
// event and ledger sections are nil but tracer histograms still appear.
func (s *System) TraceSnapshot() *TraceSnapshot {
	ts := &TraceSnapshot{}
	if rec := s.k.Meter.Recorder(); rec != nil {
		ts.Events = rec.Snapshot()
	}
	if led := s.k.Meter.Ledger(); led != nil {
		ts.Ledger = led.Snapshot()
	}
	s.traceMu.Lock()
	tracers := append([]*api.Tracer(nil), s.tracers...)
	s.traceMu.Unlock()
	for _, tr := range tracers {
		ts.Methods = append(ts.Methods, tr.Snapshot())
	}
	return ts
}

// WriteLedger renders the snapshot's per-domain cycle ledger as a text
// table: one row per domain with its total and the crossing / wire /
// copy / shootdown class split, then each domain's topN hottest
// operations. topN <= 0 omits the hot-op section.
func (ts *TraceSnapshot) WriteLedger(w io.Writer, topN int) error {
	return probe.WriteLedgerTable(w, ts.Ledger, clock.LedgerOpName, clock.LedgerOpClass, topN)
}

// WriteChrome renders the snapshot's event timelines as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto; one
// virtual cycle is rendered as one microsecond, one CPU per track).
func (ts *TraceSnapshot) WriteChrome(w io.Writer) error {
	return probe.WriteChromeTrace(w, ts.Events)
}

// WriteTimeline renders the snapshot's event timelines as per-CPU
// text, ordered by virtual time within each CPU.
func (ts *TraceSnapshot) WriteTimeline(w io.Writer) error {
	return probe.WriteTimeline(w, ts.Events)
}

// WriteMethods renders the snapshot's interposed-tracer histograms:
// per traced path, the calls, errors, cycles and latency percentiles of
// each called method.
func (ts *TraceSnapshot) WriteMethods(w io.Writer) error {
	return probe.WriteMethods(w, ts.Methods)
}

// Trace interposes a measurement tracer on the handle's name: every
// method of every interface the instance exports is counted and timed
// in virtual cycles, without the target or its callers changing — the
// paper's monitoring tools built from interposition. All future binds
// of the path resolve through the tracer; this handle and other
// existing handles are unaffected (handle-replacement semantics). The
// tracer charges nothing, so traced calls bill what untraced ones do.
// The tracer's histograms are merged into System.TraceSnapshot.
func (h *Handle) Trace() (*api.Tracer, error) {
	tr, err := h.s.k.Trace(h.path)
	if err != nil {
		return nil, err
	}
	h.s.traceMu.Lock()
	h.s.tracers = append(h.s.tracers, tr)
	h.s.traceMu.Unlock()
	return tr, nil
}
