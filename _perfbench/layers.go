package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"paramecium/internal/clock"
)

// opModule assigns each costed operation to the module that charges
// it; the per-layer cycle rows are named <module>.<op>.
var opModule = [clock.NumOps]string{
	clock.OpTrapEnter:         "hw",
	clock.OpTrapExit:          "hw",
	clock.OpInterrupt:         "hw",
	clock.OpCopyWord:          "hw",
	clock.OpRemoteFrameAccess: "hw",
	clock.OpCtxSwitch:         "mmu",
	clock.OpTLBMiss:           "mmu",
	clock.OpTLBFlush:          "mmu",
	clock.OpTLBShootdown:      "mmu",
	clock.OpPageFault:         "mem",
	clock.OpCall:              "obj",
	clock.OpIndirect:          "obj",
	clock.OpBatchEntry:        "proxy",
	clock.OpVMInstr:           "sandbox",
	clock.OpSFICheck:          "sandbox",
	clock.OpDigestBlock:       "cert",
	clock.OpSigVerify:         "cert",
	clock.OpThreadCreate:      "threads",
	clock.OpProtoThread:       "threads",
	clock.OpPromote:           "threads",
	clock.OpSchedule:          "threads",
	clock.OpNameLookupHop:     "names",
	clock.OpRingPush:          "ring",
	clock.OpRingPop:           "ring",
	clock.OpDoorbell:          "ring",
}

func opRow(op clock.Op) string { return opModule[op] + "." + op.String() }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer builds the traced run's metrics: virtual cycles per op for
// every operation, span self time per op, and per-layer ratios and
// counts, all over the traced segments, plus the fastest traced
// segment rate and what the spans cost it against the fastest
// untraced one.
func perLayer(sp spec, traced phase, t *tracer, drift int64, tracedRate, untracedRate float64) map[string]metric {
	ops := float64(traced.units * sp.opsPerUnit)
	m := make(map[string]metric)
	costs := clock.DefaultCosts()
	for i, n := range traced.ops {
		op := clock.Op(i)
		m[opRow(op)] = metric{float64(n*costs.Cost(op)) / ops, "cycles"}
	}
	for s := spanName(1); s < numSpans; s++ {
		m[spanNames[s]] = metric{float64(t.selfNs[s]) / ops, "ns"}
	}
	c := traced.layers
	m["mmu.tlb_hit_ratio"] = metric{ratio(c.tlbHits, c.tlbHits+c.tlbMisses), "ratio"}
	m["proxy.crossings_per_call"] = metric{ratio(c.crossings, c.calls), "ratio"}
	m["ring.records_per_doorbell"] = metric{ratio(c.records, c.doorbells), "count"}
	m["netstack.delivered_ratio"] = metric{ratio(c.delivered, c.frames), "ratio"}
	m["drivers.rxq_max"] = metric{float64(c.rxqMax), "count"}
	m["hw.rx_dropped"] = metric{float64(c.rxDropped), "count"}
	m["hw.shared_leases"] = metric{float64(c.sharedLeases), "count"}
	m["probe.events_per_op"] = metric{float64(c.events) / ops, "count"}
	m["probe.dropped"] = metric{float64(c.eventsDropped), "count"}
	m["probe.ledger_drift"] = metric{float64(drift), "cycles"}
	m["bench.traced_ops_per_s"] = metric{tracedRate, "1/s"}
	m["bench.span_overhead_ops_per_s"] = metric{tracedRate - untracedRate, "1/s"}
	return m
}

// report prints the human-readable summary that precedes the JSON line.
func report(out io.Writer, cfg config, res result, timed, acct phase, failed int, setupS []float64, problems []string) {
	sp := cfg.spec
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d %s: %d units of one %s (%d ops each) in %.3f s, closed loop, 1 client, 1 virtual CPU\n",
		sp.name, cfg.seed, mode, timed.units, sp.unitName, sp.opsPerUnit, float64(timed.ns)/1e9)
	fmt.Fprintf(out, "  fail_ratio %.6g (%d of %d ops); latency samples %d; set-up runs %d\n",
		ratio(uint64(failed), uint64(res.Attempted)), failed, res.Attempted, timed.units, len(setupS))
	if !cfg.trace {
		n := cfg.segments()
		fmt.Fprintf(out, "  host-time metrics come from the fastest of %d segments of %.3g s, each on a fresh kernel\n",
			n, cfg.seconds/float64(n))
	}
	acctOps := float64(sp.acct * sp.opsPerUnit)
	fmt.Fprintf(out, "  accounting window: %d units, %.6g cycles/op, identical under both seeds unless noted below\n",
		sp.acct, float64(acct.cycles)/acctOps)
	costs := clock.DefaultCosts()
	var rows []string
	for i, n := range acct.ops {
		if n != 0 {
			op := clock.Op(i)
			rows = append(rows, fmt.Sprintf("%s=%.6g", opRow(op), float64(n*costs.Cost(op))/acctOps))
		}
	}
	fmt.Fprintf(out, "  cycles/op by layer: %s\n", strings.Join(rows, " "))
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name]
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
