// Command paratrace boots a system with the kernel flight recorder on,
// drives a deterministic workload across every plane the recorder
// instruments — cross-domain invocations, a vectored batch, a traced
// kernel service, the zero-copy segment plane, a streaming ring and a
// domain teardown — and exports what the recorder saw.
//
// Usage:
//
//	paratrace                      # per-domain cycle ledger (text)
//	paratrace -format=chrome       # Chrome trace_event JSON (chrome://tracing, Perfetto)
//	paratrace -format=timeline     # per-CPU event timelines (text)
//	paratrace -format=methods      # interposed-tracer method histograms
//	paratrace -cpus=4 -top=5       # more CPUs, deeper hot-op listing
//
// On one CPU the workload is fully deterministic, so the table and
// methods outputs are diffable against golden copies — CI does exactly
// that.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"paramecium"
	"paramecium/api"
)

func main() {
	format := flag.String("format", "table", "output format: table, chrome, timeline or methods")
	cpus := flag.Int("cpus", 1, "virtual CPUs to boot (1 is fully deterministic)")
	top := flag.Int("top", 3, "hot operations to list per domain in table format")
	flag.Parse()
	if err := run(os.Stdout, *format, *cpus, *top); err != nil {
		log.SetFlags(0)
		log.Fatalf("paratrace: %v", err)
	}
}

func run(out *os.File, format string, cpus, top int) error {
	sys, err := scenario(cpus)
	if err != nil {
		return err
	}
	snap := sys.TraceSnapshot()
	defer sys.Shutdown()
	switch format {
	case "table":
		return snap.WriteLedger(out, top)
	case "chrome":
		return snap.WriteChrome(out)
	case "timeline":
		return snap.WriteTimeline(out)
	case "methods":
		return snap.WriteMethods(out)
	}
	return fmt.Errorf("unknown format %q (want table, chrome, timeline or methods)", format)
}

// scenario boots WithTracing and exercises each instrumented plane
// with fixed iteration counts, so a single-CPU run always produces the
// same events and the same cycle bill.
func scenario(cpus int) (*paramecium.System, error) {
	sys, err := paramecium.Boot(
		paramecium.WithCPUs(cpus),
		paramecium.WithTracing(paramecium.TraceOptions{}),
	)
	if err != nil {
		return nil, err
	}

	// A kernel-resident service, with a measurement tracer interposed
	// on its name: its method histograms ride along in the snapshot.
	decl := api.MustInterfaceDecl("paratrace.calc.v1",
		api.MethodDecl{Name: "add", NumIn: 2, NumOut: 1},
		api.MethodDecl{Name: "ping", NumIn: 0, NumOut: 1})
	calc := sys.NewObject("calc")
	bi, err := calc.AddInterface(decl, nil)
	if err != nil {
		return nil, err
	}
	bi.MustBind("add", func(args ...any) ([]any, error) {
		return []any{args[0].(int) + args[1].(int)}, nil
	})
	bi.MustBind("ping", func(...any) ([]any, error) {
		return []any{"pong"}, nil
	})
	if err := sys.Register("/svc/calc", calc); err != nil {
		return nil, err
	}
	kh, err := sys.Bind("/svc/calc")
	if err != nil {
		return nil, err
	}
	if _, err := kh.Trace(); err != nil {
		return nil, err
	}

	client := sys.NewDomain("client")
	worker := sys.NewDomain("worker")

	// Single cross-domain calls: each pays its own crossing.
	h, err := client.Bind("/svc/calc")
	if err != nil {
		return nil, err
	}
	add, err := h.Resolve("paratrace.calc.v1", "add")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 24; i++ {
		if _, err := add.Call(i, i); err != nil {
			return nil, err
		}
	}

	// A vectored batch: one crossing amortized over the group.
	b := h.Batch(16)
	for i := 0; i < 16; i++ {
		if err := b.Add(add, i, 1); err != nil {
			return nil, err
		}
	}
	if err := client.CallBatch(b); err != nil {
		return nil, err
	}

	// A second paying domain, destroyed below: its ledger row freezes.
	wh, err := worker.Bind("/svc/calc")
	if err != nil {
		return nil, err
	}
	wadd, err := wh.Resolve("paratrace.calc.v1", "add")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		if _, err := wadd.Call(i, 2); err != nil {
			return nil, err
		}
	}

	// The zero-copy segment plane: grant, attach, move bytes, revoke.
	seg, err := client.NewSegment(2)
	if err != nil {
		return nil, err
	}
	ref, err := seg.Grant(worker, api.RW)
	if err != nil {
		return nil, err
	}
	att, err := seg.Map(ref)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := att.Store(0, payload); err != nil {
		return nil, err
	}
	if err := att.Load(128, payload[:64]); err != nil {
		return nil, err
	}
	if err := seg.Revoke(ref); err != nil {
		return nil, err
	}

	// The streaming plane: pushed bursts, one doorbell each, drained.
	rg, err := client.NewRing(worker, 8, 32)
	if err != nil {
		return nil, err
	}
	prod, cons := rg.Producer(), rg.Consumer()
	rec := make([]byte, 16)
	for burst := 0; burst < 4; burst++ {
		for i := 0; i < 4; i++ {
			rec[0] = byte(burst<<4 | i)
			if err := prod.Push(rec); err != nil {
				return nil, err
			}
		}
		if err := prod.Notify(); err != nil {
			return nil, err
		}
		for i := 0; i < 4; i++ {
			if _, err := cons.Pop(rec); err != nil {
				return nil, err
			}
		}
	}
	if err := rg.Close(); err != nil {
		return nil, err
	}

	// Tear the worker down: its bill survives as a frozen ledger row.
	if err := worker.Destroy(); err != nil {
		return nil, err
	}
	return sys, nil
}
