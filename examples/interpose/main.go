// Interpose: build the paper's monitoring tool. An RPC-ish object is
// registered in the name space; an interposing agent replaces its
// handle, counting and timing every call and exporting an *additional*
// measurement interface — "adding a measurement interface to an RPC
// object does not require recompilation of its users, since the RPC
// interface itself does not change."
package main

import (
	"fmt"
	"log"
	"os"

	"paramecium/internal/cert"
	"paramecium/internal/core"
	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/probe"
)

var rpcDecl = obj.MustInterfaceDecl("example.rpc.v1",
	obj.MethodDecl{Name: "call", NumIn: 2, NumOut: 1}, // (proc string, arg int) -> int
)

func main() {
	log.SetFlags(0)
	auth := cert.NewAuthority(7)
	k, err := core.Boot(core.Config{AuthorityKey: auth.PublicKey()})
	if err != nil {
		log.Fatal(err)
	}

	// The RPC object: dispatches to two "remote" procedures.
	rpc := obj.New("rpc", k.Meter)
	bi, err := rpc.AddInterface(rpcDecl, nil)
	if err != nil {
		log.Fatal(err)
	}
	bi.MustBind("call", func(args ...any) ([]any, error) {
		proc := args[0].(string)
		arg := args[1].(int)
		switch proc {
		case "square":
			k.Meter.Clock.Advance(50) // simulated marshalling + work
			return []any{arg * arg}, nil
		case "negate":
			k.Meter.Clock.Advance(20)
			return []any{-arg}, nil
		}
		return nil, fmt.Errorf("rpc: no procedure %q", proc)
	})
	if err := k.Register("/services/rpc", rpc, mmu.KernelContext); err != nil {
		log.Fatal(err)
	}

	// A client binds before interposition, pre-resolving the method:
	// bind once, call many times.
	early, err := k.RootView.ResolveMethod("/services/rpc", "example.rpc.v1", "call")
	if err != nil {
		log.Fatal(err)
	}

	// ...then the measurement agent replaces the handle. Every
	// *future* bind goes through the tracer; existing references keep
	// talking to the raw object (exactly the handle-replacement
	// semantics of the paper).
	tracer, err := k.Trace("/services/rpc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("interposed tracer on /services/rpc")

	late, err := k.RootView.ResolveMethod("/services/rpc", "example.rpc.v1", "call")
	if err != nil {
		log.Fatal(err)
	}

	for i := 1; i <= 5; i++ {
		if _, err := late.Call("square", i); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := late.Call("negate", 9); err != nil {
		log.Fatal(err)
	}
	if _, err := late.Call("missing", 0); err != nil {
		fmt.Printf("observed failure through tracer: %v\n", err)
	}
	// The early handle bypasses the agent — its calls are invisible.
	if _, err := early.Call("square", 100); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nmeasurement report (note: the early binding's call is absent):")
	if err := probe.WriteMethods(os.Stdout, []probe.TracedMethods{tracer.Snapshot()}); err != nil {
		log.Fatal(err)
	}

	st, _ := tracer.Stats("example.rpc.v1.call")
	fmt.Printf("\nhistogram of call latencies: %s\n", st.Hist.String())
	fmt.Printf("p50 <= %d cycles, p99 <= %d cycles\n",
		st.Hist.Percentile(50), st.Hist.Percentile(99))

	// Finally remove the agent; the system reverts without restart.
	if err := k.Unwrap("/services/rpc"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nagent removed; /services/rpc resolves to the raw object again")
}
