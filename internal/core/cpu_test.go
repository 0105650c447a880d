package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"paramecium/internal/cert"
	"paramecium/internal/mmu"
	"paramecium/internal/names"
	"paramecium/internal/obj"
)

// TestDestroyDomainSweepsNames: destroying a domain unregisters every
// name whose instance lived there, so later binds fail with a lookup
// error instead of silently resolving placement-less (kernel context)
// to the orphaned object.
func TestDestroyDomainSweepsNames(t *testing.T) {
	w := newWorld(t)
	server := obj.New("doomed-svc", w.k.Meter)
	d := w.k.NewDomain("server")
	client := w.k.NewDomain("client")
	if err := w.k.Register("/services/doomed", server, d.Ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Register("/services/doomed-alias", server, d.Ctx); err != nil {
		t.Fatal(err)
	}
	// Sane before teardown: a cross-domain bind resolves to a proxy.
	if _, err := client.Bind("/services/doomed"); err != nil {
		t.Fatal(err)
	}
	if err := w.k.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
	// Every name of the dead domain is gone, from domains and from
	// kernel-resident callers alike.
	for _, path := range []string{"/services/doomed", "/services/doomed-alias"} {
		if _, err := client.Bind(path); !errors.Is(err, names.ErrNotFound) {
			t.Fatalf("bind %q after destroy: %v, want ErrNotFound", path, err)
		}
		if _, err := w.k.KernelBind(path); !errors.Is(err, names.ErrNotFound) {
			t.Fatalf("kernel bind %q after destroy: %v, want ErrNotFound", path, err)
		}
	}
	// Unrelated names survive the sweep.
	if _, err := w.k.KernelBind("/nucleus/events"); err != nil {
		t.Fatalf("unrelated name swept: %v", err)
	}
}

// TestDestroyDomainSweepsViewOverrides: an override pinned on a dead
// domain's instance is swept from every live view, so the bind falls
// through to the (also swept) global space and fails — it cannot
// resolve placement-less to the orphaned object.
func TestDestroyDomainSweepsViewOverrides(t *testing.T) {
	w := newWorld(t)
	server := obj.New("doomed-svc", w.k.Meter)
	d := w.k.NewDomain("server")
	client := w.k.NewDomain("client")
	if err := w.k.Register("/services/doomed", server, d.Ctx); err != nil {
		t.Fatal(err)
	}
	// The client privately pins the name at the server's instance.
	if err := client.View.Override("/services/pinned", server); err != nil {
		t.Fatal(err)
	}
	if inst, err := client.Bind("/services/pinned"); err != nil {
		t.Fatal(err)
	} else if inst == obj.Instance(server) {
		t.Fatal("cross-domain override bound direct, want proxy")
	}
	if err := w.k.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Bind("/services/pinned"); !errors.Is(err, names.ErrNotFound) {
		t.Fatalf("override bind after destroy: %v, want ErrNotFound", err)
	}
}

// TestDestroyDomainSweepKeepsRehomedNames: a name re-homed out of the
// dying domain before destruction is not swept.
func TestDestroyDomainSweepsOnlyDeadPlacements(t *testing.T) {
	w := newWorld(t)
	server := obj.New("svc", w.k.Meter)
	d := w.k.NewDomain("dying")
	survivor := w.k.NewDomain("survivor")
	if err := w.k.Register("/services/movable", server, d.Ctx); err != nil {
		t.Fatal(err)
	}
	// Re-home the instance into the survivor domain (placement is
	// last-write-wins through registerPlacement).
	w.k.registerPlacement(server, survivor.Ctx)
	if err := w.k.DestroyDomain(d); err != nil {
		t.Fatal(err)
	}
	if _, err := w.k.KernelBind("/services/movable"); err != nil {
		t.Fatalf("re-homed name swept with the dead domain: %v", err)
	}
}

// TestParallelInvocationAcrossCPUs is the N-CPU end-to-end stress: a
// 4-CPU kernel serving one shared cross-domain handle to many
// concurrent callers. Dispatch and translation must not serialize on a
// global MMU mutex, every call must land, and the per-CPU TLBs must
// carry the traffic disjointly: each call's entry-page miss is charged
// to exactly one CPU, and more than one CPU sees traffic.
func TestParallelInvocationAcrossCPUs(t *testing.T) {
	auth := cert.NewAuthority(1000)
	k, err := Boot(Config{AuthorityKey: auth.PublicKey(), CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k.Machine.NumCPUs() != 4 || k.Machine.MMU.NumCPUs() != 4 || k.Sched.NumCPUs() != 4 {
		t.Fatalf("topology: machine=%d mmu=%d sched=%d, want 4",
			k.Machine.NumCPUs(), k.Machine.MMU.NumCPUs(), k.Sched.NumCPUs())
	}

	decl := obj.MustInterfaceDecl("stress.counter.v1", obj.MethodDecl{Name: "inc", NumIn: 0, NumOut: 1})
	server := obj.New("counter", k.Meter)
	var n atomic.Int64
	bi, err := server.AddInterface(decl, &n)
	if err != nil {
		t.Fatal(err)
	}
	bi.MustBind("inc", func(...any) ([]any, error) { return []any{n.Add(1)}, nil })
	serverDom := k.NewDomain("server")
	clientDom := k.NewDomain("client")
	if err := k.Register("/services/counter", server, serverDom.Ctx); err != nil {
		t.Fatal(err)
	}
	inc, err := clientDom.ResolveMethod("/services/counter", "stress.counter.v1", "inc")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := inc.Call(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := n.Load(); got != workers*each {
		t.Fatalf("%d calls landed, want %d", got, workers*each)
	}

	// Per-CPU TLB accounting: the only translations in this kernel are
	// the calls' entry-page touches — one miss per call, charged to the
	// CPU the call claimed. The per-CPU counters must partition the
	// total exactly (disjointness) and span more than one CPU.
	populated := 0
	var sum uint64
	for i := 0; i < k.Machine.NumCPUs(); i++ {
		s := k.Machine.MMU.TLBStatsOn(mmu.CPUID(i))
		if s.Misses > 0 {
			populated++
		}
		sum += s.Misses
	}
	if sum != workers*each {
		t.Fatalf("per-CPU misses sum to %d, want %d (stats not disjoint)", sum, workers*each)
	}
	if populated < 2 {
		t.Fatalf("TLB traffic on %d CPUs, want >= 2", populated)
	}
}

// TestSingleCPUDefaultTopology: the default boot stays a uniprocessor.
func TestSingleCPUDefaultTopology(t *testing.T) {
	w := newWorld(t)
	if n := w.k.Machine.NumCPUs(); n != 1 {
		t.Fatalf("default CPUs = %d, want 1", n)
	}
	if n := w.k.Sched.NumCPUs(); n != 1 {
		t.Fatalf("default scheduler CPUs = %d, want 1", n)
	}
}
