// Command paramecium boots a complete simulated system and runs a
// demonstration scenario: NIC + drivers + shared protocol stack in the
// kernel, a certified packet filter loaded into the kernel protection
// domain, a sandboxed and a user-level variant alongside it, and a
// monitoring interposer on the shared stack. It prints what happened
// and the cycle bill for each configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"paramecium/internal/cert"
	"paramecium/internal/clock"
	"paramecium/internal/core"
	"paramecium/internal/drivers"
	"paramecium/internal/event"
	"paramecium/internal/hw"
	"paramecium/internal/mem"
	"paramecium/internal/mmu"
	"paramecium/internal/netstack"
	"paramecium/internal/probe"
	"paramecium/internal/repoz"
	"paramecium/internal/sandbox"
)

func main() {
	packets := flag.Int("packets", 200, "packets to inject per placement")
	flag.Parse()
	if *packets < 1 {
		log.SetFlags(0)
		log.Fatal("paramecium: -packets must be at least 1")
	}
	if err := run(*packets); err != nil {
		log.SetFlags(0)
		log.Fatalf("paramecium: %v", err)
	}
}

func run(packets int) error {
	fmt.Println("paramecium: booting nucleus ...")
	auth := cert.NewAuthority(2025)
	k, err := core.Boot(core.Config{AuthorityKey: auth.PublicKey()})
	if err != nil {
		return err
	}
	admin := cert.NewKeyCertifier("sysadmin", cert.GenerateKey(2026),
		cert.PrivKernelResident|cert.PrivDeviceAccess|cert.PrivSharedService)
	if err := k.Validator.AddDelegation(auth.Delegate("sysadmin", admin.Key().Pub,
		cert.PrivKernelResident|cert.PrivDeviceAccess|cert.PrivSharedService)); err != nil {
		return err
	}

	// Devices and drivers.
	nic := hw.NewNIC("net0", 4)
	cons := hw.NewConsole("cons0", 2)
	if err := k.Machine.AttachDevice(nic); err != nil {
		return err
	}
	if err := k.Machine.AttachDevice(cons); err != nil {
		return err
	}
	netdrv, err := drivers.NewNetDriver("netdrv", nic, k.Mem, k.Events, drivers.NetDriverConfig{
		Ctx: mmu.KernelContext, Dispatch: event.DispatchProto, IOMode: mem.IOShared,
	})
	if err != nil {
		return err
	}
	if err := k.Register("/devices/net0", netdrv, mmu.KernelContext); err != nil {
		return err
	}
	consdrv, err := drivers.NewConsoleDriver("consdrv", cons, k.Mem, mmu.KernelContext)
	if err != nil {
		return err
	}
	if err := k.Register("/devices/console", consdrv, mmu.KernelContext); err != nil {
		return err
	}
	if _, err := consdrv.Write("paramecium console online\n"); err != nil {
		return err
	}

	// Shared protocol stack over the driver.
	drvIv, err := k.RootView.BindInterface("/devices/net0", drivers.NetDevIface)
	if err != nil {
		return err
	}
	stack, err := netstack.NewStack("ipstack", k.Meter, drvIv,
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.IP{10, 0, 0, 1})
	if err != nil {
		return err
	}
	if err := k.Register("/shared/network", stack, mmu.KernelContext); err != nil {
		return err
	}

	// A monitoring agent interposed on the shared stack.
	tracer, err := k.Trace("/shared/network")
	if err != nil {
		return err
	}
	fmt.Println("paramecium: interposed monitoring agent on /shared/network")

	// The downloadable filter component.
	prog := sandbox.MustAssemble(netstack.PortFilterProgram(7))
	img := &repoz.Image{Name: "portfilter", Kind: repoz.KindPVM, Data: prog.Encode()}
	c, err := admin.Certify("portfilter", img.Data, cert.PrivKernelResident)
	if err != nil {
		return err
	}
	img.Cert = c
	if err := k.Repo.Add(img); err != nil {
		return err
	}
	fmt.Printf("paramecium: component %q certified by %q (digest %x...)\n",
		img.Name, c.Issuer, c.Digest[:6])

	ep, err := stack.Bind(7)
	if err != nil {
		return err
	}

	// Applications late-bind the shared stack through the name space,
	// so they transparently go through the monitoring agent. The pump
	// method is resolved once; the packet loop dispatches by slot.
	pump, err := k.RootView.ResolveMethod("/shared/network", netstack.StackIface, "pump")
	if err != nil {
		return err
	}

	placements := []core.Placement{core.PlaceKernelCertified, core.PlaceKernelSandboxed, core.PlaceUser}
	fmt.Printf("\n%-20s %14s %14s %10s\n", "placement", "cycles/packet", "delivered", "filtered")
	for _, p := range placements {
		lf, err := k.LoadFilter("portfilter", p)
		if err != nil {
			return err
		}
		stack.AttachFilter(lf)
		before := stack.Stats()
		watch := k.Meter.Clock.StartWatch()
		for i := 0; i < packets; i++ {
			port := uint16(7)
			if i%4 == 3 {
				port = 9 // a quarter of the traffic is for someone else
			}
			frame := netstack.BuildUDPFrame(
				netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.MAC{2, 0, 0, 0, 0, 2},
				netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
				500, port, []byte("payload"))
			if err := nic.Inject(frame); err != nil {
				return err
			}
			if _, err := pump.Call(); err != nil {
				return err
			}
		}
		k.Sched.RunUntilIdle()
		elapsed := watch.Elapsed()
		after := stack.Stats()
		fmt.Printf("%-20s %14d %14d %10d\n", p,
			elapsed/uint64(packets),
			after.Delivered-before.Delivered,
			after.Filtered-before.Filtered)
		if err := stack.DetachFilter("portfilter"); err != nil {
			return err
		}
		// Drain the endpoint between rounds.
		for {
			if _, ok := ep.Recv(); !ok {
				break
			}
		}
	}

	// Certification refusal demonstration.
	rogue := sandbox.MustAssemble(netstack.AcceptAllProgram)
	if err := k.Repo.Add(&repoz.Image{Name: "rogue", Kind: repoz.KindPVM, Data: rogue.Encode()}); err != nil {
		return err
	}
	if _, err := k.LoadFilter("rogue", core.PlaceKernelCertified); err != nil {
		fmt.Printf("\nparamecium: kernel refused uncertified component: %v\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "paramecium: BUG: uncertified component entered the kernel")
		os.Exit(1)
	}

	fmt.Println("\nmonitoring agent observations on /shared/network:")
	if err := probe.WriteMethods(os.Stdout, []probe.TracedMethods{tracer.Snapshot()}); err != nil {
		return err
	}

	fmt.Printf("machine: %d total virtual cycles, %d traps, %d TLB misses, %d interrupts\n",
		k.Meter.Clock.Now(),
		k.Meter.Count(clock.OpTrapEnter),
		k.Meter.Count(clock.OpTLBMiss),
		k.Meter.Count(clock.OpInterrupt))
	fmt.Printf("console captured: %q\n", cons.Contents())
	return nil
}
