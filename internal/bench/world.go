package bench

import (
	"fmt"

	"paramecium/internal/cert"
	"paramecium/internal/core"
	"paramecium/internal/hw"
	"paramecium/internal/netstack"
	"paramecium/internal/obj"
	"paramecium/internal/repoz"
	"paramecium/internal/sandbox"
)

// World is a booted kernel plus trust infrastructure, shared by the
// experiments.
type World struct {
	K     *core.Kernel
	Auth  *cert.Authority
	Admin *cert.KeyCertifier
}

// NewWorld boots a fresh single-CPU world. Panics on setup failure:
// the harness cannot proceed without a kernel, and every failure here
// is a programming error, not an experimental outcome.
func NewWorld() *World { return newWorldCPUs(1) }

// newWorldCPUs boots a world on a machine with ncpu virtual CPUs.
func newWorldCPUs(ncpu int) *World {
	return newWorld(core.Config{CPUs: ncpu})
}

// newWorldTopology boots a world on a NUMA machine of nodes ×
// cpusPerNode CPUs with the uniform node-distance matrix, the
// configuration the P9 scaling experiments sweep.
func newWorldTopology(nodes, cpusPerNode int) *World {
	cfg := core.Config{}
	cfg.Machine.Topology = hw.NewTopology(nodes, cpusPerNode)
	// Big topologies run wide workloads (hundreds of domains and ring
	// pairs at cpus=256); frames are cheap until touched, so size the
	// frame table for the sweep rather than the default desktop.
	cfg.Machine.PhysFrames = 32768
	return newWorld(cfg)
}

func newWorld(cfg core.Config) *World {
	auth := cert.NewAuthority(0xB007)
	cfg.AuthorityKey = auth.PublicKey()
	k, err := core.Boot(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: boot: %v", err))
	}
	admin := cert.NewKeyCertifier("sysadmin", cert.GenerateKey(0xADD1),
		cert.PrivKernelResident|cert.PrivDeviceAccess|cert.PrivSharedService)
	if err := k.Validator.AddDelegation(auth.Delegate("sysadmin", admin.Key().Pub,
		cert.PrivKernelResident|cert.PrivDeviceAccess|cert.PrivSharedService)); err != nil {
		panic(fmt.Sprintf("bench: delegation: %v", err))
	}
	return &World{K: k, Auth: auth, Admin: admin}
}

// AddPVM stores a PVM program in the repository under name, certified
// for kernel residence when certified is true.
func (w *World) AddPVM(name, src string, certified bool) {
	prog := sandbox.MustAssemble(src)
	img := &repoz.Image{Name: name, Kind: repoz.KindPVM, Data: prog.Encode()}
	if certified {
		c, err := w.Admin.Certify(name, img.Data, cert.PrivKernelResident)
		if err != nil {
			panic(fmt.Sprintf("bench: certify: %v", err))
		}
		img.Cert = c
	}
	if err := w.K.Repo.Add(img); err != nil {
		panic(fmt.Sprintf("bench: repo add: %v", err))
	}
}

// load loads the repository component name as a filter at placement p.
func (w *World) load(name string, p core.Placement) *core.LoadedFilter {
	lf, err := w.K.LoadFilter(name, p)
	if err != nil {
		panic(fmt.Sprintf("bench: load %s at %v: %v", name, p, err))
	}
	return lf
}

// export registers server at path in domain dom and returns client's
// pre-resolved cross-domain handle on its iface.method.
func (w *World) export(path string, server obj.Instance, dom, client *core.Domain, iface, method string) obj.MethodHandle {
	if err := w.K.Register(path, server, dom.Ctx); err != nil {
		panic(fmt.Sprintf("bench: register %s: %v", path, err))
	}
	h, err := client.ResolveMethod(path, iface, method)
	if err != nil {
		panic(fmt.Sprintf("bench: resolve %s: %v", path, err))
	}
	return h
}

// frame builds a UDP test frame addressed to port with a payload of
// the given size.
func frame(port uint16, payloadSize int) []byte {
	return netstack.BuildUDPFrame(
		netstack.MAC{2, 0, 0, 0, 0, 1}, netstack.MAC{2, 0, 0, 0, 0, 2},
		netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
		999, port, make([]byte, payloadSize))
}

// perOp runs run(n) and returns the virtual cycles per operation,
// rounded down: the unit of the T and F tables' cells.
func perOp(w *World, n int, run func(int) error) uint64 {
	return elapsed(w.K.Meter, n, run) / uint64(n)
}
