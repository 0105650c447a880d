package threads

import (
	"fmt"
	"sync"
	"testing"

	"paramecium/internal/hw"
	"paramecium/internal/mmu"
)

// TestTopologyTLBMissPartition64 is the 64-CPU identity stress: one
// thread per non-boot CPU, each loading its own private page a few
// times through the CPU it reports as LastCPU. Because scheduler CPU k
// is machine CPU k, each page's single TLB miss must land on the CPU
// the thread actually ran on — never on the boot CPU. Work stealing may migrate an affined thread before
// its first dispatch, so the assertion partitions misses against each
// thread's recorded LastCPU, not its spawn target: per CPU, the miss
// delta equals the number of threads that ran there, and the deltas sum
// to exactly the thread count. Run under -race this also shakes out
// data races in the per-CPU TLB and dispatch paths.
func TestTopologyTLBMissPartition64(t *testing.T) {
	const nodes, perNode = 16, 4
	const ncpu = nodes * perNode
	machine := hw.New(hw.Config{
		PhysFrames: 256,
		Topology:   hw.NewTopology(nodes, perNode),
	})
	ctx := machine.MMU.NewContext()
	vaOf := func(k int) mmu.VAddr { return mmu.VAddr(0x100000 + k*mmu.PageSize) }
	for k := 1; k < ncpu; k++ {
		frame, err := machine.Phys.AllocFrame()
		if err != nil {
			t.Fatalf("alloc frame %d: %v", k, err)
		}
		if err := machine.MMU.MapOn(mmu.BootCPU, ctx, vaOf(k), frame, mmu.PermRead|mmu.PermWrite); err != nil {
			t.Fatalf("map page %d: %v", k, err)
		}
	}

	base := make([]uint64, ncpu)
	for k := range base {
		base[k] = machine.MMU.TLBStatsOn(mmu.CPUID(k)).Misses
	}

	sched := NewSchedulerCPUs(machine.Meter, ncpu)
	sched.SetTopology(nodes, perNode)

	var mu sync.Mutex
	ranOn := make([]int, ncpu)
	var failures []string
	for k := 1; k < ncpu; k++ {
		k := k
		sched.SpawnOn(mmu.CPUID(k), fmt.Sprintf("pinned-%d", k), func(th *Thread) {
			var buf [8]byte
			var errs []string
			cpu := th.LastCPU()
			if cpu == mmu.NoCPU {
				errs = append(errs, fmt.Sprintf("thread %d running with NoCPU identity", k))
			}
			for r := 0; r < 4 && cpu != mmu.NoCPU; r++ {
				if err := machine.LoadOn(cpu, ctx, vaOf(k), buf[:]); err != nil {
					errs = append(errs, fmt.Sprintf("thread %d load %d: %v", k, r, err))
					break
				}
			}
			if again := th.LastCPU(); again != cpu {
				errs = append(errs, fmt.Sprintf("thread %d migrated mid-body: %d -> %d", k, cpu, again))
			}
			mu.Lock()
			if cpu != mmu.NoCPU {
				ranOn[int(cpu)]++
			}
			failures = append(failures, errs...)
			mu.Unlock()
		})
	}
	sched.RunUntilIdle()

	for _, f := range failures {
		t.Error(f)
	}
	total := 0
	for k := 0; k < ncpu; k++ {
		delta := machine.MMU.TLBStatsOn(mmu.CPUID(k)).Misses - base[k]
		if delta != uint64(ranOn[k]) {
			t.Errorf("cpu %d: TLB miss delta %d, want %d (threads that ran there)", k, delta, ranOn[k])
		}
		total += ranOn[k]
	}
	if total != ncpu-1 {
		t.Errorf("threads accounted across CPUs: %d, want %d", total, ncpu-1)
	}
}
