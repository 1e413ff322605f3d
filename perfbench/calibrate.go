package main

import (
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on is shared: neighbouring tenants slow
// everything it runs by up to 2×, in spells from seconds to minutes, so
// a run's wall times say as much about the neighbours as about the
// simulator. Every measured run is therefore bracketed by a reference
// kernel — fixed benchmark code that never changes with the simulator —
// and the end-to-end host times are reported at reference speed: wall
// time × refKernelNs ÷ the kernel's time around that run. A change to
// the simulator moves them as it moves wall time; a change in the
// neighbours moves the kernel too and cancels out.

// refKernelNs is the reference kernel's time on the host the benchmark
// was written on (a 2-vCPU "Intel(R) Xeon(R) Processor" VM) when its
// neighbours were quiet: the speed every normalised figure is quoted at.
const refKernelNs = 400_000

// The kernel mixes what the simulator spends its time on: dependent
// loads scattered over a table the size of a core's L2 cache, map
// updates, and a branchy sort. Its data is built once and never
// allocates while it runs.
var (
	refNext = refCycle(1 << 16)
	refMap  = make(map[uint64]uint64, 1024)
	refKeys = make([]uint64, 2048)
	refSink uint64
)

// refCycle returns next[] forming one random cycle through [0,n)
// (xorshift-shuffled, fixed seed), so a walk along it misses the cache
// predictably.
func refCycle(n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint32, n)
	for i := range perm {
		next[perm[i]] = perm[(i+1)%n]
	}
	return next
}

// refKernelOnce runs the kernel once and returns its wall time.
func refKernelOnce() time.Duration {
	t0 := time.Now()
	j := uint32(0)
	for i := 0; i < 20000; i++ {
		j = refNext[j]
	}
	for i := uint64(0); i < 20000; i++ {
		refMap[(i*0x9e3779b97f4a7c15)&1023] += i
	}
	x := uint64(12345)
	for i := range refKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refKeys[i] = x
	}
	slices.Sort(refKeys)
	refSink += uint64(j) + refMap[5] + refKeys[0]
	return time.Since(t0)
}

// refKernel collects garbage, so no collection in progress slows the
// kernel, and returns the fastest of three runs: a single run can be
// cut by an interrupt.
func refKernel() time.Duration {
	runtime.GC()
	best := refKernelOnce()
	for range 2 {
		best = min(best, refKernelOnce())
	}
	return best
}
