package main

import (
	"math"
	"slices"
)

// workloadSpec describes one workload: why it is in the benchmark and
// how to set up an instance of it from a seed.
type workloadSpec struct {
	why    string
	setup  func(seed uint64, traced bool) (instance, error)
	memOps int // ops after which peak_rss_mb is read (0: at the window's end)
	// sliceOps is the op count of one slice: op_tail_ms and melem_per_s
	// are medians over a window's slices.
	sliceOps int
}

var workloads = map[string]workloadSpec{
	"bulk-keyed": {
		why:      "AMSSort levels=1 with Config.Key radix on 2^22 uniform uint64 (32 MB): local kernels and the bulk exchange, the paper's large-n/p regime",
		setup:    setupBulkKeyed,
		sliceOps: 10,
	},
	"bulk-records": {
		why:      "AMSSort levels=2 on 2^21 16-byte {K,V} records, K dup-heavy, Prefix=K: comparator+prefix kernels, struct codec, two exchange rounds",
		setup:    setupBulkRecords,
		sliceOps: 10,
	},
	"svc-tiny": {
		why:      "two closed-loop clients sending n=64 raw-key jobs through svc.Serve: the per-job fixed cost (round count x loopback latency)",
		setup:    setupSvcTiny,
		memOps:   1000,
		sliceOps: 100,
	},
	"svc-8k": {
		why:      "two closed-loop clients sending n=8192 raw-key jobs (uniform, dup-heavy, sorted): HTTP/JSON codec, scatter/gather, concurrent jobs",
		setup:    setupSvc8k,
		memOps:   500,
		sliceOps: 100,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

var inf = math.Inf(1)

// rng is splitmix64: the benchmark's own generator, so inputs depend on
// the seed alone and not on the program under test.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: mix64(seed ^ 0x5eed)} }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	return mix64(g.s)
}

// mix64 is the splitmix64 finalizer; summed over keys it is the
// order-independent multiset hash the keyed validation compares.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
