// Package expt runs the paper's evaluation (§7, Appendix E): weak
// scaling for Table 2 / Figures 7, 8, 12, the overpartitioning sweeps of
// Figures 10 and 11, the §7.3 comparison against single-level sorters,
// the delivery/all-to-all ablations, and the sim-vs-native backend
// comparison. Every run validates its output (locally sorted, globally
// ordered across PEs, permutation preserved) before reporting times.
package expt

import (
	"fmt"
	"io"

	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/core"
	"pmsort/internal/delivery"
	"pmsort/internal/native"
	"pmsort/internal/seq"
	"pmsort/internal/sim"
	"pmsort/internal/workload"
)

// Algo selects a sorting algorithm.
type Algo int

const (
	// AMS is adaptive multi-level sample sort (§6).
	AMS Algo = iota
	// RLM is recurse-last multiway mergesort (§5).
	RLM
	// MP is the MP-sort style single-level baseline (§7.3).
	MP
	// GV is single-level sample sort with centralized splitters.
	GV
	// Bitonic is Batcher's bitonic sort over the PEs.
	Bitonic
	// Hist is the Solomonik-Kale style histogram sort (§3).
	Hist
	// HCQ is hypercube parallel quicksort (§6's r=O(1) extreme).
	HCQ
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AMS:
		return "AMS-sort"
	case RLM:
		return "RLM-sort"
	case MP:
		return "MP-sort"
	case GV:
		return "GV-sample-sort"
	case Bitonic:
		return "bitonic"
	case Hist:
		return "histogram-sort"
	case HCQ:
		return "hc-quicksort"
	}
	return "invalid"
}

// Spec describes one run.
type Spec struct {
	Algo          Algo
	P             int
	PerPE         int
	Levels        int
	Kind          workload.Kind
	Seed          uint64
	Oversampling  float64
	Overpartition int
	Delivery      delivery.Options
	TieBreak      bool
	// Keyed installs Config.Key, the exact prefix: classification,
	// merges, and local sorts run on uint64 keys (the local sorts as
	// stable radix sorts), with output byte-identical to the
	// comparator kernels. The harness supplies the identity key for its
	// uint64 workloads (and the order key for the torture harness's
	// struct elements).
	Keyed bool
	// PrefixMode selects the comparator path's prefix cache (ignored by
	// keyed runs, whose Key takes precedence).
	PrefixMode PrefixMode
}

// PrefixMode selects how a comparator-path run uses the prefix cache.
type PrefixMode int

const (
	// PrefixAuto (the zero value) leaves the cache to core's automatic
	// derivation.
	PrefixAuto PrefixMode = iota
	// PrefixOff disables the cache (core.Config.NoPrefix): every local
	// kernel runs on the comparator only.
	PrefixOff
	// PrefixCoarse installs a deliberately non-injective Config.Prefix
	// hook (the harness supplies it per element type), exercising the
	// equal-prefix fallbacks of every kernel.
	PrefixCoarse
)

// String names the mode for logs.
func (m PrefixMode) String() string {
	switch m {
	case PrefixAuto:
		return "auto"
	case PrefixOff:
		return "off"
	case PrefixCoarse:
		return "coarse"
	}
	return "invalid"
}

func (spec Spec) config() core.Config {
	return core.Config{
		Levels:        spec.Levels,
		Oversampling:  spec.Oversampling,
		Overpartition: spec.Overpartition,
		Seed:          spec.Seed,
		TieBreak:      spec.TieBreak,
		Delivery:      spec.Delivery,
		NoPrefix:      spec.PrefixMode == PrefixOff,
	}
}

// Result reports one validated run.
type Result struct {
	// TotalNS is the makespan (max over PEs) in virtual ns.
	TotalNS int64
	// PhaseNS is the per-phase maximum over PEs, accumulated over levels.
	PhaseNS [core.NumPhases]int64
	// LevelPhaseNS is the per-level per-phase maximum over PEs (rows as
	// in Stats.LevelPhaseNS; ragged rank vectors are max-merged row-wise).
	LevelPhaseNS [][core.NumPhases]int64
	// OutImbalance is max_PE |out|·p/n (1 = perfectly balanced output).
	OutImbalance float64
	// LevelImbalance is the largest per-level group imbalance (AMS).
	LevelImbalance float64
	// MaxMsgsRecv is the largest per-PE received-message count.
	MaxMsgsRecv int64
}

const tagValidate = 0x6f0001

// runAlgo dispatches the spec's algorithm on any backend.
func runAlgo(c comm.Communicator, spec Spec, data []uint64) ([]uint64, *core.Stats) {
	less := func(a, b uint64) bool { return a < b }
	var key func(uint64) uint64
	if spec.Keyed {
		key = func(x uint64) uint64 { return x }
	}
	// The coarse hook drops the low byte: order-preserving, heavily
	// non-injective on the small-range workloads.
	return runAlgoE(c, spec, data, less, key, func(x uint64) uint64 { return x >> 8 })
}

// validate panics unless out is this PE's slice of a globally sorted
// permutation of the input. Collective; backend-neutral.
func validate(c comm.Communicator, inCount int64, out []uint64) {
	less := func(a, b uint64) bool { return a < b }
	if !seq.IsSorted(out, less) {
		panic(fmt.Sprintf("expt: PE %d output not locally sorted", c.Rank()))
	}
	// Count preservation.
	totalIn := coll.Allreduce(c, inCount, 1, func(a, b int64) int64 { return a + b })
	totalOut := coll.Allreduce(c, int64(len(out)), 1, func(a, b int64) int64 { return a + b })
	if totalIn != totalOut {
		panic(fmt.Sprintf("expt: element count changed %d -> %d", totalIn, totalOut))
	}
	// Boundary order: my max must not exceed the next PE's min.
	var myMax uint64
	if len(out) > 0 {
		myMax = out[len(out)-1]
	}
	// Propagate the running maximum left-to-right so empty PEs pass
	// their predecessor's max along.
	if c.Rank() > 0 {
		pl, _ := c.Recv(c.Rank()-1, tagValidate)
		prevMax := pl.(uint64)
		if len(out) > 0 && out[0] < prevMax {
			panic(fmt.Sprintf("expt: PE %d starts below PE %d's max", c.Rank(), c.Rank()-1))
		}
		if len(out) == 0 || myMax < prevMax {
			myMax = prevMax
		}
	}
	if c.Rank() < c.Size()-1 {
		c.Send(c.Rank()+1, tagValidate, myMax, 1)
	}
}

// RunOn generates this PE's workload slice, sorts it with the spec's
// algorithm on the given communicator, and validates the result —
// backend-neutral, so rank processes of a TCP cluster (cmd/sortnode,
// the backends experiment) share the exact code path of the in-process
// backends. Collective call.
func RunOn(c comm.Communicator, spec Spec) ([]uint64, *core.Stats) {
	data := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, c.Rank())
	return RunData(c, spec, data)
}

// RunData sorts caller-supplied per-PE data with the spec's algorithm
// and validates the result (locally sorted, globally ordered, count
// preserved) before returning it — the entry point for callers that
// bring their own input, like the sort service's raw-key jobs
// (internal/svc). The input slice is consumed. Collective call; spec's
// workload fields (Kind, Seed, PerPE) are ignored.
func RunData(c comm.Communicator, spec Spec, data []uint64) ([]uint64, *core.Stats) {
	inCount := int64(len(data))
	out, st := runAlgo(c, spec, data)
	validate(c, inCount, out)
	return out, st
}

// Run executes and validates one run on the simulated backend. It panics
// if the output is not a globally sorted permutation of the input.
func Run(spec Spec) Result {
	m := sim.NewDefault(spec.P)
	var res Result
	outLens := make([]int64, spec.P)
	allStats := make([]*core.Stats, spec.P)
	msgs := make([]int64, spec.P)
	m.Run(func(pe *sim.PE) {
		pe.ResetCounters()
		c := sim.World(pe)
		data := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, pe.Rank())
		inCount := int64(len(data))
		out, st := runAlgo(c, spec, data)
		allStats[pe.Rank()] = st
		outLens[pe.Rank()] = int64(len(out))
		msgs[pe.Rank()] = pe.MsgsRecv

		// Validation (outside the timed region — stats are captured).
		validate(c, inCount, out)
	})

	n := int64(spec.P) * int64(spec.PerPE)
	for rank := 0; rank < spec.P; rank++ {
		st := allStats[rank]
		if st.TotalNS > res.TotalNS {
			res.TotalNS = st.TotalNS
		}
		for ph := 0; ph < int(core.NumPhases); ph++ {
			if st.PhaseNS[ph] > res.PhaseNS[ph] {
				res.PhaseNS[ph] = st.PhaseNS[ph]
			}
		}
		res.LevelPhaseNS = maxLevels(res.LevelPhaseNS, st.LevelPhaseNS)
		if st.MaxImbalance > res.LevelImbalance {
			res.LevelImbalance = st.MaxImbalance
		}
		if n > 0 {
			imb := float64(outLens[rank]) * float64(spec.P) / float64(n)
			if imb > res.OutImbalance {
				res.OutImbalance = imb
			}
		}
		if msgs[rank] > res.MaxMsgsRecv {
			res.MaxMsgsRecv = msgs[rank]
		}
	}
	return res
}

// NativeResult reports one validated run on the native shared-memory
// backend. All times are wall-clock nanoseconds.
type NativeResult struct {
	// WallNS is the wall-clock makespan of the whole Run (including
	// input generation and validation overheads outside the sort).
	WallNS int64
	// SortNS is the largest per-PE Stats.TotalNS — the wall-clock time
	// of the sort proper, barrier to barrier.
	SortNS int64
	// PhaseNS is the per-phase maximum over PEs.
	PhaseNS [core.NumPhases]int64
	// LevelPhaseNS is the per-level per-phase maximum over PEs.
	LevelPhaseNS [][core.NumPhases]int64
	// OutImbalance is max_PE |out|·p/n.
	OutImbalance float64
}

// maxLevels max-merges one rank's per-level phase vector into the
// aggregate, growing the aggregate to the deeper of the two.
func maxLevels(agg, st [][core.NumPhases]int64) [][core.NumPhases]int64 {
	for len(agg) < len(st) {
		agg = append(agg, [core.NumPhases]int64{})
	}
	for lv := range st {
		for ph := 0; ph < int(core.NumPhases); ph++ {
			if st[lv][ph] > agg[lv][ph] {
				agg[lv][ph] = st[lv][ph]
			}
		}
	}
	return agg
}

// RunNative executes and validates one run on the native backend (p
// goroutines, real data movement, no virtual time). It panics if the
// output is not a globally sorted permutation of the input.
func RunNative(spec Spec) NativeResult {
	m := native.New(spec.P)
	var res NativeResult
	outLens := make([]int64, spec.P)
	allStats := make([]*core.Stats, spec.P)
	// Generate inputs up front so the measured region is dominated by
	// sorting, not by the workload generator.
	locals := make([][]uint64, spec.P)
	for rank := range locals {
		locals[rank] = workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, rank)
	}
	dur := m.Run(func(c comm.Communicator) {
		data := locals[c.Rank()]
		inCount := int64(len(data))
		out, st := runAlgo(c, spec, data)
		allStats[c.Rank()] = st
		outLens[c.Rank()] = int64(len(out))
		validate(c, inCount, out)
	})
	res.WallNS = dur.Nanoseconds()

	for rank := 0; rank < spec.P; rank++ {
		res.absorb(allStats[rank], outLens[rank], spec)
	}
	return res
}

// absorb folds one rank's run outcome into the aggregate: per-phase and
// total maxima over ranks, and the output imbalance max_PE |out|·p/n.
func (res *NativeResult) absorb(st *core.Stats, outLen int64, spec Spec) {
	if st.TotalNS > res.SortNS {
		res.SortNS = st.TotalNS
	}
	for ph := 0; ph < int(core.NumPhases); ph++ {
		if st.PhaseNS[ph] > res.PhaseNS[ph] {
			res.PhaseNS[ph] = st.PhaseNS[ph]
		}
	}
	res.LevelPhaseNS = maxLevels(res.LevelPhaseNS, st.LevelPhaseNS)
	if n := int64(spec.P) * int64(spec.PerPE); n > 0 {
		imb := float64(outLen) * float64(spec.P) / float64(n)
		if imb > res.OutImbalance {
			res.OutImbalance = imb
		}
	}
}

// RunReps runs the spec `reps` times with varied seeds.
func RunReps(spec Spec, reps int, progress io.Writer) []Result {
	out := make([]Result, reps)
	for i := 0; i < reps; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)*0x1000003
		if progress != nil {
			fmt.Fprintf(progress, "# %-9v p=%-6d n/p=%-7d k=%d rep %d/%d\n",
				spec.Algo, spec.P, spec.PerPE, spec.Levels, i+1, reps)
		}
		out[i] = Run(s)
	}
	return out
}
