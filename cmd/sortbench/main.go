// Command sortbench regenerates every table and figure of the paper's
// evaluation section (§7, Appendix E) on the simulated machine, and
// compares the simulated backend against the native shared-memory
// backend (virtual time next to wall-clock time). See DESIGN.md §3 for
// the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
//
// Usage:
//
//	sortbench -experiment all                 # everything, default grids
//	sortbench -experiment table2 -reps 5
//	sortbench -experiment fig8 -ps 512,2048 -perpe 1000,10000
//	sortbench -experiment fig10 -p 256 -n 10000
//	sortbench -experiment backends -ntotal 100000  # sim vs native vs TCP cluster
//	sortbench -experiment torture -seed 1027       # replay one torture case
//	sortbench -experiment torture -seed 1000 -count 100  # seeded sweep
//	sortbench -quick                          # small grids for a smoke run
//	sortbench -trace trace.json -report -     # one traced AMS run (native p=4):
//	                                          # Chrome trace JSON + text report
//	sortbench -trace sim.json -tracebackend sim -tracep 64   # virtual-time trace
//	sortbench -trace tcp.json -tracebackend tcp  # one process per rank, merged at rank 0
//	sortbench -events events.txt              # raw simulator message/event dump
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pmsort/internal/expt"
)

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: bad integer list %q: %v\n", s, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	// A sortbench process doubles as one rank of the TCP cluster the
	// backends experiment launches (one re-execution per rank).
	expt.MaybeRunTCPChild()
	var (
		experiment = flag.String("experiment", "all", "table1|table2|fig7|fig8|fig10|fig11|fig12|compare|delivery|alltoall|backends|torture|all")
		psFlag     = flag.String("ps", "", "comma-separated PE counts (default 512,2048,8192)")
		perpeFlag  = flag.String("perpe", "", "comma-separated n/p values (default 1000,10000,100000)")
		reps       = flag.Int("reps", 3, "repetitions per configuration (paper: 5)")
		seed       = flag.Uint64("seed", 42, "base random seed")
		sweepP     = flag.Int("p", 256, "PE count for the fig10/fig11 sweeps")
		sweepN     = flag.Int("n", 10000, "n/p for the fig10/fig11 sweeps")
		nativeN    = flag.Int("ntotal", 200_000, "TOTAL element count for the backends experiment (split over p)")
		count      = flag.Int("count", 1, "number of consecutive-seed cases for the torture experiment")
		quick      = flag.Bool("quick", false, "small grids for a fast smoke run")
		noTCP      = flag.Bool("notcp", false, "skip the multi-process TCP row of the backends experiment")
		kernels    = flag.String("kernels", "keyed,cmp,cmp+prefix", "backends experiment: comma-separated local-kernel rows (keyed|cmp|cmp+prefix)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		traceOut   = flag.String("trace", "", "run one traced AMS sort and write the merged Chrome trace JSON here (chrome://tracing / Perfetto); skips the experiments")
		reportOut  = flag.String("report", "", "with/instead of -trace: write the traced run's plain-text span+counter report here ('-' = stdout)")
		traceBack  = flag.String("tracebackend", "native", "backend for the traced run: sim|native|tcp")
		traceP     = flag.Int("tracep", 4, "PE count for the traced run")
		eventsOut  = flag.String("events", "", "run one AMS sort on the simulator (-tracep PEs) and dump its raw send/recv/mark event list here ('-' = stdout), with a count summary on stderr; skips the experiments")
	)
	flag.Parse()

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	// Traced run: one instrumented AMS sort on the chosen backend, merged
	// multi-rank trace (or the simulator's raw event list) out, no
	// experiment tables.
	traceSpec := func() expt.Spec {
		p := *traceP
		k := 1
		if p >= 4 {
			k = 2 // multi-level traces show the per-level span hierarchy
		}
		return expt.Spec{Algo: expt.AMS, P: p, PerPE: *nativeN / p, Levels: k, Seed: *seed, Keyed: true}
	}
	if *traceOut != "" || *reportOut != "" {
		if err := expt.TraceRun(traceSpec(), *traceBack, *traceOut, *reportOut, progress); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *eventsOut != "" {
		if err := writeEvents(traceSpec(), *eventsOut, progress); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opt := expt.SuiteOptions{
		Ps:     parseInts(*psFlag),
		PerPEs: parseInts(*perpeFlag),
		Reps:   *reps,
		Seed:   *seed,
	}
	opt.Progress = progress
	if *quick {
		if opt.Ps == nil {
			opt.Ps = []int{64, 256, 1024}
		}
		if opt.PerPEs == nil {
			opt.PerPEs = []int{256, 2048, 16384}
		}
		if *sweepP == 256 {
			*sweepP = 64
		}
		if *sweepN == 10000 {
			*sweepN = 1024
		}
	}
	opt = opt.Defaults()
	w := os.Stdout

	needWeak := map[string]bool{"table2": true, "fig7": true, "fig8": true, "fig12": true, "all": true}
	var weak *expt.WeakData
	if needWeak[*experiment] {
		algos := []expt.Algo{expt.AMS}
		if *experiment == "fig7" || *experiment == "all" {
			algos = append(algos, expt.RLM)
		}
		weak = expt.RunWeakScaling(opt, algos)
	}

	// Torture is a repro/soak tool, not a paper experiment: it never runs
	// under -experiment all, and a failed invariant exits non-zero.
	if *experiment == "torture" {
		if err := expt.Torture(w, *seed, *count, progress); err != nil {
			os.Exit(1)
		}
		return
	}

	section := func(name string, fn func()) {
		if *experiment == name || *experiment == "all" {
			fn()
			fmt.Fprintln(w)
		}
	}
	section("table1", func() { expt.Table1(w, nil) })
	section("table2", func() { weak.Table2(w) })
	section("fig7", func() { weak.Fig7(w) })
	section("fig8", func() { weak.Fig8(w) })
	section("fig10", func() { expt.Fig10(w, *sweepP, *sweepN, *reps, *seed, progress) })
	section("fig11", func() { expt.Fig11(w, *sweepP, *sweepN, *reps, *seed, progress) })
	section("fig12", func() { weak.Fig12(w) })
	section("compare", func() { expt.Compare(w, opt) })
	section("delivery", func() { expt.DeliveryAblation(w, min(opt.Ps[len(opt.Ps)-1], 512), 1000, *reps, *seed, progress) })
	section("alltoall", func() { expt.AlltoallAblation(w, nil, 1000, *reps, *seed, progress) })
	// The sim-vs-native backend comparison runs real goroutines, so its
	// PE counts follow the host, not the simulated grids.
	section("backends", func() {
		ps := []int{1, 2, 4, 8, 16}
		n := *nativeN
		if *quick {
			ps = []int{1, 2, 4}
			if n == 200_000 {
				n = 20_000
			}
		}
		ks := strings.Split(*kernels, ",")
		for i := range ks {
			ks[i] = strings.TrimSpace(ks[i])
		}
		if err := expt.Backends(w, ps, n, *reps, *seed, !*noTCP, ks, progress); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			os.Exit(2)
		}
	})
}

// writeEvents dumps spec's simulator event trace to path ('-' = stdout)
// and reports the event counts on progress.
func writeEvents(spec expt.Spec, path string, progress io.Writer) error {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer f.Close()
	}
	w := bufio.NewWriter(f)
	summary, err := expt.EventTrace(spec, w)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if progress != nil {
		fmt.Fprintln(progress, summary)
	}
	if path != "-" {
		return f.Close()
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
