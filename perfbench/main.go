// Command perfbench is pmsort's end-to-end benchmark. It brings up a
// p=4 TCP mesh on loopback inside this process through the public API
// (pmsort.NewTCPOpts, heartbeats and a stall window on), drives one
// workload against it for a fixed time, validates every operation
// outside the timed window, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run is split into an untraced half
// and a traced half and the metrics are the per-layer ones
// ("per_layer"), plus a per-layer self-time table on the text report.
// See README.md for the workloads and how to read the numbers.
//
//	bash perfbench/run.sh --workload bulk-keyed --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// ranks is the mesh size every workload runs on.
const ranks = 4

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int    // set-ups per untraced run (setupRuns); setup_s is their median
	traceDir string // where the traced run writes its spans
	maxOps   int    // stop each measured window after this many ops (0: time only)
	// plant corrupts one result before validation, so the self-test can
	// check that the validators catch a wrong answer.
	plant bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed all inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1: per-layer run (untraced half, then traced half)")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	o.setups = setupRuns
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	return runOptions(o, stdout, stderr)
}

// runOptions runs one configured invocation, prints the report and the
// JSON result line, and returns the exit code: 1 when any operation
// failed or was wrong.
func runOptions(o options, stdout, stderr io.Writer) int {
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or were wrong\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the named metrics of one run. Non-finite values (a
// failed op's +Inf latency in a percentile) are printed as -1 in the
// JSON; such a run is incorrect anyway.
type report map[string]metric

func (r report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1
	}
	r[name] = metric{Value: v, Unit: unit}
}

// print writes the metrics as an aligned, name-sorted table.
func (r report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range sortedKeys(r) {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r[n].Value, r[n].Unit)
	}
}

// execute runs one workload end to end and assembles the result.
func execute(o options, w io.Writer) (*result, error) {
	wl := workloads[o.workload]
	fmt.Fprintf(w, "perfbench %s: seed %d, %.3gs window, trace %v, p=%d TCP loopback ranks on GOMAXPROCS=%d (nproc %d)\n",
		o.workload, o.seed, o.seconds, o.trace, ranks, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "  workload: %s\n", wl.why)
	if o.trace {
		return executeTraced(o, wl, w)
	}

	// The window runs on the first set-up, so it starts in a process no
	// earlier set-up has left garbage or closed sockets in. The other
	// set-ups follow the window's tear-down and only time the bring-up.
	start := time.Now()
	inst, err := wl.setup(o.seed, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := []float64{time.Since(start).Seconds()}
	win := measure(inst, o, o.seconds, wl)
	calib := calibrate()
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	for len(setupS) < o.setups {
		runtime.GC()
		start := time.Now()
		inst, err := wl.setup(o.seed, false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setupS)+1, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("tearing down set-up %d: %w", len(setupS), err)
		}
	}

	e2e := report{}
	e2e.set("setup_s", "s", median(setupS))
	win.endToEnd(e2e)
	e2e.print(w, "end-to-end:")
	fmt.Fprintf(w, "  %s\n", win.tailNote())
	fmt.Fprintf(w, "  set-ups (s): %s\n", fmtList(setupS))

	always := report{}
	win.alwaysOn(always, calib)
	always.print(w, "per-layer (always-on bookkeeping of this run):")

	return &result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   e2e,
	}, nil
}

// executeTraced is the -trace 1 run: an untraced half for the always-on
// per-layer metrics and the overhead reference, then a traced half on a
// fresh mesh with the obs recorder, the communicator wrapper and the
// counting callbacks attached.
func executeTraced(o options, wl workloadSpec, w io.Writer) (*result, error) {
	half := o.seconds / 2

	plain, err := wl.setup(o.seed, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	untraced := measure(plain, o, half, wl)
	calib := calibrate()
	if err := plain.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	runtime.GC()

	inst, err := wl.setup(o.seed, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	inst.resetTrace()
	traced := measure(inst, o, half, wl)
	tr := inst.collectTrace(traced)
	rungs, rungErr := inst.rungs()
	closeErr := inst.close()
	if rungErr != nil {
		return nil, fmt.Errorf("α/β rungs: %w", rungErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("tear-down: %w", closeErr)
	}

	per := report{}
	untraced.alwaysOn(per, calib)
	for k, v := range tr.per {
		per[k] = v
	}
	per.set("netcomm.pingpong_us", "us", rungs.pingpongUS)
	per.set("coll.alltoallv_gbs", "GB/s", rungs.alltoallvGBs)
	u, t := untraced.p50(), traced.p50()
	per.set("harness.trace_overhead_pct", "%", 100*(t/u-1))
	per.print(w, "per-layer:")

	fmt.Fprintf(w, "self time of a median op (traced half: mean of the ops between p40 and p60 of %d; ranks averaged):\n", traced.ok)
	tr.printTable(w, u)
	fmt.Fprintf(w, "tracing overhead: traced p50 %.4g ms vs untraced p50 %.4g ms (%+.1f%%)\n", t, u, 100*(t/u-1))
	if path, err := tr.write(o.traceDir, o.workload, o.seed, traced); err != nil {
		fmt.Fprintf(w, "spans not written: %v\n", err)
	} else {
		fmt.Fprintf(w, "spans written to %s\n", path)
	}

	failed := untraced.failed + traced.failed
	return &result{
		Correct:   failed == 0,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   per,
	}, nil
}

// calibrate times a stdlib slices.Sort of a fixed 2²⁰-key input — work
// no change to pmsort can speed up — and returns the median of five
// runs in ms. Comparing it across runs separates host noise from
// program changes.
func calibrate() float64 {
	src := make([]uint64, 1<<20)
	g := newRNG(0xca1b)
	for i := range src {
		src[i] = g.next()
	}
	buf := make([]uint64, len(src))
	var ms []float64
	for i := 0; i < 5; i++ {
		copy(buf, src)
		start := time.Now()
		slices.Sort(buf)
		ms = append(ms, msSince(start))
	}
	return median(ms)
}

// peakRSSMB is the process's peak resident set in MiB (getrusage
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
