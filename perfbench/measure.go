package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// instance is one set-up workload: a mesh, its inputs and, for the
// service workloads, a running service.
type instance interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// op runs one timed operation for the given client and validates it
	// outside the timed interval. plant corrupts the result before
	// validation (self-test only).
	op(client int, plant bool) sample
	// finish is called once after the window, before close.
	finish(w *window)
	close() error

	// The rest is for instances set up on a traced mesh.

	// resetTrace zeroes every trace source after set-up and warm-up.
	resetTrace()
	// collectTrace reads the trace sources after the traced window.
	collectTrace(w *window) *traceStats
	// rungs runs the α/β rungs on the mesh (after the window).
	rungs() (rungResult, error)
}

// sample is the outcome of one operation.
type sample struct {
	start    time.Time
	latMS    float64 // timed interval; +Inf when the op failed
	err      error   // failure or validation error
	clientMS float64 // harness work around the op: input copy/encode, decode, validation
	elems    int64
	layers   map[string]float64 // always-on per-op layer values
	end      time.Time          // when the client was done with the op, validation included
}

// window is the record of one measured window.
type window struct {
	attempted, failed, ok int
	start                 time.Time
	elapsedS              float64
	timedS                float64 // sum of timed intervals of successful ops
	elems                 int64
	okOps                 []sample // successful ops, in order per client
	byEnd                 []sample // every op, in order of completion
	firstErr              error

	allocMB, gcs, pauseMS float64 // runtime deltas over the window, per op
	cpuMS                 float64 // process CPU time (user+system) per op

	// rssMB is the process's peak resident set when the window's
	// memOps-th op completed (at its end without memOps or if fewer
	// completed), and rssOps the op count it was read at.
	rssMB  float64
	rssOps int

	// counts are window-level counters an instance fills in finish
	// (the service's retried and rejected jobs).
	counts map[string]float64

	// sliceOps is the op count of one slice of the window (see slices).
	sliceOps int

	// latencyIsWall: throughput is completed work over the wall-clock
	// window (the service's concurrent clients), not over the summed
	// timed intervals (the bulk sorts, which alternate with untimed
	// validation).
	latencyIsWall bool
}

// measure drives inst with its closed-loop clients for the given number
// of seconds (or o.maxOps ops per client, whichever comes first). With
// wl.memOps > 0 the peak resident set is read after memOps ops rather
// than at the end, so that memory the program retains per op (the
// service keeps every job's record) does not grow with throughput.
func measure(inst instance, o options, seconds float64, wl workloadSpec) *window {
	memOps := wl.memOps
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuMS()

	n := inst.clients()
	per := make([][]sample, n)
	var done atomic.Int64
	var rssMB atomic.Uint64 // math.Float64bits; 0 until read
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && (o.maxOps == 0 || i < o.maxOps); i++ {
				s := inst.op(c, o.plant && c == 0 && i == 0)
				s.end = time.Now()
				per[c] = append(per[c], s)
				if done.Add(1) == int64(memOps) {
					rssMB.Store(math.Float64bits(peakRSSMB()))
				}
			}
		}(c)
	}
	wg.Wait()

	w := &window{
		start:    start,
		elapsedS: time.Since(start).Seconds(),
		counts:   map[string]float64{},
		rssMB:    math.Float64frombits(rssMB.Load()),
		rssOps:   memOps,
		sliceOps: wl.sliceOps,
	}
	if memOps == 0 || int(done.Load()) < memOps {
		w.rssMB = peakRSSMB()
		w.rssOps = int(done.Load())
	}
	runtime.ReadMemStats(&after)
	cpu := cpuMS() - cpu0
	for _, ss := range per {
		for _, s := range ss {
			w.add(s)
		}
	}
	slices.SortFunc(w.byEnd, func(a, b sample) int { return a.end.Compare(b.end) })
	inst.finish(w)
	ops := float64(max(w.attempted, 1))
	w.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / ops
	w.gcs = float64(after.NumGC-before.NumGC) / ops
	w.pauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / ops
	w.cpuMS = cpu / ops
	return w
}

// cpuMS is the CPU time (user and system) this process has used so far,
// in ms. Unlike wall time it does not grow when a neighbour on a shared
// host steals the CPU.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

func (w *window) add(s sample) {
	w.attempted++
	w.byEnd = append(w.byEnd, s)
	if s.err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = s.err
		}
		return
	}
	w.ok++
	w.timedS += s.latMS / 1e3
	w.elems += s.elems
	w.okOps = append(w.okOps, s)
}

// lat returns the latency of every op (+Inf for failed ones).
func (w *window) lat() []float64 { return latOf(w.byEnd) }

func latOf(ops []sample) []float64 {
	lat := make([]float64, len(ops))
	for i, s := range ops {
		lat[i] = s.latMS
	}
	return lat
}

// layer returns one always-on layer value of every successful op.
func (w *window) layer(name string) []float64 {
	vs := make([]float64, len(w.okOps))
	for i, s := range w.okOps {
		vs[i] = s.layers[name]
	}
	return vs
}

// okLat returns the latency of every successful op, aligned with okOps.
func (w *window) okLat() []float64 { return latOf(w.okOps) }

// p50 is the median op latency in ms.
func (w *window) p50() float64 { return median(w.lat()) }

// tailPct is the percentile op_tail_ms reports. In a 100-op slice its
// nearest rank is the 11th-largest latency, the highest percentile with
// ten samples beyond it; in a 10-sort slice it is the second-largest.
const tailPct = 90

// slices cuts the window's ops, in order of completion, into
// consecutive slices of w.sliceOps (the remainder is dropped); nil when
// there are fewer than two. A window of at least two slices reports its
// tail and throughput as medians over its slices, so that a burst of
// host interference (CPU steal on a shared machine), which slows ops
// close together in time, moves one slice instead of the whole figure.
func (w *window) slices() [][]sample {
	var out [][]sample
	for i := 0; w.sliceOps > 0 && i+w.sliceOps <= len(w.byEnd); i += w.sliceOps {
		out = append(out, w.byEnd[i:i+w.sliceOps])
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

// tailOf returns the nearest-rank tailPct percentile of lat: the
// smallest latency with at least tailPct% of the samples at or below it.
func tailOf(lat []float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(lat))
	return s[(len(s)*tailPct+99)/100-1]
}

// tail is op_tail_ms: tailOf the whole window, or the median of tailOf
// each slice. It also says how it was taken.
func (w *window) tail() (ms float64, how string) {
	sl := w.slices()
	if sl == nil {
		return tailOf(w.lat()), fmt.Sprintf("of %d ops", w.attempted)
	}
	tails := make([]float64, len(sl))
	for k, ops := range sl {
		tails[k] = tailOf(latOf(ops))
	}
	return median(tails), fmt.Sprintf("of each %d-op slice, median over %d slices (%d ops)", w.sliceOps, len(sl), w.attempted)
}

func (w *window) tailNote() string {
	ms, how := w.tail()
	note := fmt.Sprintf("op_tail_ms is p%d %s = %.4g ms; peak_rss_mb read after %d ops; %d failed",
		tailPct, how, ms, w.rssOps, w.failed)
	if w.firstErr != nil {
		note += fmt.Sprintf("; first failure: %v", w.firstErr)
	}
	if s := slices.Sorted(slices.Values(w.lat())); len(s) > 0 {
		note += "\n  latency of the whole window (ms):"
		for _, q := range []int{10, 50, 90, 99} {
			note += fmt.Sprintf(" p%d %.4g", q, s[(len(s)*q+99)/100-1])
		}
	}
	return note
}

// melemPerS is elements sorted per second: over the summed timed
// intervals for the bulk workloads, over wall-clock time for the
// service — for a window of several slices the median over the slices,
// a service slice timed from the previous slice's last completion.
func (w *window) melemPerS() float64 {
	sl := w.slices()
	if sl == nil {
		if w.latencyIsWall {
			return float64(w.elems) / 1e6 / w.elapsedS
		}
		return float64(w.elems) / 1e6 / w.timedS
	}
	rates := make([]float64, len(sl))
	from := w.start
	for k, ops := range sl {
		var elems int64
		var timedS float64
		for _, s := range ops {
			if s.err == nil {
				elems += s.elems
				timedS += s.latMS / 1e3
			}
		}
		to := ops[len(ops)-1].end
		if w.latencyIsWall {
			timedS = to.Sub(from).Seconds()
		}
		rates[k] = float64(elems) / 1e6 / timedS
		from = to
	}
	return median(rates)
}

// endToEnd fills the end-to-end metrics of the window.
func (w *window) endToEnd(r report) {
	r.set("op_p50_ms", "ms", w.p50())
	tail, _ := w.tail()
	r.set("op_tail_ms", "ms", tail)
	r.set("melem_per_s", "Melem/s", w.melemPerS())
	r.set("peak_rss_mb", "MiB", w.rssMB)
}

// alwaysOnMetrics lists the per-layer metrics every run books from the
// program's always-on Stats and JobStatus, with their units; the median
// over successful ops is reported.
var alwaysOnMetrics = []struct{ name, unit string }{
	{"core.splitter_ms", "ms"},
	{"core.bucket_ms", "ms"},
	{"core.delivery_ms", "ms"},
	{"core.localsort_ms", "ms"},
	{"core.L0.splitter_ms", "ms"},
	{"core.L0.bucket_ms", "ms"},
	{"core.L0.delivery_ms", "ms"},
	{"core.L0.localsort_ms", "ms"},
	{"core.L1.splitter_ms", "ms"},
	{"core.L1.bucket_ms", "ms"},
	{"core.L1.delivery_ms", "ms"},
	{"core.L1.localsort_ms", "ms"},
	{"core.sort_ms", "ms"},
	{"core.outside_ms", "ms"},
	{"core.imbalance", "ratio"},
	{"svc.outside_ms", "ms"},
	{"svc.dispatch_gather_ms", "ms"},
	{"svc.req_kb", "KB"},
	{"svc.resp_kb", "KB"},
}

// alwaysOn fills the per-layer metrics every run books.
func (w *window) alwaysOn(r report, calibMS float64) {
	for _, m := range alwaysOnMetrics {
		r.set(m.name, m.unit, medianOr0(w.layer(m.name)))
	}
	r.set("svc.retried", "count", w.counts["svc.retried"])
	r.set("svc.rejected", "count", w.counts["svc.rejected"])
	r.set("runtime.alloc_mb_per_op", "MB", w.allocMB)
	r.set("runtime.gc_per_op", "count", w.gcs)
	r.set("runtime.gc_pause_ms", "ms", w.pauseMS)
	r.set("runtime.cpu_ms_per_op", "ms", w.cpuMS)
	r.set("harness.calib_ms", "ms", calibMS)
	client := make([]float64, len(w.byEnd))
	for i, s := range w.byEnd {
		client[i] = s.clientMS
	}
	r.set("harness.client_ms", "ms", median(client))
	r.set("fail_ratio", "ratio", float64(w.failed)/float64(max(w.attempted, 1)))
}

// median is the middle value (the mean of the two middle values for an
// even count), like Python's statistics.median; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
