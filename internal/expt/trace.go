package expt

import (
	"fmt"
	"io"
	"os"

	"pmsort/internal/comm"
	"pmsort/internal/native"
	"pmsort/internal/obs"
	"pmsort/internal/sim"
	"pmsort/internal/workload"
)

// TraceBackends names the backends a traced run can target.
var TraceBackends = []string{"sim", "native", "tcp"}

// writeTraceFiles validates the merged trace and writes the Chrome
// trace-event JSON and/or the plain-text report (empty paths skipped).
func writeTraceFiles(trace *obs.Trace, tracePath, reportPath string) error {
	if err := trace.Validate(); err != nil {
		return fmt.Errorf("trace: invalid merged trace: %w", err)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if reportPath != "" {
		if reportPath == "-" {
			return trace.WriteReport(os.Stdout)
		}
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		if err := trace.WriteReport(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// EventTrace sorts the spec's workload once on the simulator with the
// raw event recorder on and writes every send, receive, and PE.Mark
// (the sort is bracketed by "sort start"/"sort done" marks) to w, one
// line per event with its virtual timestamp. It returns a one-line
// summary of the event counts.
func EventTrace(spec Spec, w io.Writer) (string, error) {
	m := sim.NewDefault(spec.P)
	m.EnableTracing()
	m.Run(func(pe *sim.PE) {
		data := workload.Local(spec.Kind, spec.Seed, spec.P, spec.PerPE, pe.Rank())
		pe.Mark("sort start")
		runAlgo(sim.World(pe), spec, data)
		pe.Mark("sort done")
	})
	counts := map[sim.EventKind]int{}
	var words int64
	for _, ev := range m.Trace() {
		counts[ev.Kind]++
		if ev.Kind == sim.EvSend {
			words += ev.Words
		}
	}
	summary := fmt.Sprintf("p=%d n/p=%d levels=%d: %d sends (%d words), %d recvs, %d marks",
		spec.P, spec.PerPE, spec.Levels, counts[sim.EvSend], words, counts[sim.EvRecv], counts[sim.EvMark])
	return summary, m.WriteTrace(w)
}

// TraceRun executes one fully traced, validated sort on the chosen
// backend ("sim", "native", or "tcp") and writes the merged multi-rank
// trace: Chrome trace-event JSON (chrome://tracing / Perfetto) to
// tracePath and/or the plain-text span/counter report to reportPath
// ("-" for stdout; empty paths are skipped). The merged trace is
// schema-validated (every rank present exactly once, spans closed,
// nested, and per-rank monotone) before anything is written.
//
// The tcp backend launches spec.P rank processes of this executable on
// loopback (the caller must invoke MaybeRunTCPChild at startup); rank
// 0 gathers the per-rank snapshots with clock-offset alignment and
// writes the files itself.
func TraceRun(spec Spec, backend, tracePath, reportPath string, progress io.Writer) error {
	if tracePath == "" && reportPath == "" {
		return fmt.Errorf("trace: need a -trace and/or -report output path")
	}
	if progress != nil {
		fmt.Fprintf(progress, "# trace backend=%s algo=%v p=%d n/p=%d k=%d\n",
			backend, spec.Algo, spec.P, spec.PerPE, spec.Levels)
	}
	var trace *obs.Trace
	switch backend {
	case "sim":
		m := sim.NewDefault(spec.P)
		m.EnableObs()
		m.Run(func(pe *sim.PE) {
			c := sim.World(pe)
			RunOn(c, spec)
			if t := obs.Gather(c, m.ObsRecorder(pe.Rank())); t != nil {
				trace = t
			}
		})
	case "native":
		m := native.New(spec.P)
		m.EnableObs()
		m.Run(func(c comm.Communicator) {
			RunOn(c, spec)
			if t := obs.Gather(c, m.ObsRecorder(c.Rank())); t != nil {
				trace = t
			}
		})
	case "tcp":
		_, err := RunTCPTraced(spec, tracePath, reportPath)
		return err // rank 0 validated and wrote the files
	default:
		return fmt.Errorf("trace: unknown backend %q (want sim, native, or tcp)", backend)
	}
	return writeTraceFiles(trace, tracePath, reportPath)
}
