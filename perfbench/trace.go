package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pmsort"
)

// traceStats is what the traced half of a -trace 1 run measured.
type traceStats struct {
	per   report               // traced per-layer metrics
	table []tableRow           // self time of a median op by layer, without the residual
	snaps []pmsort.ObsSnapshot // per-rank obs snapshots, written out with the spans

	// opSelf[k][j] is op k's self time in selfMetrics[j], averaged over
	// ranks (nil when the spans do not split into one sort per op).
	opSelf [][]float64
}

type tableRow struct {
	layer string
	ms    float64
}

// spanSelf maps an obs span name to the per-layer self-time metric it
// is booked under. Spans not listed (the sort, level and phase
// wrappers) are core's own time.
var spanSelf = map[string]string{
	"sample":        "core.sample_ms",
	"splitter-sort": "fwis.splitter_sort_ms",
	"classify":      "seq.classify_ms",
	"piece-sort":    "seq.piecesort_ms",
	"local-sort":    "seq.localsort_ms",
	"merge":         "seq.merge_ms",
	"exchange":      "delivery.exchange_ms",
	"deliver":       "delivery.exchange_ms",
}

// selfMetrics lists the span self-time metrics in table order.
var selfMetrics = []string{
	"core.sample_ms", "fwis.splitter_sort_ms", "seq.classify_ms", "seq.piecesort_ms",
	"seq.localsort_ms", "seq.merge_ms", "delivery.exchange_ms", "core.self_ms",
}

// collect reads the wrapper counters and obs recorders of a traced mesh
// after a window of ops successful operations. Times are per op and
// averaged over ranks; message, byte and frame counts are per op and
// summed over ranks.
func (m *mesh) collect(ops int) *traceStats {
	ts := &traceStats{per: report{}}
	perOp := 1 / float64(max(ops, 1))
	perRank := perOp / ranks

	var words, sendNS, recvsMax int64
	for b, name := range blockNames {
		var msgs, blockWords, waitNS int64
		for _, st := range m.comms {
			msgs += st.msgs[b].Load()
			blockWords += st.words[b].Load()
			waitNS += st.recvWaitNS[b].Load()
		}
		words += blockWords
		ts.per.set(name+".msgs", "count", float64(msgs)*perOp)
		ts.per.set(name+".mb", "MB", float64(8*blockWords)/1e6*perOp)
		ts.per.set(name+".recv_wait_ms", "ms", float64(waitNS)/1e6*perRank)
	}
	for _, st := range m.comms {
		sendNS += st.sendNS.Load()
		recvsMax = max(recvsMax, st.recvs.Load())
	}
	ts.per.set("comm.send_ms", "ms", float64(sendNS)/1e6*perRank)
	ts.per.set("comm.recvs_max_rank", "count", float64(recvsMax)*perOp)

	self := map[string]float64{}
	ts.opSelf = make([][]float64, ops)
	for k := range ts.opSelf {
		ts.opSelf[k] = make([]float64, len(selfMetrics))
	}
	var frames, writevBytes, waitNS, depthMax int64
	for _, cl := range m.cls {
		snap := cl.ObsRecorder().Snapshot()
		ts.snaps = append(ts.snaps, snap)
		byOp := selfTimesByOp(snap.Spans)
		if len(byOp) != ops {
			ts.opSelf = nil
		}
		for k, times := range byOp {
			for name, ns := range times {
				j := slices.Index(selfMetrics, selfMetric(name))
				self[selfMetrics[j]] += float64(ns) / 1e6 * perRank
				if ts.opSelf != nil {
					ts.opSelf[k][j] += float64(ns) / 1e6 / ranks
				}
			}
		}
		for _, c := range snap.Counters {
			switch c.Name {
			case "net.frames.out":
				frames += c.Value
			case "net.writev.bytes":
				writevBytes += c.Value
			case "mbox.wait.ns":
				waitNS += c.Value
			case "mbox.depth.max":
				depthMax = max(depthMax, c.Value)
			}
		}
	}
	for _, name := range selfMetrics {
		ts.per.set(name, "ms", self[name])
	}
	ts.per.set("netcomm.frames_out", "count", float64(frames)*perOp)
	ts.per.set("netcomm.writev_mb", "MB", float64(writevBytes)/1e6*perOp)
	ts.per.set("netcomm.mbox_wait_ms", "ms", float64(waitNS)/1e6*perRank)
	ts.per.set("netcomm.mbox_depth_max", "count", float64(depthMax))
	ratio := 0.0
	if words > 0 {
		ratio = float64(writevBytes) / (8 * float64(words))
	}
	ts.per.set("wire.bytes_ratio", "ratio", ratio)
	return ts
}

// selfMetric is the self-time metric a span name is booked under.
func selfMetric(span string) string {
	if m, ok := spanSelf[span]; ok {
		return m
	}
	return "core.self_ms"
}

// bandRows averages per-op rows (rows[k][j] is op k's time in layer
// names[j]) over the ops whose latency lies between the 40th and 60th
// percentile of the window, so the table describes a median op rather
// than the mean.
func bandRows(names []string, lat []float64, rows [][]float64) []tableRow {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(lat[a], lat[b]) })
	lo := len(idx) * 2 / 5
	hi := max(len(idx)*3/5, lo+1)
	band := idx[lo:min(hi, len(idx))]
	out := make([]tableRow, len(names))
	for j, name := range names {
		out[j].layer = name
		for _, k := range band {
			out[j].ms += rows[k][j] / float64(len(band))
		}
	}
	return out
}

// selfTimesByOp splits a rank's spans into one group per sort — each
// sort is one top-level span with its children after it — and returns
// the self times of each group.
func selfTimesByOp(spans []pmsort.ObsSpan) []map[string]int64 {
	var out []map[string]int64
	start := -1
	for i, s := range spans {
		if s.Depth == 0 {
			if start >= 0 {
				out = append(out, selfTimes(spans[start:i]))
			}
			start = i
		}
	}
	if start >= 0 {
		out = append(out, selfTimes(spans[start:]))
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover. Spans are recorded in start order with
// their nesting depth, so a span's children are the following spans one
// level deeper, up to the next span at its own depth or above.
func selfTimes(spans []pmsort.ObsSpan) map[string]int64 {
	out := map[string]int64{}
	type open struct {
		i     int
		child int64
	}
	var stack []open
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := spans[top.i]
		out[s.Name] += s.End - s.Start - top.child
	}
	for i, s := range spans {
		if s.End < 0 {
			continue // still open: not part of a finished op
		}
		for len(stack) > 0 && spans[stack[len(stack)-1].i].Depth >= s.Depth {
			pop()
		}
		if len(stack) > 0 {
			stack[len(stack)-1].child += s.End - s.Start
		}
		stack = append(stack, open{i: i})
	}
	for len(stack) > 0 {
		pop()
	}
	return out
}

// printTable prints the self-time rows plus the unattributed residual,
// which makes the rows sum to the untraced end-to-end median. The
// residual holds the time no layer row covers and the difference
// between the traced and the untraced median op.
func (ts *traceStats) printTable(w io.Writer, untracedP50 float64) {
	var sum float64
	for _, r := range ts.table {
		fmt.Fprintf(w, "  %-44s %10.4f ms\n", r.layer, r.ms)
		sum += r.ms
	}
	fmt.Fprintf(w, "  %-44s %10.4f ms\n", "unattributed", untracedP50-sum)
	fmt.Fprintf(w, "  %-44s %10.4f ms\n", "= untraced op_p50_ms", untracedP50)
}

// harnessSpan is one timed operation as the harness saw it.
type harnessSpan struct {
	StartMS float64 `json:"start_ms"` // from the window's start
	DurMS   float64 `json:"dur_ms"`
	OK      bool    `json:"ok"`
}

// write stores the harness spans of window w and the per-rank obs
// snapshots as JSON under dir.
func (ts *traceStats) write(dir, workload string, seed uint64, w *window) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	ops := make([]harnessSpan, len(w.byEnd))
	for i, s := range w.byEnd {
		ops[i] = harnessSpan{
			StartMS: float64(s.start.Sub(w.start).Nanoseconds()) / 1e6,
			DurMS:   s.latMS,
			OK:      s.err == nil,
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Ops      []harnessSpan        `json:"ops"`
		Ranks    []pmsort.ObsSnapshot `json:"ranks"`
	}{workload, seed, ops, ts.snaps})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// rungResult holds the α/β rungs measured on the mesh.
type rungResult struct {
	pingpongUS   float64 // median 8-byte Send/Recv round trip, rank 0 ↔ 1
	alltoallvGBs float64 // 8 MB Deliver over the mesh
}

// tagPing is the rungs' own tag, outside every block the program uses.
const tagPing = 0x600001

// runRungs measures a loopback ping-pong between ranks 0 and 1 and an
// 8 MB all-to-all Deliver, both through the public API.
func runRungs(m *mesh) (rungResult, error) {
	const pings = 400
	rtt := make([]float64, 0, pings)
	if _, err := m.run(func(r int, c pmsort.Communicator) {
		switch r {
		case 0:
			for i := 0; i < pings; i++ {
				start := time.Now()
				c.Send(1, tagPing, []uint64{uint64(i)}, 1)
				c.Recv(1, tagPing)
				rtt = append(rtt, float64(time.Since(start).Nanoseconds())/1e3)
			}
		case 1:
			for i := 0; i < pings; i++ {
				pl, _ := c.Recv(0, tagPing)
				c.Send(0, tagPing, pl, 1)
			}
		}
	}); err != nil {
		return rungResult{}, fmt.Errorf("ping-pong: %w", err)
	}

	const total = 8 << 20 // bytes across all ranks
	per := total / 8 / ranks / ranks
	var secs []float64
	for rep := 0; rep < 5; rep++ {
		pieces := make([][][]uint64, ranks)
		for r := range pieces {
			pieces[r] = make([][]uint64, ranks)
			for j := range pieces[r] {
				pieces[r][j] = make([]uint64, per)
			}
		}
		d, err := m.run(func(r int, c pmsort.Communicator) {
			pmsort.Deliver(c, pieces[r], pmsort.DeliveryOptions{})
		})
		if err != nil {
			return rungResult{}, fmt.Errorf("alltoallv: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return rungResult{
		pingpongUS:   median(rtt),
		alltoallvGBs: total / 1e9 / median(secs),
	}, nil
}

// sortedKeys returns the keys of a metric report in order.
func sortedKeys(r report) []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
