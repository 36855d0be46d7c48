package main

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"pmsort"
)

// bulk is a bulk-sort workload instance: each op hands every rank a
// private copy of its input, runs one collective AMSSort on the mesh,
// and validates the rank outputs.
type bulk[E any] struct {
	m     *mesh
	n     int   // total elements per sort
	in    [][]E // per-rank inputs, never handed to the program
	buf   [][]E // per-rank private copies, refilled before every op
	outs  [][]E
	stats []*pmsort.Stats

	less  []func(a, b E) bool // per rank (counting wrappers when traced)
	cfg   []pmsort.Config     // per rank
	calls []callCount         // per rank; traced only

	check   func(outs [][]E) error
	corrupt func(outs [][]E)
}

// callCount counts one rank's comparator and Key/Prefix hook calls. The
// sort stack calls them only on the rank's own goroutine, so plain
// fields suffice; the padding keeps ranks off each other's cache line.
type callCount struct {
	less, key int64
	_         [48]byte
}

// newBulk brings up a mesh, hands the generated inputs to it and runs
// one validated warm-up sort.
func newBulk[E any](in [][]E, traced bool, less func(a, b E) bool,
	cfg func(rank int, count *callCount) pmsort.Config,
	check func(outs [][]E) error, corrupt func(outs [][]E)) (*bulk[E], error) {
	m, err := newMesh(traced)
	if err != nil {
		return nil, err
	}
	b := &bulk[E]{
		m:       m,
		in:      in,
		buf:     make([][]E, ranks),
		outs:    make([][]E, ranks),
		stats:   make([]*pmsort.Stats, ranks),
		less:    make([]func(a, b E) bool, ranks),
		cfg:     make([]pmsort.Config, ranks),
		calls:   make([]callCount, ranks),
		check:   check,
		corrupt: corrupt,
	}
	for r := range in {
		b.n += len(in[r])
		b.buf[r] = make([]E, 0, len(in[r]))
		b.less[r] = less
		var count *callCount
		if traced {
			count = &b.calls[r]
			b.less[r] = func(x, y E) bool { count.less++; return less(x, y) }
		}
		b.cfg[r] = cfg(r, count)
	}
	if s := b.op(0, false); s.err != nil {
		_ = b.close()
		return nil, fmt.Errorf("warm-up sort: %w", s.err)
	}
	return b, nil
}

func (b *bulk[E]) clients() int { return 1 }

func (b *bulk[E]) op(_ int, plant bool) sample {
	h := time.Now()
	for r := range b.buf {
		b.buf[r] = append(b.buf[r][:0], b.in[r]...)
	}
	clientMS := msSince(h)

	start := time.Now()
	wall, err := b.m.run(func(r int, c pmsort.Communicator) {
		b.outs[r], b.stats[r] = pmsort.AMSSort(c, b.buf[r], b.less[r], b.cfg[r])
	})
	s := sample{start: start, latMS: float64(wall.Nanoseconds()) / 1e6}
	if err != nil {
		s.err, s.latMS = err, inf
		return s
	}

	h = time.Now()
	if plant {
		b.corrupt(b.outs)
	}
	s.err = b.check(b.outs)
	if s.err != nil {
		s.latMS = inf
	}
	s.clientMS = clientMS + msSince(h)
	s.elems = int64(b.n)
	s.layers = b.layers(s.latMS)
	return s
}

// layers books the always-on per-op values from the ranks' Stats: each
// phase (overall and per level) as its maximum over ranks, like the
// service reports it.
func (b *bulk[E]) layers(wallMS float64) map[string]float64 {
	l := map[string]float64{}
	var sortNS int64
	for _, st := range b.stats {
		for ph := 0; ph < int(pmsort.NumPhases); ph++ {
			name := "core." + phaseKeys[ph] + "_ms"
			l[name] = max(l[name], float64(st.PhaseNS[ph])/1e6)
		}
		for lv, phases := range st.LevelPhaseNS {
			for ph, ns := range phases {
				name := fmt.Sprintf("core.L%d.%s_ms", lv, phaseKeys[ph])
				l[name] = max(l[name], float64(ns)/1e6)
			}
		}
		sortNS = max(sortNS, st.TotalNS)
		l["core.imbalance"] = max(l["core.imbalance"], st.MaxImbalance)
	}
	l["core.sort_ms"] = float64(sortNS) / 1e6
	l["core.outside_ms"] = wallMS - l["core.sort_ms"]
	return l
}

// phaseKeys names the phases in metric names, indexed by pmsort.Phase.
var phaseKeys = [pmsort.NumPhases]string{"splitter", "bucket", "delivery", "localsort"}

func (b *bulk[E]) finish(*window) {}

func (b *bulk[E]) close() error { return b.m.close() }

func (b *bulk[E]) resetTrace() {
	b.m.resetTrace()
	for r := range b.calls {
		b.calls[r].less, b.calls[r].key = 0, 0
	}
}

func (b *bulk[E]) collectTrace(w *window) *traceStats {
	ts := b.m.collect(w.ok)
	var less, key int64
	for _, c := range b.calls {
		less += c.less
		key += c.key
	}
	elems := float64(max(w.ok, 1)) * float64(b.n)
	ts.per.set("seq.less_calls_per_elem", "count", float64(less)/elems)
	ts.per.set("seq.key_calls_per_elem", "count", float64(key)/elems)
	if ts.opSelf != nil { // nil only when a traced op failed: the run fails anyway
		ts.table = bandRows(selfMetrics, w.okLat(), ts.opSelf)
	}
	return ts
}

func (b *bulk[E]) rungs() (rungResult, error) { return runRungs(b.m) }

// ---- bulk-keyed ----

const keyedN = 1 << 22

func setupBulkKeyed(seed uint64, traced bool) (instance, error) {
	in := make([][]uint64, ranks)
	var sum uint64
	for r := range in {
		g := newRNG(seed*ranks + uint64(r))
		in[r] = make([]uint64, keyedN/ranks)
		for i := range in[r] {
			in[r][i] = g.next()
			sum += mix64(in[r][i])
		}
	}
	less := func(a, b uint64) bool { return a < b }
	cfg := func(r int, count *callCount) pmsort.Config {
		key := func(x uint64) uint64 { return x }
		if count != nil {
			key = func(x uint64) uint64 { count.key++; return x }
		}
		return pmsort.Config{Levels: 1, Key: key, TieBreak: true, Seed: seed}
	}
	check := func(outs [][]uint64) error { return checkKeyed(outs, keyedN, sum) }
	corrupt := func(outs [][]uint64) {
		for _, o := range outs {
			if len(o) > 1 {
				o[0], o[len(o)-1] = o[len(o)-1], o[0]
				return
			}
		}
	}
	return newBulk(in, traced, less, cfg, check, corrupt)
}

// checkKeyed passes when the concatenated rank outputs are sorted (each
// rank's output and the rank boundaries) and their count and
// order-independent multiset hash equal the input's.
func checkKeyed(outs [][]uint64, n int, sum uint64) error {
	var got uint64
	count := 0
	var prev uint64
	for r, o := range outs {
		for i, k := range o {
			if count > 0 && k < prev {
				return fmt.Errorf("rank %d output out of order at %d", r, i)
			}
			prev = k
			got += mix64(k)
			count++
		}
	}
	if count != n {
		return fmt.Errorf("output has %d keys, input %d", count, n)
	}
	if got != sum {
		return errors.New("output is not a permutation of the input (multiset hash differs)")
	}
	return nil
}

// ---- bulk-records ----

const recordsN = 1 << 21

// record is the 16-byte element of bulk-records: K is drawn from 16
// distinct values (the dup-heavy kind), V is uniform.
type record struct {
	K, V uint64
}

func lessRecord(a, b record) bool {
	if a.K != b.K {
		return a.K < b.K
	}
	return a.V < b.V
}

func setupBulkRecords(seed uint64, traced bool) (instance, error) {
	in := make([][]record, ranks)
	ref := make([]record, 0, recordsN)
	for r := range in {
		g := newRNG(seed*ranks + uint64(r))
		in[r] = make([]record, recordsN/ranks)
		for i := range in[r] {
			in[r][i] = record{K: g.next() % 16, V: g.next()}
		}
		ref = append(ref, in[r]...)
	}
	slices.SortFunc(ref, func(a, b record) int {
		return cmp.Or(cmp.Compare(a.K, b.K), cmp.Compare(a.V, b.V))
	})
	cfg := func(r int, count *callCount) pmsort.Config {
		prefix := func(x record) uint64 { return x.K }
		if count != nil {
			prefix = func(x record) uint64 { count.key++; return x.K }
		}
		return pmsort.Config{Levels: 2, Rs: []int{2, 2}, Prefix: prefix, TieBreak: true, Seed: seed}
	}
	check := func(outs [][]record) error { return checkRecords(outs, ref) }
	corrupt := func(outs [][]record) {
		for _, o := range outs {
			if len(o) > 0 {
				o[0].V ^= 1
				return
			}
		}
	}
	return newBulk(in, traced, lessRecord, cfg, check, corrupt)
}

// checkRecords passes when the concatenated rank outputs are
// byte-identical to the reference sorted during set-up.
func checkRecords(outs [][]record, ref []record) error {
	off := 0
	for r, o := range outs {
		if off+len(o) > len(ref) {
			return fmt.Errorf("rank %d output overruns the input size %d", r, len(ref))
		}
		if i := firstDiff(o, ref[off:off+len(o)]); i >= 0 {
			return fmt.Errorf("rank %d output differs from the reference at %d", r, i)
		}
		off += len(o)
	}
	if off != len(ref) {
		return fmt.Errorf("output has %d records, input %d", off, len(ref))
	}
	return nil
}

func firstDiff[E comparable](a, b []E) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
