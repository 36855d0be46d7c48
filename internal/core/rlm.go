package core

import (
	"pmsort/internal/coll"
	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/msel"
	"pmsort/internal/obs"
	"pmsort/internal/seq"
)

// RLMSort sorts the distributed data with recurse-last multiway
// mergesort (§5). It must be called collectively by all members of c
// with identical cfg. Every PE first sorts locally; each level then
// splits the p sorted sequences into r parts of exactly equal total size
// by multisequence selection, moves the data, and merges the received
// sorted runs. The output is perfectly balanced: every PE ends up with
// ⌊n/p⌋ or ⌈n/p⌉ elements.
//
// The input slice is consumed: the sorter sorts it in place and
// recycles its backing array as level scratch, so its contents after
// the call are unspecified (callers that need the original must copy).
func RLMSort[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config) ([]E, *Stats) {
	cfg = validate(cfg)
	registerWire[E](cfg.Encoder)
	plan := cfg.Rs
	if plan == nil {
		plan = PlanLevels(c.Size(), cfg.Levels)
	}
	cost := c.Cost()
	stats := &Stats{MaxImbalance: 1}
	st := initScratch(data, less, cfg)
	st.rec = obs.From(c)
	start := coll.TimedBarrier(c)
	root := st.rec.Start(obs.SpanRLM).N(int64(len(data)))

	// Initial local sort (the "local sort" phase of Figure 8), through
	// the selected kernel: keyed radix when Config.Key is set,
	// prefix-cached radix when a prefix hook is live, stable comparator
	// sort otherwise.
	t0 := cost.Now()
	ls := st.rec.StartLevel(obs.SpanLocalSort, 0).N(int64(len(data)))
	st.sort(data, less)
	st.sortCost(cost, int64(len(data)))
	ls.End()
	stats.addLevel(0, PhaseLocalSort, cost.Now()-t0)
	stats.PhaseBytes[PhaseLocalSort] += int64(len(data)) * st.eb

	out := rlmLevel(c, data, less, cfg, plan, 0, stats, st)
	if len(out) == 0 {
		// Canonical empty: whether an empty result is nil or a zero-length
		// slice depends on the scratch-arena state of whichever kernel path
		// produced it; byte-identity comparisons must not see that.
		out = nil
	}
	root.End()
	stats.TotalNS = coll.TimedBarrier(c) - start
	return out, stats
}

func rlmLevel[E any](c comm.Communicator, data []E, less func(a, b E) bool, cfg Config, plan []int, level int, stats *Stats, st *localScratch[E]) []E {
	cost := c.Cost()
	if c.Size() == 1 {
		stats.Levels = level
		return data
	}
	r := levelR(cfg, plan, level, c.Size())
	seed := cfg.Seed + uint64(level)*0x7f4a7c159e3779b9
	lvl := st.rec.StartLevel(obs.SpanLevel, level).N(int64(len(data)))
	defer lvl.End() // covers the level's recursion subtree in the trace

	// --- Phase: splitter selection (multisequence selection) -----------
	t0 := coll.TimedBarrier(c)
	sel := st.rec.StartLevel(obs.SpanSplitterSel, level).N(int64(len(data)))
	n := coll.Allreduce(c, int64(len(data)), 1, addI64)
	targets := make([]int64, r-1)
	for j := 1; j < r; j++ {
		targets[j-1] = int64(j) * n / int64(r)
	}
	pos := msel.Select(c, data, targets, less, seed)
	t1 := coll.TimedBarrier(c)
	sel.End()
	stats.addLevel(level, PhaseSplitterSelection, t1-t0)

	// --- Phase: data delivery ------------------------------------------
	pieces := make([][]E, r)
	prev := 0
	for j := 0; j < r-1; j++ {
		pieces[j] = data[prev:pos[j]]
		prev = pos[j]
	}
	pieces[r-1] = data[prev:]
	dopt := cfg.Delivery
	dopt.Seed = seed ^ 0x2b3c4d5e
	// The received runs are staged in rank order as they arrive
	// (Deliver is the rank-ordered collector over DeliverStream); the
	// loser-tree merge below needs all of them, so it starts at the
	// last arrival — the exchange overlap here is the staging, on the
	// TCP backend the decoding of later messages behind earlier ones
	// (DESIGN.md §10), and on the prefix path the extraction of each
	// chunk's prefix sidecar (streamRuns).
	exch := st.rec.StartLevel(obs.SpanExchange, level)
	var chunks [][]E
	var cpfx [][]uint64
	if st.prefix != nil {
		// Size the sidecar arena up front for this PE's share of its
		// group's (g+1)·n/r − g·n/r elements, so the per-chunk
		// extraction appends without a realloc chain.
		loads := make([]int64, r)
		groups := make([]int, r+1)
		for g := range loads {
			loads[g] = int64(g+1)*n/int64(r) - int64(g)*n/int64(r)
			groups[g+1] = g + 1
		}
		st.pfxGrab(recvBound(c.Size(), c.Rank(), r, loads, groups))
		chunks, cpfx = streamRuns(c, pieces, dopt, st)
	} else {
		chunks = delivery.Deliver(c, pieces, dopt)
	}
	t2 := coll.TimedBarrier(c)
	exch.End()
	stats.addLevel(level, PhaseDataDelivery, t2-t1)

	// --- Phase: bucket processing (multiway merging) --------------------
	// The received chunks are sorted runs; merge instead of re-sorting
	// ("we do not want to ignore the information already available", §5).
	// Delivery coalesced contiguous same-sender spans on receive, so the
	// loser-tree k is bounded by the number of senders even on plans
	// that cut a piece into many spans; the output goes into the buffer
	// retired one level up (see localScratch).
	var total int
	for _, ch := range chunks {
		total += len(ch)
	}
	exch.N(int64(total))
	stats.PhaseBytes[PhaseDataDelivery] += int64(total) * st.eb
	mg := st.rec.StartLevel(obs.SpanMerge, level).N(int64(total))
	var merged []E
	if st.prefix != nil {
		merged = seq.MultiwayPrefixedInto(st.grab(total), chunks, cpfx, less)
	} else {
		merged = seq.MultiwayInto(st.grab(total), chunks, less)
	}
	cost.Ops(seq.MultiwayOps(int64(total), len(chunks)))
	// data is dead once the barrier below has passed: every PE holding
	// chunks into it has merged them out. Retire it for recycling.
	st.retire(data)
	t3 := coll.TimedBarrier(c)
	mg.End()
	stats.addLevel(level, PhaseBucketProcessing, t3-t2)
	stats.PhaseBytes[PhaseBucketProcessing] += int64(total) * st.eb

	sub, _ := c.SplitEqual(r)
	return rlmLevel(sub, merged, less, cfg, plan, level+1, stats, st)
}
