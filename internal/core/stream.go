package core

import (
	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/seq"
)

// This file holds the sorters' receive-driven delivery consumers
// (DESIGN.md §10), the only way the sorters consume an exchange.
// delivery.DeliverStream hands out each sender's chunks as that
// sender's message arrives; what a level does with them depends on its
// shape:
//
//   - Concatenation levels (every non-last AMS level, and the hooked
//     last levels feeding the radix kernels) copy chunks into the next
//     level buffer *during* the exchange — in sender-rank order, so the
//     result is byte-identical to concatenating delivery.Deliver's
//     chunk list — and accumulate the keyed radix histograms (exact
//     prefix) or extract the prefix sidecar (prefix hook) on the fly,
//     so the first pass of the final radix has already happened when
//     the last byte arrives.
//   - Merge levels (RLM, the plain-comparator last AMS level) only
//     stage the arriving runs: a loser-tree merge needs all its runs,
//     so the merge itself starts at the last arrival. What overlaps
//     there is the staging, the prefix extraction (streamRuns) and, on
//     the TCP backend, the decode of later messages behind the
//     processing of earlier ones.

// streamConcat delivers pieces and concatenates the received chunks in
// sender-rank order into buf (a zero-length slice with capacity from
// the caller's bound). Chunks are copied as they arrive: the in-order
// prefix eagerly — overlapping the memcpy with the remaining exchange —
// and out-of-order arrivals staged (by reference, no copy) until their
// turn. With a hook pf, every copied chunk also feeds the final radix:
// folded into the histograms h when h is non-nil (the exact-prefix
// radix), else its prefixes appended to pfx — built in the same rank
// order as buf, so the sidecar stays aligned with the concatenation.
func streamConcat[E any](c comm.Communicator, pieces [][]E, opt delivery.Options, buf []E, pf func(E) uint64, h *seq.KeyedHist, pfx []uint64) ([]E, []uint64) {
	p := c.Size()
	pending := make([][][]E, p)
	arrived := make([]bool, p)
	nextSrc := 0
	add := func(chs [][]E) {
		for _, ch := range chs {
			switch {
			case h != nil:
				seq.HistKeyed(ch, pf, h)
			case pf != nil:
				pfx = seq.ExtractPrefixes(pfx, ch, pf)
			}
			buf = append(buf, ch...)
		}
	}
	delivery.DeliverStream(c, pieces, opt, func(src int, chs [][]E) {
		arrived[src] = true
		pending[src] = chs
		for nextSrc < p && arrived[nextSrc] {
			add(pending[nextSrc])
			pending[nextSrc] = nil
			nextSrc++
		}
	})
	return buf, pfx
}

// streamRuns delivers pieces and stages the received chunks in
// sender-rank order — the exact chunk list delivery.Deliver returns —
// while extracting each chunk's prefix sidecar as it arrives, so the
// tie-aware loser tree starts (at the last arrival) with its prefixes
// already cached: the merge-level sibling of streamConcat's
// histogram-during-exchange overlap. The sidecars are carved from one
// arena (st.pfx, recycled across levels; dead between a level's merge
// and the next level's staging); spans are recorded as offsets and
// sliced only after the stream completes, since the growing arena may
// reallocate under earlier sub-slices.
func streamRuns[E any](c comm.Communicator, pieces [][]E, opt delivery.Options, st *localScratch[E]) (chunks [][]E, pfx [][]uint64) {
	type span struct{ off, n int }
	arena := st.pfx[:0]
	p := c.Size()
	bySrc := make([][][]E, p)
	spansBySrc := make([][]span, p)
	nchunks := 0
	delivery.DeliverStream(c, pieces, opt, func(src int, chs [][]E) {
		ss := make([]span, len(chs))
		for i, ch := range chs {
			ss[i] = span{len(arena), len(ch)}
			arena = seq.ExtractPrefixes(arena, ch, st.prefix)
		}
		bySrc[src] = chs
		spansBySrc[src] = ss
		nchunks += len(chs)
	})
	st.pfx = arena
	chunks = make([][]E, 0, nchunks)
	pfx = make([][]uint64, 0, nchunks)
	for src := 0; src < p; src++ {
		chunks = append(chunks, bySrc[src]...)
		for _, s := range spansBySrc[src] {
			pfx = append(pfx, arena[s.off:s.off+s.n])
		}
	}
	return chunks, pfx
}

// recvBound bounds this PE's received element count for a level with r
// groups: its balanced share of its group's bucket load (the Deliver
// balance guarantee: ⌊m/g⌋ or ⌈m/g⌉ of the group's m elements). Used to
// size the next-level buffer before the exchange starts, so the
// streaming concatenation appends without reallocating.
func recvBound(p, rank, r int, globalSizes []int64, starts []int) int {
	pestarts, ok := comm.EqualStarts(p, r)
	if !ok {
		return 0
	}
	g := 0
	for g+1 < len(pestarts) && rank >= pestarts[g+1] {
		g++
	}
	if g+1 >= len(starts) {
		return 1 // trailing group with no buckets
	}
	var load int64
	for b := starts[g]; b < starts[g+1]; b++ {
		load += globalSizes[b]
	}
	gsize := pestarts[g+1] - pestarts[g]
	return int((load+int64(gsize)-1)/int64(gsize)) + 1
}
