package seq

import (
	"math"
	"unsafe"
)

// This file holds the comparator path's prefix-cached kernels. A prefix
// hook maps each element to a uint64 that embeds a coarsening of the
// element order (DESIGN.md §11):
//
//	less(a, b)            ⇒  prefix(a) ≤ prefix(b), and
//	prefix(a) < prefix(b) ⇒  less(a, b)
//
// Equivalently: comparing prefixes first and falling back to less only
// on equal prefixes decides every pair exactly like less does. Unlike
// the Config.Key contract the hook need not be injective — ties are
// allowed, and the kernels fall back to the comparator only inside
// equal-prefix runs. The two-sided form also pins the tie structure:
// elements the comparator cannot tell apart always share a prefix, so a
// prefix kernel and a stable comparator kernel produce byte-identical
// output (the conformance and torture suites assert this continuously).

// ExtractPrefixes appends data's prefixes to dst and returns it — the
// sidecar-building pass. Callers recycle dst across levels like the
// other scratch arenas (pass a zero-length slice of retained capacity).
func ExtractPrefixes[E any](dst []uint64, data []E, prefix func(E) uint64) []uint64 {
	for _, e := range data {
		dst = append(dst, prefix(e))
	}
	return dst
}

// prefixPair carries one element's cached prefix and its original
// position through the radix passes of SortPrefixed, so the payload
// elements are permuted once at the end instead of once per pass.
type prefixPair struct {
	p  uint64
	id uint32
}

// pfxElem carries one element's cached prefix and its payload together
// through the radix passes of the word-sized strategy: one 16-byte
// record means each scatter touches a single random cache line — the
// same line count per pass as the keyed radix — and the payload is
// already in place when the passes end (no gather).
type pfxElem[E any] struct {
	p uint64
	e E
}

// PrefixScratch is the reusable scratch of SortPrefixed: the radix
// ping-pong buffers of whichever strategy runs ((prefix, id) pairs or
// word-sized (prefix, payload) records) and the pair path's gather
// buffer. The zero value is ready; buffers grow as needed and are
// retained across calls.
type PrefixScratch[E any] struct {
	pairs, spare []prefixPair
	kv, kvSpare  []pfxElem[E]
	elems        []E
}

// Donate offers buf as the payload scratch, kept when it beats the
// current one — callers hand over a retired arena buffer so the next
// SortPrefixed skips an allocation (and its zeroing) of that size.
func (sc *PrefixScratch[E]) Donate(buf []E) {
	if cap(buf) > cap(sc.elems) {
		sc.elems = buf[:cap(buf)]
	}
}

// prefixInsertionCutoff is the size below which SortPrefixed switches
// to a stable insertion sort on the combined (prefix, less) order.
const prefixInsertionCutoff = 48

// SortPrefixed sorts data by less using the cached prefixes pfx (where
// pfx[i] must be the prefix of data[i], under the contract above): a
// stable LSD radix sort on (prefix, id) pairs — trivial digit passes
// skipped — permutes the payloads once, and the comparator is invoked
// only to sort within equal-prefix runs. The result is exactly the
// stable-by-less order (what SortStable produces), because the radix is
// stable and less-ties never straddle a prefix boundary. pfx is
// consumed (the small-input path permutes it alongside data; the radix
// path leaves it stale).
func SortPrefixed[E any](data []E, pfx []uint64, less func(a, b E) bool, sc *PrefixScratch[E]) {
	n := len(data)
	if n != len(pfx) {
		panic("seq: SortPrefixed sidecar length does not match the data")
	}
	if n < 2 {
		return
	}
	if n <= prefixInsertionCutoff {
		insertionPrefixed(data, pfx, less)
		return
	}
	if n > math.MaxUint32 {
		panic("seq: SortPrefixed supports at most 2^32 elements per PE")
	}

	var h KeyedHist
	HistKeyed(pfx, func(k uint64) uint64 { return k }, &h)

	if unsafe.Sizeof(*new(E)) <= 8 {
		// Word-sized payloads: ping-pong (prefix, payload) in lockstep.
		// Each pass moves the same 16 bytes per element as a pair pass,
		// but the pair build, the final random-access gather, and the
		// copy-back all disappear — exactly the costs that kept the
		// uint64 prefix path behind the keyed radix.
		sortPrefixedLockstep(data, pfx, less, sc, &h)
		return
	}

	if len(sc.pairs) < n {
		sc.pairs = make([]prefixPair, n)
	}
	if len(sc.spare) < n {
		sc.spare = make([]prefixPair, n)
	}
	src, dst := sc.pairs[:n], sc.spare[:n]
	for i, k := range pfx {
		src[i] = prefixPair{p: k, id: uint32(i)}
	}
	active := 0
	for pass := 0; pass < 8; pass++ {
		hp := &h.hist[pass]
		trivial := false
		for b := 0; b < 256; b++ {
			if hp[b] == n {
				trivial = true
				break
			}
			if hp[b] != 0 {
				break
			}
		}
		if trivial {
			continue
		}
		active++
		var starts [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			starts[b] = sum
			sum += hp[b]
		}
		shift := uint(8 * pass)
		for _, pr := range src {
			b := (pr.p >> shift) & 0xff
			dst[starts[b]] = pr
			starts[b]++
		}
		src, dst = dst, src
	}
	sc.pairs, sc.spare = src, dst
	if active == 0 {
		// All prefixes equal: the whole slice is one tie run.
		SortStable(data, less)
		return
	}

	// Permute the payloads once along the sorted pair order, then hand
	// each equal-prefix run to the comparator (stable, so ties keep
	// their radix-preserved original order).
	if len(sc.elems) < n {
		sc.elems = make([]E, n)
	}
	elems := sc.elems[:n]
	for k, pr := range src {
		elems[k] = data[pr.id]
	}
	copy(data, elems)
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].p == src[i].p {
			j++
		}
		if j-i > 1 {
			SortStable(data[i:j], less)
		}
		i = j
	}
}

// sortPrefixedLockstep is SortPrefixed's strategy for word-sized
// payloads: the stable LSD radix distributes (prefix, payload) records
// (trivial passes skipped, like the pair path), so the sorted payloads
// materialize with the passes and the unpack at the end is sequential —
// no id indirection and no random-access gather. The comparator still
// sorts only within equal-prefix runs; stability per pass makes the
// whole exactly the stable-by-less order. pfx is consumed.
func sortPrefixedLockstep[E any](data []E, pfx []uint64, less func(a, b E) bool, sc *PrefixScratch[E], h *KeyedHist) {
	n := len(data)
	if len(sc.kv) < n {
		sc.kv = make([]pfxElem[E], n)
	}
	if len(sc.kvSpare) < n {
		sc.kvSpare = make([]pfxElem[E], n)
	}
	src, dst := sc.kv[:n], sc.kvSpare[:n]
	for i, k := range pfx {
		src[i] = pfxElem[E]{p: k, e: data[i]}
	}
	active := 0
	for pass := 0; pass < 8; pass++ {
		hp := &h.hist[pass]
		trivial := false
		for b := 0; b < 256; b++ {
			if hp[b] == n {
				trivial = true
				break
			}
			if hp[b] != 0 {
				break
			}
		}
		if trivial {
			continue
		}
		active++
		var starts [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			starts[b] = sum
			sum += hp[b]
		}
		shift := uint(8 * pass)
		for _, pr := range src {
			b := (pr.p >> shift) & 0xff
			dst[starts[b]] = pr
			starts[b]++
		}
		src, dst = dst, src
	}
	sc.kv, sc.kvSpare = src, dst
	if active == 0 {
		// All prefixes equal: the whole slice is one tie run.
		SortStable(data, less)
		return
	}
	// Sequential unpack, then hand each equal-prefix run to the
	// comparator (stable, so ties keep their radix-preserved original
	// order).
	for i, pr := range src {
		data[i] = pr.e
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].p == src[i].p {
			j++
		}
		if j-i > 1 {
			SortStable(data[i:j], less)
		}
		i = j
	}
}

// insertionPrefixed is the stable small-input sort of SortPrefixed: an
// insertion sort on the combined (prefix, less) order, moving the
// sidecar alongside the payloads.
func insertionPrefixed[E any](data []E, pfx []uint64, less func(a, b E) bool) {
	for i := 1; i < len(data); i++ {
		e, k := data[i], pfx[i]
		j := i
		for j > 0 && (pfx[j-1] > k || (pfx[j-1] == k && less(e, data[j-1]))) {
			data[j] = data[j-1]
			pfx[j] = pfx[j-1]
			j--
		}
		data[j], pfx[j] = e, k
	}
}

// SortPrefixedOps returns the modeled operation count of a prefix-
// cached sort of n elements: ~11n element-steps (extraction + histogram
// + up to 8 pair scatters + one payload gather, counted flat like
// SortKeyedOps; the rare within-run comparator work is absorbed in the
// constant).
func SortPrefixedOps(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 11 * n
}

// PrefixClassifier is the uint64 specialization of Classifier: the
// same implicit-tree branchless descent, built over the splitters'
// prefixes, on raw word compares instead of per-level calls through a
// generic less closure. Because prefixes need not be injective, an
// element whose prefix equals some splitter prefix cannot be placed by
// the descent alone — the caller resolves it over the run of
// equal-prefix splitters (ClassifyPrefixed's fallback). Everything else
// never touches the comparator: under the prefix contract, a strict
// prefix inequality decides the element order. An exact prefix (a key
// embedding the whole order, like Config.Key) is the special case
// where the fallback run holds only splitters equal to the element.
type PrefixClassifier struct {
	tree     []uint64 // 1-indexed; tree[0] unused
	spfx     []uint64 // sorted splitter prefixes
	runStart []int32  // runStart[i] = first index of spfx's equal-prefix run containing i
	levels   int
}

// NewPrefixClassifier builds a classifier from the prefixes of sorted
// splitters (non-decreasing, since the splitters are sorted and the
// hook is order-preserving). At least one splitter is required.
func NewPrefixClassifier(spfx []uint64) *PrefixClassifier {
	m := len(spfx)
	if m == 0 {
		panic("seq: NewPrefixClassifier with no splitters")
	}
	size, levels := 1, 0
	for size-1 < m {
		size <<= 1
		levels++
	}
	c := &PrefixClassifier{
		tree:     make([]uint64, size),
		spfx:     spfx,
		runStart: make([]int32, m),
		levels:   levels,
	}
	for i := 1; i < m; i++ {
		if spfx[i] == spfx[i-1] {
			c.runStart[i] = c.runStart[i-1]
		} else {
			c.runStart[i] = int32(i)
		}
	}
	// In-order assignment of the padded sorted splitter sequence, so the
	// descent "go right iff k ≥ tree[node]" computes the rank — the same
	// construction as the generic Classifier.
	idx := 0
	maxSplitter := spfx[m-1]
	var assign func(node int)
	assign = func(node int) {
		if node >= size {
			return
		}
		assign(2 * node)
		if idx < m {
			c.tree[node] = spfx[idx]
		} else {
			c.tree[node] = maxSplitter // padding
		}
		idx++
		assign(2*node + 1)
	}
	assign(1)
	return c
}

// NumBuckets returns the number of range buckets (m+1).
func (c *PrefixClassifier) NumBuckets() int { return len(c.spfx) + 1 }

// Levels returns the number of tree levels descended per element.
func (c *PrefixClassifier) Levels() int { return c.levels }

// bucket is the raw descent: |{i : spfx[i] ≤ k}|.
func (c *PrefixClassifier) bucket(k uint64) int {
	node := 1
	for l := 0; l < c.levels; l++ {
		node = step(c.tree, node, k)
	}
	b := node - len(c.tree)
	if m := len(c.spfx); b > m {
		// k ≥ max splitter walked past padding duplicates.
		b = m
	}
	return b
}

// step is one branchless tree-descent level: go right iff k ≥ the
// node's splitter (compiles to a flag-set, not a branch, so random
// keys cost no mispredictions).
func step(tree []uint64, n int, k uint64) int {
	ge := 0
	if k >= tree[n] {
		ge = 1
	}
	return 2*n + ge
}

// ClassifyPrefixed fills ids[i] with the bucket of data[i], descending
// on prefixes — the classification pass of the partition fast path,
// feeding PartitionInPlaceIDs. The tree is perfect (padded to a power
// of two), so every descent takes exactly Levels steps; four elements
// descend in lockstep so the four independent compare chains overlap
// in flight — the super scalar sample sort argument (paper §2.2),
// applied for real rather than only in the cost model. Elements whose
// prefix collides with a splitter prefix
// — the only ones whose bucket the descent cannot decide — are resolved
// by fallback(i, lo, hi), which receives the index range [lo, hi) of
// the splitters sharing the element's prefix and returns the element's
// bucket in 0..m (typically a comparator binary search over that run,
// plus tie-breaking). ids must have len(data) capacity.
func ClassifyPrefixed[E any](data []E, prefix func(E) uint64, pc *PrefixClassifier, ids []uint16, fallback func(i, lo, hi int) int) {
	tree, levels := pc.tree, pc.levels
	size, m := len(tree), len(pc.spfx)
	spfx, runStart := pc.spfx, pc.runStart
	n := len(data)
	resolve := func(i int, k uint64, b int) uint16 {
		if b > 0 && spfx[b-1] == k {
			// spfx is sorted, so every splitter with this prefix sits in
			// one run ending at b (the descent counted all of them ≤ k).
			return uint16(fallback(i, int(runStart[b-1]), b))
		}
		return uint16(b)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		k0, k1, k2, k3 := prefix(data[i]), prefix(data[i+1]), prefix(data[i+2]), prefix(data[i+3])
		n0, n1, n2, n3 := 1, 1, 1, 1
		for l := 0; l < levels; l++ {
			n0 = step(tree, n0, k0)
			n1 = step(tree, n1, k1)
			n2 = step(tree, n2, k2)
			n3 = step(tree, n3, k3)
		}
		ids[i] = resolve(i, k0, min(n0-size, m))
		ids[i+1] = resolve(i+1, k1, min(n1-size, m))
		ids[i+2] = resolve(i+2, k2, min(n2-size, m))
		ids[i+3] = resolve(i+3, k3, min(n3-size, m))
	}
	for ; i < n; i++ {
		k := prefix(data[i])
		ids[i] = resolve(i, k, pc.bucket(k))
	}
}

// MultiwayPrefixedInto is MultiwayInto with cached prefixes: pfx[r][i]
// must be the prefix of runs[r][i]. The loser tree compares uint64
// prefixes and calls less only on prefix ties, deciding every match
// exactly like MultiwayInto under the prefix contract — the output is
// byte-identical. out must not alias any run.
func MultiwayPrefixedInto[E any](out []E, runs [][]E, pfx [][]uint64, less func(a, b E) bool) []E {
	if len(pfx) != len(runs) {
		panic("seq: MultiwayPrefixedInto sidecar count does not match the runs")
	}
	for r := range runs {
		if len(pfx[r]) != len(runs[r]) {
			panic("seq: MultiwayPrefixedInto sidecar length does not match its run")
		}
	}
	switch len(runs) {
	case 0:
		return out
	case 1:
		return append(out, runs[0]...)
	case 2:
		return mergeTwoPrefixed(out, runs[0], runs[1], pfx[0], pfx[1], less)
	}

	k := len(runs)
	K := 1
	for K < k {
		K <<= 1
	}
	pos := make([]int, k)
	tree := make([]int, K)

	exhausted := func(r int) bool { return r < 0 || pos[r] >= len(runs[r]) }
	beats := func(a, b int) bool {
		if exhausted(a) {
			return false
		}
		if exhausted(b) {
			return true
		}
		pa, pb := pfx[a][pos[a]], pfx[b][pos[b]]
		if pa != pb {
			return pa < pb
		}
		x, y := runs[a][pos[a]], runs[b][pos[b]]
		if less(x, y) {
			return true
		}
		if less(y, x) {
			return false
		}
		return a < b
	}

	var initNode func(v int) int
	initNode = func(v int) int {
		if v >= K {
			if r := v - K; r < k && len(runs[r]) > 0 {
				return r
			}
			return -1
		}
		wl, wr := initNode(2*v), initNode(2*v+1)
		if beats(wl, wr) {
			tree[v] = wr
			return wl
		}
		tree[v] = wl
		return wr
	}
	winner := initNode(1)

	for winner >= 0 && pos[winner] < len(runs[winner]) {
		out = append(out, runs[winner][pos[winner]])
		pos[winner]++
		w := winner
		for v := (K + winner) / 2; v >= 1; v /= 2 {
			if beats(tree[v], w) {
				tree[v], w = w, tree[v]
			}
		}
		winner = w
	}
	return out
}

// mergeTwoPrefixed merges two sorted runs with cached prefixes into out
// (stable: ties prefer a), deciding like mergeTwo under the contract.
func mergeTwoPrefixed[E any](out []E, a, b []E, pa, pb []uint64, less func(x, y E) bool) []E {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if pb[j] < pa[i] || (pb[j] == pa[i] && less(b[j], a[i])) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
