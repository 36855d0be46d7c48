package seq

import "slices"

// Sort sorts data by less with the standard library's generic pdqsort
// (slices.SortFunc): pattern-defeating quicksort with heapsort fallback
// and adaptive runs. Compared to the interface-based sort.Slice it
// avoids the reflect-built swapper and the closure-per-call-site
// indirection, which is worth ~2x on scalar elements. Not stable.
func Sort[E any](data []E, less func(a, b E) bool) {
	slices.SortFunc(data, func(a, b E) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// SortStable sorts data by less with the standard library's stable sort
// (slices.SortStableFunc: insertion-sorted blocks + in-place symmerge).
// The comparator sorters feed their merge levels with it: a stable
// local order is what makes the prefix-cached kernels (SortPrefixed,
// MultiwayPrefixedInto) byte-identical to the plain comparator path
// even on elements the comparator cannot tell apart.
func SortStable[E any](data []E, less func(a, b E) bool) {
	slices.SortStableFunc(data, func(a, b E) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// SortKeyed sorts data ascending by the uint64 key with a stable
// most-significant-digit radix sort: each level scatters a segment by
// its 8-bit digit into the other buffer (a stable counting pass,
// skipped when the digit is constant across the segment) and recurses
// into the digit's sub-segments, with insertion sort below msdCutoff
// elements. Random keys finish after ~log₂₅₆(n) levels where an LSD
// sort pays all eight passes over the whole input. It is only a
// correct replacement for a comparator sort when the key embeds the
// full order:
//
//	less(a, b) == (key(a) < key(b))  for all a, b
//
// which is what Config.Key promises. scratch is the ping-pong buffer;
// it is grown as needed and returned so callers can reuse it across
// calls (pass nil the first time).
func SortKeyed[E any](data []E, key func(E) uint64, scratch []E) []E {
	n := len(data)
	if n < 2 {
		return scratch
	}
	if len(scratch) < n {
		scratch = make([]E, n)
	}
	msdStable(data, scratch[:n], key, 56, false)
	return scratch
}

// msdCutoff is the segment size below which SortKeyed's descent
// switches to insertion sort.
const msdCutoff = 64

// msdStable stably sorts src by the key digits at and below shift,
// leaving the result in dst when into is set and in src otherwise; the
// other buffer, of the same length, is scratch. Each scatter moves the
// data to the other buffer, so a sub-segment's result must land back in
// the buffer its parent wants — hence the flag flips per level.
func msdStable[E any](src, dst []E, key func(E) uint64, shift uint, into bool) {
	n := len(src)
	if n <= msdCutoff {
		if into {
			copy(dst, src)
			src = dst
		}
		insertionByKey(src, key)
		return
	}
	var counts, next [256]int
	for _, e := range src {
		counts[(key(e)>>shift)&0xff]++
	}
	sum := 0
	for d, c := range counts {
		if c == n {
			// Constant digit: descend without scattering.
			if shift == 0 {
				if into {
					copy(dst, src)
				}
				return
			}
			msdStable(src, dst, key, shift-8, into)
			return
		}
		next[d] = sum
		sum += c
	}
	for _, e := range src {
		d := (key(e) >> shift) & 0xff
		dst[next[d]] = e
		next[d]++
	}
	if shift == 0 {
		if !into {
			copy(src, dst)
		}
		return
	}
	lo := 0
	for _, c := range counts {
		if c > 0 {
			msdStable(dst[lo:lo+c], src[lo:lo+c], key, shift-8, !into)
		}
		lo += c
	}
}

// KeyedHist accumulates the per-digit histograms of the LSD radix sort.
// The byte distribution is permutation-invariant, so histograms built
// incrementally — e.g. per received chunk, while the bulk exchange is
// still streaming in — stay valid for every pass regardless of the
// order the data was appended in.
type KeyedHist struct {
	hist [8][256]int
	n    int
}

// HistKeyed folds data's keys into the histograms.
func HistKeyed[E any](data []E, key func(E) uint64, h *KeyedHist) {
	h.n += len(data)
	for _, e := range data {
		k := key(e)
		h.hist[0][k&0xff]++
		h.hist[1][(k>>8)&0xff]++
		h.hist[2][(k>>16)&0xff]++
		h.hist[3][(k>>24)&0xff]++
		h.hist[4][(k>>32)&0xff]++
		h.hist[5][(k>>40)&0xff]++
		h.hist[6][(k>>48)&0xff]++
		h.hist[7][(k>>56)&0xff]++
	}
}

// SortKeyedHist is the stable LSD radix sort by the uint64 key (8-bit
// digits, passes whose digit is constant across the input skipped),
// with histograms accumulated up front (HistKeyed over exactly data's
// elements, in any order) — so they can stream in with the data. It
// returns the buffer holding the sorted result — data or scratch,
// whichever the last active pass landed in — together with the other
// (spare) buffer, so callers that own both skip a copy-back. scratch is
// grown as needed; h is consumed. Same key contract as SortKeyed.
func SortKeyedHist[E any](data []E, key func(E) uint64, scratch []E, h *KeyedHist) (sorted, spare []E) {
	n := len(data)
	if h.n != n {
		panic("seq: SortKeyedHist histogram count does not match the data")
	}
	if n < 2 {
		return data, scratch
	}
	if len(scratch) < n {
		scratch = make([]E, n)
	}
	src, dst := data, scratch[:n]
	for pass := 0; pass < 8; pass++ {
		hp := &h.hist[pass]
		// Skip passes whose digit is constant (common for small key
		// ranges: sorted/dup-heavy workloads need 1-2 passes).
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
		var starts [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			starts[b] = sum
			sum += hp[b]
		}
		shift := uint(8 * pass)
		for _, e := range src {
			b := (key(e) >> shift) & 0xff
			dst[starts[b]] = e
			starts[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// SortKeyedOps returns the modeled operation count of a radix sort of n
// elements: 9n element-steps (one histogram pass + up to 8 scatter
// passes, counted as a constant ~8 effective).
func SortKeyedOps(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 9 * n
}

// insertionByKey is SortKeyed's stable small-input sort.
func insertionByKey[E any](data []E, key func(E) uint64) {
	for i := 1; i < len(data); i++ {
		e, k := data[i], key(data[i])
		j := i
		for j > 0 && key(data[j-1]) > k {
			data[j] = data[j-1]
			j--
		}
		data[j] = e
	}
}
