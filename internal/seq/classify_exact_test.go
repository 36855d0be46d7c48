package seq

import (
	"math/rand"
	"reflect"
	"testing"
)

func u64less(a, b uint64) bool { return a < b }

// exactFallback is ClassifyPrefixed's fallback for an exact prefix
// (the identity on uint64): every splitter of the colliding run equals
// the element, so the element's range bucket is the run's end.
func exactFallback(_, _, hi int) int { return hi }

// TestClassifyPrefixedExactMatchesGeneric pins the prefix descent on an
// exact prefix against the generic classifier on random splitter sets
// (with duplicates): under the Config.Key contract the two must
// classify every key identically, and the fallback run must be exactly
// the splitters equal to the key (what Appendix-D tie-breaking
// searches).
func TestClassifyPrefixedExactMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(70)
		splitters := make([]uint64, m)
		for i := range splitters {
			splitters[i] = uint64(rng.Intn(40)) // small domain: plenty of duplicates
		}
		sortSplitters(splitters)
		gen := NewClassifier(splitters, u64less)
		pc := NewPrefixClassifier(splitters)
		if gen.NumBuckets() != pc.NumBuckets() || gen.Levels() != pc.Levels() {
			t.Fatalf("shape mismatch: %d/%d buckets, %d/%d levels",
				gen.NumBuckets(), pc.NumBuckets(), gen.Levels(), pc.Levels())
		}
		data := make([]uint64, 45)
		for k := range data {
			data[k] = uint64(k)
		}
		ids := make([]uint16, len(data))
		ClassifyPrefixed(data, ident, pc, ids, func(i, lo, hi int) int {
			k := data[i]
			if LowerBound(splitters, k, u64less) != lo || UpperBound(splitters, k, u64less) != hi {
				t.Fatalf("trial %d: key %d fell back on run [%d, %d), splitters %v", trial, k, lo, hi, splitters)
			}
			if eq := gen.BucketEq(k); eq != 2*(hi-1)+1 {
				t.Fatalf("trial %d: key %d fell back, but BucketEq = %d is not an equality bucket", trial, k, eq)
			}
			return exactFallback(i, lo, hi)
		})
		for i, k := range data {
			if g := gen.Bucket(k); int(ids[i]) != g {
				t.Fatalf("trial %d: key %d bucketed %d, generic says %d (splitters %v)", trial, k, ids[i], g, splitters)
			}
		}
	}
}

// TestClassifyPrefixedMatchesPartitionInPlace pins the unrolled prefix
// classification + PartitionInPlaceIDs against the closure-driven
// PartitionInPlace: same bounds, same bucket contents (as multisets —
// the flag walk is unstable), for awkward lengths around the 4-way
// unroll.
func TestClassifyPrefixedMatchesPartitionInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	splitters := []uint64{10, 20, 20, 30, 55}
	pc := NewPrefixClassifier(splitters)
	cls := NewClassifier(splitters, u64less)
	nb := pc.NumBuckets()
	for _, n := range []int{0, 1, 3, 4, 5, 64, 257} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(rng.Intn(70))
		}
		ref := append([]uint64(nil), data...)
		refBounds, _ := PartitionInPlace(ref, nb, func(x uint64) int { return cls.Bucket(x) }, nil)

		got := append([]uint64(nil), data...)
		ids := make([]uint16, n)
		ClassifyPrefixed(got, ident, pc, ids, exactFallback)
		gotBounds := PartitionInPlaceIDs(got, nb, ids)

		if !reflect.DeepEqual(refBounds, gotBounds) {
			t.Fatalf("n=%d: bounds %v != %v", n, gotBounds, refBounds)
		}
		for b := 0; b < nb; b++ {
			rb := append([]uint64(nil), ref[refBounds[b]:refBounds[b+1]]...)
			gb := append([]uint64(nil), got[gotBounds[b]:gotBounds[b+1]]...)
			sortSplitters(rb)
			sortSplitters(gb)
			if !reflect.DeepEqual(rb, gb) {
				t.Fatalf("n=%d bucket %d: %v != %v", n, b, gb, rb)
			}
		}
	}
}

// TestClassifyPrefixedFallbackFires pins the collision callback on an
// exact prefix: keys equal to a splitter go through the fallback, with
// their index, and everything else maps directly.
func TestClassifyPrefixedFallbackFires(t *testing.T) {
	splitters := []uint64{10, 20, 20, 30}
	pc := NewPrefixClassifier(splitters)
	data := []uint64{5, 10, 15, 20, 25, 30, 35}
	ids := make([]uint16, len(data))
	var fixed []uint64
	ClassifyPrefixed(data, ident, pc, ids, func(i, lo, hi int) int {
		fixed = append(fixed, data[i])
		return lo // resolve "equal" to the bucket left of the splitter run
	})
	if want := []uint64{10, 20, 30}; !reflect.DeepEqual(fixed, want) {
		t.Fatalf("fallback saw %v, want the splitter-equal keys %v", fixed, want)
	}
	if want := []uint16{0, 0, 1, 1, 3, 3, 4}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

// TestSortKeyedHistMatchesSortKeyed pins the split histogram/scatter
// API against the one-shot SortKeyed: same stable order, histograms
// accumulated over arbitrary chunkings.
func TestSortKeyedHistMatchesSortKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type pair struct{ k, v uint64 }
	key := func(p pair) uint64 { return p.k }
	for _, n := range []int{0, 1, 63, 64, 100, 1000} {
		data := make([]pair, n)
		for i := range data {
			data[i] = pair{k: uint64(rng.Intn(50)), v: uint64(i)}
		}
		ref := append([]pair(nil), data...)
		SortKeyed(ref, key, nil)

		got := append([]pair(nil), data...)
		var h KeyedHist
		// Accumulate histograms chunk-wise, like the streaming concat.
		for lo := 0; lo < n; lo += 37 {
			hi := min(lo+37, n)
			HistKeyed(got[lo:hi], key, &h)
		}
		sorted, _ := SortKeyedHist(got, key, nil, &h)
		if n >= 64 {
			// SortKeyed's small-n insertion path and the radix path are
			// both stable; above the cutoff they share the radix code.
			if !reflect.DeepEqual(sorted, ref) {
				t.Fatalf("n=%d: SortKeyedHist differs from SortKeyed", n)
			}
		} else {
			for i := range sorted {
				if sorted[i].k != ref[i].k {
					t.Fatalf("n=%d: key order differs at %d", n, i)
				}
			}
		}
	}
	// Mismatched histogram must fail loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("SortKeyedHist with a short histogram must panic")
		}
	}()
	var h KeyedHist
	HistKeyed([]pair{{1, 1}}, key, &h)
	SortKeyedHist(make([]pair, 64), key, nil, &h)
}

func sortSplitters(s []uint64) {
	Sort(s, u64less)
}
