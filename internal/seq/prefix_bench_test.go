package seq

import (
	"math/rand"
	"testing"
)

// benchPV builds n tie-light 16-byte elements for the kernel gap
// benchmarks below.
func benchPV(n int) []pv {
	rng := rand.New(rand.NewSource(42))
	out := make([]pv, n)
	for i := range out {
		out[i] = pv{K: rng.Uint64(), Tag: i}
	}
	return out
}

// BenchmarkSortStableCmp is the plain comparator baseline the prefix
// kernel is measured against (the same stable contract).
func BenchmarkSortStableCmp(b *testing.B) {
	const n = 1 << 18
	src := benchPV(n)
	data := make([]pv, n)
	b.SetBytes(int64(16 * n))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, src)
		b.StartTimer()
		SortStable(data, pvLess)
	}
}

// BenchmarkSortPrefixed measures the prefix-cached local sort: LSD
// radix over the uint64 sidecar, one payload permutation, comparator
// only inside equal-prefix runs. Extraction is included — it is part of
// what the sorters pay per level.
func BenchmarkSortPrefixed(b *testing.B) {
	const n = 1 << 18
	src := benchPV(n)
	data := make([]pv, n)
	var pfx []uint64
	var sc PrefixScratch[pv]
	b.SetBytes(int64(16 * n))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, src)
		b.StartTimer()
		pfx = ExtractPrefixes(pfx[:0], data, func(e pv) uint64 { return e.K })
		SortPrefixed(data, pfx, pvLess, &sc)
	}
}

// BenchmarkSortPrefixedU64 is BenchmarkSortPrefixed on word-sized
// payloads — the lockstep radix strategy — with the keyed radix on
// the same input as the ceiling it chases.
func BenchmarkSortPrefixedU64(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(42))
	src := make([]uint64, n)
	for i := range src {
		src[i] = rng.Uint64()
	}
	data := make([]uint64, n)
	u64Less := func(a, c uint64) bool { return a < c }
	identity := func(e uint64) uint64 { return e }

	b.Run("prefix", func(b *testing.B) {
		var pfx []uint64
		var sc PrefixScratch[uint64]
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(data, src)
			b.StartTimer()
			pfx = ExtractPrefixes(pfx[:0], data, identity)
			SortPrefixed(data, pfx, u64Less, &sc)
		}
	})
	b.Run("keyed", func(b *testing.B) {
		scratch := make([]uint64, n)
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(data, src)
			b.StartTimer()
			SortKeyed(data, identity, scratch)
		}
	})
}

// BenchmarkClassifyPrefixed measures the branchless prefix descent on a
// full 256-bucket splitter tree against the comparator-tree classifier.
func BenchmarkClassifyPrefixed(b *testing.B) {
	const n, m = 1 << 18, 255
	data := benchPV(n)
	splitters := benchPV(m)
	SortStable(splitters, pvLess)
	identity := func(e pv) uint64 { return e.K }

	b.Run("cmp", func(b *testing.B) {
		cls := NewClassifier(splitters, pvLess)
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			for _, x := range data {
				_ = cls.Bucket(x)
			}
		}
	})
	b.Run("prefix", func(b *testing.B) {
		spfx := ExtractPrefixes(nil, splitters, identity)
		pc := NewPrefixClassifier(spfx)
		ids := make([]uint16, n)
		fallback := func(i, lo, hi int) int {
			return lo + UpperBound(splitters[lo:hi], data[i], pvLess)
		}
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			ClassifyPrefixed(data, identity, pc, ids, fallback)
		}
	})
}
