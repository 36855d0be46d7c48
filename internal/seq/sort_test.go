package seq

import (
	"math/rand"
	"sort"
	"testing"

	"pmsort/internal/workload"
)

func u64Less(a, b uint64) bool { return a < b }
func ident(x uint64) uint64    { return x }

// allKinds is every input distribution the kernels must agree on.
var allKinds = []workload.Kind{
	workload.Uniform, workload.Skewed, workload.DupHeavy, workload.Sorted,
	workload.Reverse, workload.AlmostSorted, workload.OnePE,
}

// TestSortKernelsByteIdentity: on uint64 data of every workload kind
// and a range of sizes, the comparator kernel (pdqsort) and the stable
// keyed radix must produce byte-identical output (on bare uint64 the
// sorted sequence is unique, so this is the exact cross-check the
// torture harness's keyed dimension relies on).
func TestSortKernelsByteIdentity(t *testing.T) {
	for _, kind := range allKinds {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 1 << 14} {
			data := workload.Local(kind, uint64(n)+1, 1, n, 0)
			cmp := append([]uint64(nil), data...)
			lsd := append([]uint64(nil), data...)
			Sort(cmp, u64Less)
			SortKeyed(lsd, ident, nil)
			want := append([]uint64(nil), data...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if cmp[i] != want[i] {
					t.Fatalf("%v n=%d: Sort diverges at %d: %d want %d", kind, n, i, cmp[i], want[i])
				}
				if lsd[i] != want[i] {
					t.Fatalf("%v n=%d: SortKeyed diverges at %d: %d want %d", kind, n, i, lsd[i], want[i])
				}
			}
		}
	}
}

// TestSortKeyedStability: SortKeyed is documented stable — elements
// with equal keys keep their input order.
func TestSortKeyedStability(t *testing.T) {
	type kv struct {
		k   uint64
		pos int
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{10, 63, 64, 500, 5000} {
		data := make([]kv, n)
		for i := range data {
			// Heavy ties, spread over all eight digits so the MSD descent
			// recurses through several levels.
			data[i] = kv{k: uint64(rng.Intn(8)) << (8 * uint(rng.Intn(8))), pos: i}
		}
		SortKeyed(data, func(e kv) uint64 { return e.k }, nil)
		for i := 1; i < n; i++ {
			a, b := data[i-1], data[i]
			if a.k > b.k {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
			if a.k == b.k && a.pos > b.pos {
				t.Fatalf("n=%d: stability violated at %d: pos %d before %d", n, i, a.pos, b.pos)
			}
		}
	}
}

// TestSortKeyedMonotoneKeys: the kernel only requires the key to embed
// the order (less(a,b) == key(a) < key(b)); a compressing key with
// byte-sparse structure (high bytes constant — the pass-skip path) must
// still sort correctly and deterministically.
func TestSortKeyedMonotoneKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	key := func(x uint64) uint64 { return x >> 3 } // ties every 8 values
	for _, n := range []int{100, 4096} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(rng.Intn(1 << 12)) // only low bytes vary
		}
		a := append([]uint64(nil), data...)
		SortKeyed(a, key, nil)
		for i := 1; i < n; i++ {
			if key(a[i-1]) > key(a[i]) {
				t.Fatalf("SortKeyed: key order violated at %d", i)
			}
		}
		// Determinism: same input sorts identically every time.
		a2 := append([]uint64(nil), data...)
		SortKeyed(a2, key, nil)
		for i := range a {
			if a[i] != a2[i] {
				t.Fatalf("SortKeyed not deterministic at %d", i)
			}
		}
	}
}

// TestSortKeyedScratchReuse: the returned scratch is reusable across
// calls of different sizes and never aliases the result.
func TestSortKeyedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var scratch []uint64
	for _, n := range []int{1000, 100, 5000, 64} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = rng.Uint64()
		}
		scratch = SortKeyed(data, ident, scratch)
		for i := 1; i < n; i++ {
			if data[i-1] > data[i] {
				t.Fatalf("n=%d: not sorted after scratch reuse", n)
			}
		}
	}
}

// TestPartitionInPlaceAgainstPartition: same bounds as the stable
// Partition, per-bucket content equal as multisets, and the input
// reordered in place (no second array).
func TestPartitionInPlaceAgainstPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var ids []uint16
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300)
		nb := 1 + rng.Intn(12)
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(1000)
		}
		bucketOf := func(x int) int { return x % nb }
		want, wantBounds := Partition(append([]int(nil), data...), nb, bucketOf)
		inPlace := append([]int(nil), data...)
		var bounds []int
		bounds, ids = PartitionInPlace(inPlace, nb, bucketOf, ids)
		if len(bounds) != len(wantBounds) {
			t.Fatalf("bounds length %d want %d", len(bounds), len(wantBounds))
		}
		for b := range bounds {
			if bounds[b] != wantBounds[b] {
				t.Fatalf("bounds[%d] = %d want %d", b, bounds[b], wantBounds[b])
			}
		}
		for b := 0; b < nb; b++ {
			got := append([]int(nil), inPlace[bounds[b]:bounds[b+1]]...)
			exp := append([]int(nil), want[wantBounds[b]:wantBounds[b+1]]...)
			sort.Ints(got)
			sort.Ints(exp)
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("bucket %d differs as a multiset", b)
				}
			}
		}
	}
}

// TestPartitionInPlaceStatefulClassifier: the classifying pass must see
// elements in original input order exactly once (AMS's tie-breaking
// bucketOf closure counts positions).
func TestPartitionInPlaceStatefulClassifier(t *testing.T) {
	data := []int{5, 3, 5, 3, 5, 3, 5, 3}
	calls := 0
	_, _ = PartitionInPlace(data, 2, func(x int) int {
		calls++
		if x == 5 {
			return 0
		}
		return 1
	}, nil)
	if calls != len(data) {
		t.Fatalf("bucketOf called %d times, want %d", calls, len(data))
	}
	for i, x := range data {
		if (i < 4) != (x == 5) {
			t.Fatalf("partition wrong at %d: %v", i, data)
		}
	}
}

// TestMultiwayIntoReuse: merging into a recycled buffer equals Multiway.
func TestMultiwayIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]int, 0, 8)
	for trial := 0; trial < 30; trial++ {
		runs := randRuns(rng, 1+rng.Intn(6), 40, 50)
		want := Multiway(runs, intLess)
		got := MultiwayInto(buf[:0], runs, intLess)
		if len(got) != len(want) {
			t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MultiwayInto differs at %d", i)
			}
		}
		buf = got
	}
}
