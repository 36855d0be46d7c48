package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pmsort/internal/sim"
)

// TestPrefixTypeMismatchPanics: a Config.Prefix hook for the wrong
// element type must be rejected at sort entry with a clear error, not
// panic mid-classify.
func TestPrefixTypeMismatchPanics(t *testing.T) {
	bad := func(string) uint64 { return 0 }
	expectHookPanic(t, Config{Prefix: bad}, "core: Config.Prefix is func(string) uint64, want func(int) uint64")
}

// TestKeyTypeMismatchPanics: a Config.Key hook for the wrong element
// type is rejected at sort entry with the same error shape as Prefix —
// not silently ignored, which would run the slower comparator kernels —
// and NoPrefix does not hide it.
func TestKeyTypeMismatchPanics(t *testing.T) {
	bad := func(uint32) uint64 { return 0 }
	const want = "core: Config.Key is func(uint32) uint64, want func(int) uint64"
	expectHookPanic(t, Config{Key: bad}, want)
	expectHookPanic(t, Config{Key: bad, NoPrefix: true}, want)
}

// expectHookPanic runs both sorters with cfg and demands the entry
// panic want on each.
func expectHookPanic(t *testing.T, cfg Config, want string) {
	t.Helper()
	for name, fn := range map[string]sorterFn{"ams": AMSSort[int], "rlm": RLMSort[int]} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: mismatched hook did not panic", name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, want) {
					t.Fatalf("%s: unexpected panic: %v", name, r)
				}
			}()
			m := sim.NewDefault(2)
			m.Run(func(pe *sim.PE) {
				fn(sim.World(pe), []int{3, 1, 2}, intLess, cfg)
			})
		}()
	}
}

// TestDerivedPrefixContract: every automatically derived hook must
// satisfy the two-sided prefix contract against the type's natural
// order on random pairs (including the float ±0 and sign edge cases).
func TestDerivedPrefixContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	checkPairs := func(t *testing.T, name string, n int, sample func(i int) (uint64, uint64, bool, bool)) {
		t.Helper()
		for i := 0; i < n; i++ {
			pa, pb, abLess, baLess := sample(i)
			if abLess && pa > pb {
				t.Fatalf("%s pair %d: less(a,b) but prefix(a) > prefix(b)", name, i)
			}
			if baLess && pb > pa {
				t.Fatalf("%s pair %d: less(b,a) but prefix(b) > prefix(a)", name, i)
			}
			if pa < pb && !abLess {
				t.Fatalf("%s pair %d: prefix(a) < prefix(b) but !less(a,b)", name, i)
			}
			if pb < pa && !baLess {
				t.Fatalf("%s pair %d: prefix(b) < prefix(a) but !less(b,a)", name, i)
			}
		}
	}

	t.Run("int64", func(t *testing.T) {
		pf := derivedPrefix[int64]()
		checkPairs(t, "int64", 2000, func(int) (uint64, uint64, bool, bool) {
			a, b := rng.Int63()-rng.Int63(), rng.Int63()-rng.Int63()
			return pf(a), pf(b), a < b, b < a
		})
	})
	t.Run("float64", func(t *testing.T) {
		pf := derivedPrefix[float64]()
		vals := []float64{0, -0.0, 1.5, -1.5, 1e-300, -1e-300, 1e300, -1e300}
		for i := 0; i < 2000; i++ {
			vals = append(vals, rng.NormFloat64()*1e6)
		}
		idx := 0
		checkPairs(t, "float64", 4000, func(int) (uint64, uint64, bool, bool) {
			a, b := vals[idx%len(vals)], vals[(idx*7+3)%len(vals)]
			idx++
			return pf(a), pf(b), a < b, b < a
		})
	})
	t.Run("string", func(t *testing.T) {
		pf := derivedPrefix[string]()
		mk := func() string {
			n := rng.Intn(12)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(4)) // tiny alphabet incl. 0x00 -> shared prefixes
			}
			return string(b)
		}
		checkPairs(t, "string", 4000, func(int) (uint64, uint64, bool, bool) {
			a, b := mk(), mk()
			return pf(a), pf(b), a < b, b < a
		})
	})
	t.Run("unsupported", func(t *testing.T) {
		if derivedPrefix[struct{ X int }]() != nil {
			t.Fatalf("derived a prefix for an unordered struct type")
		}
	})
}

// TestPrefixGuardDropsContradictedHook: a descending comparator
// contradicts the derived natural-order prefix; the guard must drop
// the hook (on data where the contradiction is visible) and the sort
// must still be correct.
func TestPrefixGuardDropsContradictedHook(t *testing.T) {
	greater := func(a, b int) bool { return a > b }
	if !prefixGuard([]int{5, 3, 1}, intLess, derivedPrefix[int]()) {
		t.Fatalf("guard dropped a valid hook")
	}
	if prefixGuard([]int{1, 3, 5}, greater, derivedPrefix[int]()) {
		t.Fatalf("guard kept a hook that contradicts the comparator")
	}

	// End to end: ascending local data makes every PE's guard see the
	// contradiction; the run must fall back to the plain path and sort
	// descending correctly.
	p, perPE := 4, 300
	locals := make([][]int, p)
	for r := range locals {
		loc := make([]int, perPE)
		for i := range loc {
			loc[i] = r*perPE + i
		}
		locals[r] = loc
	}
	for _, fn := range []sorterFn{AMSSort[int], RLMSort[int]} {
		m := sim.NewDefault(p)
		outs := make([][]int, p)
		m.Run(func(pe *sim.PE) {
			data := append([]int(nil), locals[pe.Rank()]...)
			outs[pe.Rank()], _ = fn(sim.World(pe), data, greater, Config{Levels: 1, Seed: 9})
		})
		want := p*perPE - 1
		for r := 0; r < p; r++ {
			for _, v := range outs[r] {
				if v != want {
					t.Fatalf("descending sort broken: got %d, want %d", v, want)
				}
				want--
			}
		}
	}
}

// TestPrefixPathByteIdentity: with a coarse non-injective hook on a
// tie-revealing struct element, the prefix path must reproduce the
// plain comparator path byte for byte — including under Appendix-D
// tie-breaking and across multi-level plans — and so must the exact
// Key path, whose stable radix kernels keep equal-key payloads in the
// comparator path's order.
func TestPrefixPathByteIdentity(t *testing.T) {
	type kv struct{ K, V int }
	kvLess := func(a, b kv) bool { return a.K < b.K }
	hook := func(e kv) uint64 { return uint64(e.K) >> 2 }

	rng := rand.New(rand.NewSource(4))
	p, perPE := 6, 400
	locals := make([][]kv, p)
	v := 0
	for r := range locals {
		loc := make([]kv, perPE)
		for i := range loc {
			loc[i] = kv{K: rng.Intn(12), V: v} // heavy ties
			v++
		}
		locals[r] = loc
	}

	run := func(fn func(c *sim.PE) ([]kv, *Stats)) [][]kv {
		outs := make([][]kv, p)
		m := sim.NewDefault(p)
		m.Run(func(pe *sim.PE) {
			outs[pe.Rank()], _ = fn(pe)
		})
		return outs
	}

	for _, tieBreak := range []bool{false, true} {
		for _, levels := range []int{1, 2} {
			base := Config{Levels: levels, Seed: 11, TieBreak: tieBreak}
			for name, mk := range map[string]func(c *sim.PE, cfg Config) ([]kv, *Stats){
				"ams": func(pe *sim.PE, cfg Config) ([]kv, *Stats) {
					return AMSSort(sim.World(pe), append([]kv(nil), locals[pe.Rank()]...), kvLess, cfg)
				},
				"rlm": func(pe *sim.PE, cfg Config) ([]kv, *Stats) {
					return RLMSort(sim.World(pe), append([]kv(nil), locals[pe.Rank()]...), kvLess, cfg)
				},
			} {
				off := base
				off.NoPrefix = true
				on := base
				on.Prefix = hook
				keyed := base
				keyed.Key = func(e kv) uint64 { return uint64(e.K) }
				plain := run(func(pe *sim.PE) ([]kv, *Stats) { return mk(pe, off) })
				prefixed := run(func(pe *sim.PE) ([]kv, *Stats) { return mk(pe, on) })
				if !reflect.DeepEqual(plain, prefixed) {
					t.Fatalf("%s levels=%d tieBreak=%v: prefix path diverges from plain comparator path", name, levels, tieBreak)
				}
				if exact := run(func(pe *sim.PE) ([]kv, *Stats) { return mk(pe, keyed) }); !reflect.DeepEqual(plain, exact) {
					t.Fatalf("%s levels=%d tieBreak=%v: Key path diverges from plain comparator path", name, levels, tieBreak)
				}
			}
		}
	}
}
