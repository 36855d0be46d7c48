package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/delivery"
	"pmsort/internal/native"
	"pmsort/internal/seq"
	"pmsort/internal/sim"
	"pmsort/internal/workload"
)

// streamResult is one rank's view of a level's exchange consumer: the
// concatenation with its radix histograms or prefix sidecar, and the
// staged merge runs with their sidecars.
type streamResult struct {
	concat  []uint64
	hist    *seq.KeyedHist
	pfx     []uint64
	runs    [][]uint64
	runsPfx [][]uint64
}

// normalize maps empty results to nil: whether an empty result was
// ever allocated is not part of the consumers' contract.
func (r *streamResult) normalize() {
	if len(r.concat) == 0 {
		r.concat = nil
	}
	if len(r.pfx) == 0 {
		r.pfx = nil
	}
	if len(r.runs) == 0 {
		r.runs, r.runsPfx = nil, nil
	}
}

// referenceConsume is the materialize-then-process reference of the
// streaming consumers: delivery.Deliver, then the received chunks
// concatenated in rank order with the histograms or the sidecar taken
// over the concatenation, and the per-chunk sidecars of the merge runs.
func referenceConsume(c comm.Communicator, pieces [][]uint64, opt delivery.Options, pf func(uint64) uint64, exact bool) streamResult {
	var res streamResult
	chunks := delivery.Deliver(c, pieces, opt)
	for _, ch := range chunks {
		res.concat = append(res.concat, ch...)
	}
	switch {
	case exact:
		res.hist = &seq.KeyedHist{}
		seq.HistKeyed(res.concat, pf, res.hist)
	case pf != nil:
		res.pfx = seq.ExtractPrefixes(nil, res.concat, pf)
	}
	if pf != nil {
		res.runs = chunks
		res.runsPfx = make([][]uint64, len(chunks))
		for i, ch := range chunks {
			res.runsPfx[i] = seq.ExtractPrefixes(nil, ch, pf)
		}
	}
	return res
}

// streamedConsume runs the sorters' consumers, streamConcat and (on a
// live hook) streamRuns, over the same pieces. streamRuns' prefix arena
// starts recycled — non-empty, with spare capacity — as on later levels.
func streamedConsume(c comm.Communicator, pieces [][]uint64, opt delivery.Options, pf func(uint64) uint64, exact bool) streamResult {
	var res streamResult
	var pfx []uint64
	if exact {
		res.hist = &seq.KeyedHist{}
	} else if pf != nil {
		pfx = make([]uint64, 0, 8)
	}
	res.concat, res.pfx = streamConcat(c, pieces, opt, make([]uint64, 0, 4), pf, res.hist, pfx)
	if pf != nil {
		st := &localScratch[uint64]{prefix: pf, exact: exact, pfx: make([]uint64, 5, 16)}
		res.runs, res.runsPfx = streamRuns(c, pieces, opt, st)
	}
	return res
}

// TestStreamConsumersMatchReference pins the streaming exchange
// consumers byte for byte against the materialize-then-process
// reference — concatenation, histograms, sidecars, and merge runs — for
// exact, prefix, and plain hooks, every delivery strategy and exchange
// algorithm, on the simulated and native backends.
func TestStreamConsumersMatchReference(t *testing.T) {
	const p, perPE = 5, 300
	hooks := []struct {
		name  string
		pf    func(uint64) uint64
		exact bool
	}{
		{"exact", func(x uint64) uint64 { return x }, true},
		{"prefix", func(x uint64) uint64 { return x >> 8 }, false},
		{"plain", nil, false},
	}
	kinds := []workload.Kind{workload.Uniform, workload.DupHeavy, workload.OnePE}
	for _, hook := range hooks {
		for strat := delivery.Simple; strat <= delivery.Deterministic; strat++ {
			for ex := delivery.OneFactor; ex <= delivery.Direct; ex++ {
				for ki, kind := range kinds {
					name := fmt.Sprintf("%s/%v/%d/%v", hook.name, strat, ex, kind)
					opt := delivery.Options{Strategy: strat, Exchange: ex, Seed: uint64(ki) + 3}
					r := 1 + ki*2 // 1, 3, 5 pieces: one group up to all singletons
					for _, backend := range []string{"sim", "native"} {
						got := make([][2]streamResult, p)
						var mu sync.Mutex
						run := func(c comm.Communicator) {
							data := workload.Local(kind, 7, p, perPE, c.Rank())
							cut := func() [][]uint64 {
								pieces := make([][]uint64, r)
								prev := 0
								for j := 0; j < r-1; j++ {
									next := prev + (len(data)-prev)/(r-j)
									pieces[j] = data[prev:next]
									prev = next
								}
								pieces[r-1] = data[prev:]
								return pieces
							}
							ref := referenceConsume(c, cut(), opt, hook.pf, hook.exact)
							str := streamedConsume(c, cut(), opt, hook.pf, hook.exact)
							mu.Lock()
							got[c.Rank()] = [2]streamResult{ref, str}
							mu.Unlock()
						}
						if backend == "sim" {
							sim.NewDefault(p).Run(func(pe *sim.PE) { run(sim.World(pe)) })
						} else {
							native.New(p).Run(run)
						}
						for rank, g := range got {
							ref, str := g[0], g[1]
							ref.normalize()
							str.normalize()
							if !reflect.DeepEqual(ref, str) {
								t.Fatalf("%s on %s: rank %d streamed consumer differs from the reference", name, backend, rank)
							}
						}
					}
				}
			}
		}
	}
}
