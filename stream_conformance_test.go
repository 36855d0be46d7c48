package pmsort

import (
	"fmt"
	"reflect"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/native"
	"pmsort/internal/workload"
)

// TestStreamedDeliveryConformance pins that the streaming sorters'
// hooked kernels are invisible in the bytes: with Config.Key set
// (keyed=true) or with the derived prefix cache (keyed=false), the
// output equals the plain comparator kernels' (Key unset, NoPrefix)
// byte for byte, for both sorters, both delivery strategies, and both
// exchange algorithms, on the native backend across several workloads.
// The exchange consumers themselves are pinned against a
// materialize-then-process reference in internal/core
// (TestStreamConsumersMatchReference).
func TestStreamedDeliveryConformance(t *testing.T) {
	const p, perPE = 5, 600
	for _, algo := range []string{"ams", "rlm"} {
		for _, keyed := range []bool{false, true} {
			for _, strat := range []DeliveryStrategy{DeliverySimple, DeliveryDeterministic} {
				for _, kind := range []workload.Kind{workload.Uniform, workload.DupHeavy, workload.OnePE} {
					name := fmt.Sprintf("%s/keyed=%v/%v/%v", algo, keyed, strat, kind)
					t.Run(name, func(t *testing.T) {
						run := func(plain bool) [][]uint64 {
							cfg := Config{Levels: 2, Seed: 99, TieBreak: true}
							cfg.Delivery.Strategy = strat
							cfg.Delivery.Exchange = DeliveryExchange(len(name) % 2)
							if plain {
								cfg.NoPrefix = true
							} else if keyed {
								cfg.Key = u64Key
							}
							outs := make([][]uint64, p)
							native.New(p).Run(func(c comm.Communicator) {
								data := workload.Local(kind, 7, p, perPE, c.Rank())
								var out []uint64
								if algo == "ams" {
									out, _ = AMSSort(c, data, u64Less, cfg)
								} else {
									out, _ = RLMSort(c, data, u64Less, cfg)
								}
								outs[c.Rank()] = out
							})
							return outs
						}
						if plain, hooked := run(true), run(false); !reflect.DeepEqual(plain, hooked) {
							t.Fatalf("hooked output differs from the plain comparator output")
						}
					})
				}
			}
		}
	}
}
