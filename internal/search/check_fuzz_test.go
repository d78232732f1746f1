package search_test

import (
	"fmt"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/search"
)

// maxFuzzOps caps the operations of a fuzzed history, so the legacy
// enumerator the pruned engine is compared against stays fast.
const maxFuzzOps = 8

// FuzzCheck is the engine fuzz target. The inputs pick a registered CRDT, a
// workload seed, an operation count (1..maxFuzzOps), a delivery probability
// and whether to corrupt one query's return value (the refuting polarity).
// For the generated history it asserts that the pruned engine agrees with
// the legacy enumerator and that every pruned witness passes
// core.IsRALinearization (compareEngines), and that an op-by-op
// core.CheckRAExtend replay reports the from-scratch verdict at every prefix
// (replayCompare).
func FuzzCheck(f *testing.F) {
	for i := range registry.All() {
		f.Add(int64(17+i), uint8(6), uint8(i), uint8(40), false)
		f.Add(int64(23+i), uint8(8), uint8(i), uint8(70), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops, desc, delivery uint8, corrupt bool) {
		all := registry.All()
		d := all[int(desc)%len(all)]
		cfg := harness.WorkloadConfig{
			Seed:         seed,
			Ops:          1 + int(ops)%maxFuzzOps,
			Replicas:     3,
			Elems:        []string{"a", "b"},
			DeliveryProb: int(delivery) % 101,
		}
		h, err := harness.RunRandom(d, cfg)
		if err != nil {
			t.Fatalf("%s workload %+v: %v", d.Name, cfg, err)
		}
		if corrupt {
			if h = corruptQuery(h, seed); h == nil {
				return
			}
		}
		ctx := fmt.Sprintf("%s seed %d ops %d delivery %d corrupt %v", d.Name, seed, cfg.Ops, cfg.DeliveryProb, corrupt)
		compareEngines(t, ctx, h, d.Spec, d.Rewriting)
		opts := core.CheckOptions{
			Rewriting:     d.Rewriting,
			Exhaustive:    true,
			MaxExtensions: 2_000_000,
			DebugMemo:     true,
		}
		replayCompare(t, ctx, h, d.Spec, opts, search.NewSession())
	})
}
