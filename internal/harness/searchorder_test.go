package harness

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/search"
)

// TestWarmSessionNodeCountsAllDescriptors pins the search order across every
// CRDT descriptor and both polarities: randomized histories plus their
// corrupted (refuted) variants are checked through one warming session and
// sessionless, and verdicts and node counts must be identical — the order
// (query commit, then rank order) depends on the history alone, never on
// what a session has seen. DebugMemo turns any hash-compaction collision
// into a panic instead of a silent mis-prune.
func TestWarmSessionNodeCountsAllDescriptors(t *testing.T) {
	for _, d := range registry.All() {
		opts := d.CheckOptions()
		opts.Strategies = nil // force the search
		opts.Exhaustive = true
		opts.DebugMemo = true
		var hs []*core.History
		for trial := 0; trial < 4; trial++ {
			cfg := WorkloadConfig{Seed: int64(700*trial + 17), Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40}
			h, err := RunRandom(d, cfg)
			if err != nil {
				t.Fatalf("%s workload: %v", d.Name, err)
			}
			hs = append(hs, h)
			if bad := corruptQueryRet(h, int64(trial)); bad != nil {
				hs = append(hs, bad)
			}
		}
		sess := search.NewSession()
		for k, h := range hs {
			warm := core.CheckRAWith(h, d.Spec, opts, sess)
			fresh := core.CheckRA(h, d.Spec, opts)
			if warm.Verdict != fresh.Verdict {
				t.Errorf("%s history %d: warm-session verdict %v, sessionless %v", d.Name, k, warm.Verdict, fresh.Verdict)
			}
			if warm.Nodes != fresh.Nodes {
				t.Errorf("%s history %d: warm session explored %d nodes, sessionless %d", d.Name, k, warm.Nodes, fresh.Nodes)
			}
		}
	}
}
