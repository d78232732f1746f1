package ralin

// Op-by-op incremental replay of the committed scenario corpus: every corpus
// entry is re-grown one operation at a time through core.CheckRAExtend over a
// shared warm session, and the verdict of EVERY prefix is compared against a
// from-scratch check of a clone of that prefix. This is the acceptance gate
// of the incremental checker — byte-identical verdicts along the whole
// growth curve, certificate replays or not. The CI workflow runs this test
// under the race detector.

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/search"
)

// corpusPrefixBuckets groups the entry history's direct visibility edges by
// the step at which both endpoints exist (the larger insertion rank) — the
// order a live monitor would have observed them.
func corpusPrefixBuckets(t *testing.T, h *core.History) [][]core.VisEdge {
	t.Helper()
	buckets := make([][]core.VisEdge, h.Len())
	h.DirectVisEdges(func(from, to uint64) {
		rf, okf := h.RankOf(from)
		rt, okt := h.RankOf(to)
		if !okf || !okt {
			t.Fatalf("edge endpoint missing from history (%d -> %d)", from, to)
		}
		k := rf
		if rt > k {
			k = rt
		}
		buckets[k] = append(buckets[k], core.VisEdge{From: from, To: to})
	})
	return buckets
}

// TestScenarioCorpusIncrementalReplay replays every corpus entry through the
// incremental checker and asserts from-scratch verdict parity at every
// prefix, plus the recorded corpus verdict for the full history.
func TestScenarioCorpusIncrementalReplay(t *testing.T) {
	entries, paths := loadCorpus(t)
	sess := search.NewSession()
	for i, e := range entries {
		h, err := e.History()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		plan, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
		opts := plan.Options
		opts.Strategies = nil // force the search, so certificates matter
		opts.Exhaustive = true
		opts.Engine = core.EnginePruned
		opts.DebugMemo = true

		buckets := corpusPrefixBuckets(t, h)
		g := core.NewHistory()
		var last core.Result
		replayed := 0
		for k := 0; k < h.Len(); k++ {
			l := h.LabelAt(k)
			if err := g.Add(l); err != nil {
				t.Fatalf("%s: replaying op %d: %v", paths[i], k, err)
			}
			for _, edge := range buckets[k] {
				if err := g.AddVis(edge.From, edge.To); err != nil {
					t.Fatalf("%s: replaying edges of op %d: %v", paths[i], k, err)
				}
			}
			incOpts := opts
			incOpts.Session = sess
			res := core.CheckRAExtend(g, plan.Spec, []*core.Label{l}, incOpts)
			fresh := core.CheckRA(g.Clone(), plan.Spec, opts)
			if res.Verdict != fresh.Verdict {
				t.Fatalf("%s: prefix %d/%d: incremental verdict %v (replayed=%v) diverges from from-scratch %v",
					paths[i], k+1, h.Len(), res.Verdict, res.WitnessReplayed, fresh.Verdict)
			}
			if res.WitnessReplayed {
				replayed++
			}
			last = res
		}
		if (last.Verdict == core.VerdictValid) != e.RALinearizable {
			t.Errorf("%s: final incremental verdict %v does not match corpus record RA-linearizable=%v", paths[i], last.Verdict, e.RALinearizable)
		}
		if h.Len() > 1 && replayed == 0 {
			t.Errorf("%s: no prefix replayed its certificate over %d ops — the incremental path never engaged", paths[i], h.Len())
		}
	}
}
