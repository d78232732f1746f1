package search_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/search"
)

// prefixBuckets groups h's direct visibility edges by the step at which both
// endpoints exist (the larger insertion rank), so a test can replay h the way
// a live monitor would have observed it: label k, then bucket k.
func prefixBuckets(t *testing.T, h *core.History) [][]core.VisEdge {
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

// replayCompare replays h op-by-op through core.CheckRAExtend over sess and,
// at every prefix, compares the incremental verdict against a from-scratch
// sessionless check of a clone of the same prefix, and checks every Valid
// prefix's witness with core.IsRALinearization. A prefix the extension
// decided by its fallback search must also report exactly the work of a
// sessionless search.Run over the same grown rewriting. It returns the final
// result, the number of prefixes whose certificate replayed and the number
// decided by the fallback search.
func replayCompare(t *testing.T, ctx string, h *core.History, sp core.Spec, opts core.CheckOptions, sess *search.Session) (last core.Result, replayed, searched int) {
	t.Helper()
	opts.Session = sess
	buckets := prefixBuckets(t, h)
	g := core.NewHistory()
	for k := 0; k < h.Len(); k++ {
		l := h.LabelAt(k)
		if err := g.Add(l); err != nil {
			t.Fatalf("%s: replaying op %d: %v", ctx, k, err)
		}
		for _, e := range buckets[k] {
			if err := g.AddVis(e.From, e.To); err != nil {
				t.Fatalf("%s: replaying edges of op %d: %v", ctx, k, err)
			}
		}
		res := core.CheckRAExtend(g, sp, []*core.Label{l}, opts)
		scratch := opts
		scratch.Session = nil
		fresh := core.CheckRA(g.Clone(), sp, scratch)
		if res.Verdict != fresh.Verdict {
			t.Fatalf("%s: prefix %d/%d: incremental verdict %v (replayed=%v) diverges from from-scratch %v\nprefix:\n%s",
				ctx, k+1, h.Len(), res.Verdict, res.WitnessReplayed, fresh.Verdict, g)
		}
		if res.Verdict == core.VerdictValid {
			if err := core.IsRALinearization(res.Rewritten, res.Linearization, sp); err != nil {
				t.Fatalf("%s: prefix %d/%d: witness (replayed=%v) fails IsRALinearization: %v", ctx, k+1, h.Len(), res.WitnessReplayed, err)
			}
		}
		if res.WitnessReplayed {
			replayed++
		} else if res.Extended {
			searched++
			out := search.Run(res.Rewritten, sp, false, scratch)
			if out.Nodes != res.Nodes || out.Pruned != res.Pruned || out.MemoHits != res.MemoHits {
				t.Fatalf("%s: prefix %d/%d: fallback search did %d nodes, %d pruned, %d memo hits; search.Run over its rewriting %d, %d, %d",
					ctx, k+1, h.Len(), res.Nodes, res.Pruned, res.MemoHits, out.Nodes, out.Pruned, out.MemoHits)
			}
		}
		last = res
	}
	return last, replayed, searched
}

// TestExtendMatchesFromScratchAllDescriptors is the tentpole differential: for
// every registered CRDT, in both verdict polarities (as generated and with a
// corrupted query), the incremental op-by-op replay must report the exact
// from-scratch verdict at every prefix, and every fallback search the node
// counts of a sessionless search over its rewriting. DebugMemo is on
// throughout, so each replay also soaks the memo collision invariant across
// the warm session.
func TestExtendMatchesFromScratchAllDescriptors(t *testing.T) {
	const trials = 4
	searched := 0
	t.Cleanup(func() {
		if searched == 0 && !t.Failed() {
			t.Error("no prefix reached the fallback search — its node-count parity went unchecked")
		}
	})
	for _, d := range registry.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			sess := search.NewSession()
			for trial := 0; trial < trials; trial++ {
				cfg := harness.WorkloadConfig{
					Seed:         int64(4000*trial + 23),
					Ops:          6,
					Replicas:     3,
					Elems:        []string{"a", "b"},
					DeliveryProb: 40,
				}
				h, err := harness.RunRandom(d, cfg)
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				opts := core.CheckOptions{
					Rewriting:     d.Rewriting,
					Exhaustive:    true,
					MaxExtensions: 2_000_000,
					DebugMemo:     true,
				}
				_, replayed, n := replayCompare(t, fmt.Sprintf("trial %d", trial), h, d.Spec, opts, sess)
				searched += n
				if h.Len() > 1 && replayed == 0 {
					t.Errorf("trial %d: no prefix replayed its certificate over %d ops — the incremental path never engaged", trial, h.Len())
				}
				if bad := corruptQuery(h, int64(trial)); bad != nil {
					_, _, n := replayCompare(t, fmt.Sprintf("trial %d (corrupted)", trial), bad, d.Spec, opts, sess)
					searched += n
				}
			}
		})
	}
}

// TestExtendPropertyUnderPressure interleaves the op-by-op extension stream
// with the failure modes a long-lived monitor session meets: cancelled
// contexts on random steps and a memory budget small enough to trip and evict
// repeatedly. Soundness contract: a pressured step may report Unknown, but
// any definite verdict must match the from-scratch check of the same prefix,
// and the session must keep working after every disruption.
func TestExtendPropertyUnderPressure(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		sess := search.NewSessionWithBudget(search.Budget{MaxInternedStates: 8, MaxMemoBytes: 1 << 12})
		cfg := harness.WorkloadConfig{
			Seed:         int64(5000*trial + 31),
			Ops:          8,
			Replicas:     3,
			Elems:        []string{"a", "b"},
			DeliveryProb: 40,
		}
		h, err := harness.RunRandom(d, cfg)
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		buckets := prefixBuckets(t, h)
		g := core.NewHistory()
		for k := 0; k < h.Len(); k++ {
			l := h.LabelAt(k)
			if err := g.Add(l); err != nil {
				t.Fatalf("replaying op %d: %v", k, err)
			}
			for _, e := range buckets[k] {
				if err := g.AddVis(e.From, e.To); err != nil {
					t.Fatalf("replaying edges of op %d: %v", k, err)
				}
			}
			opts := core.CheckOptions{
				Rewriting:  d.Rewriting,
				Exhaustive: true,
				Session:    sess,
			}
			cancelled := rng.Intn(3) == 0
			if cancelled {
				opts.Context = dead
			}
			res := core.CheckRAExtend(g, d.Spec, []*core.Label{l}, opts)
			if cancelled {
				if res.Verdict != core.VerdictUnknown {
					t.Fatalf("trial %d prefix %d: cancelled step must be Unknown, got %v", trial, k, res.Verdict)
				}
				continue
			}
			if res.Verdict == core.VerdictUnknown {
				// Budget trips degrade but never truncate by themselves here
				// (no node/time budget is set), so a definite verdict is
				// expected — but Unknown would still only be sound, not wrong.
				t.Fatalf("trial %d prefix %d: unexpected Unknown without a truncating budget: %+v", trial, k, res.Incomplete)
			}
			scratch := core.CheckRA(g.Clone(), d.Spec, core.CheckOptions{
				Rewriting:  d.Rewriting,
				Exhaustive: true,
			})
			if res.Verdict != scratch.Verdict {
				t.Fatalf("trial %d prefix %d: verdict %v diverges from from-scratch %v", trial, k, res.Verdict, scratch.Verdict)
			}
		}
	}
}

// TestMonitorHistoryMatchesFromScratch closes the loop at the harness layer:
// the verdict sequence harness.MonitorHistory reports must equal from-scratch
// checks of every prefix it constructs, and its path counters must cover all
// prefixes.
func TestMonitorHistoryMatchesFromScratch(t *testing.T) {
	d, err := registry.Lookup("PN-Counter")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.WorkloadConfig{Seed: 77, Ops: 8, Replicas: 3, Elems: []string{"a", "b"}, DeliveryProb: 40}
	h, err := harness.RunRandom(d, cfg)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	opts := core.CheckOptions{Rewriting: d.Rewriting, Exhaustive: true}
	rep, err := harness.MonitorHistory(h, d.Spec, opts, harness.Options{BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != h.Len() || len(rep.Verdicts) != h.Len() {
		t.Fatalf("monitor covered %d/%d ops, %d verdicts", rep.Ops, h.Len(), len(rep.Verdicts))
	}
	if rep.Replayed+rep.Searched+rep.Rebuilt != rep.Ops {
		t.Fatalf("path counters %d+%d+%d must cover %d prefixes", rep.Replayed, rep.Searched, rep.Rebuilt, rep.Ops)
	}
	buckets := prefixBuckets(t, h)
	g := core.NewHistory()
	for k := 0; k < h.Len(); k++ {
		if err := g.Add(h.LabelAt(k)); err != nil {
			t.Fatal(err)
		}
		for _, e := range buckets[k] {
			if err := g.AddVis(e.From, e.To); err != nil {
				t.Fatal(err)
			}
		}
		fresh := core.CheckRA(g.Clone(), d.Spec, opts)
		if rep.Verdicts[k] != fresh.Verdict {
			t.Fatalf("prefix %d: monitor verdict %v diverges from from-scratch %v", k, rep.Verdicts[k], fresh.Verdict)
		}
	}
	if rep.Final.Verdict != rep.Verdicts[h.Len()-1] {
		t.Fatalf("Final %v must be the last prefix verdict %v", rep.Final.Verdict, rep.Verdicts[h.Len()-1])
	}
}
