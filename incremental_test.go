package ralin

// Op-by-op incremental replay of the committed scenario corpus: every corpus
// entry is re-grown one operation at a time through core.CheckRAExtend over a
// shared warm session, and the verdict of EVERY prefix is compared against a
// from-scratch check of a clone of that prefix. This is the acceptance gate
// of the incremental checker — byte-identical verdicts along the whole
// growth curve, certificate replays or not. The CI workflow runs this test
// under the race detector.

import (
	"fmt"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
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
// prefix, an IsRALinearization check of every Valid prefix's witness, plus
// the recorded corpus verdict for the full history.
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
			checkWitness(t, fmt.Sprintf("%s: prefix %d/%d (replayed=%v)", paths[i], k+1, h.Len(), res.WitnessReplayed), res, plan.Spec)
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

// TestSessionRecheckOfGrownHistory re-checks one live history through the
// same session after it grew, by a label and then by an edge. The session
// keys its history records by history pointer, so a record that ignored the
// growth would serve the rewriting of the shorter history and re-prove its
// Valid verdict; every re-check must instead rewrite afresh and agree with a
// sessionless check.
func TestSessionRecheckOfGrownHistory(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultWorkload()
	cfg.Seed = 7
	cfg.Ops = 8
	h, err := harness.RunRandom(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := search.NewSession()
	opts := d.CheckOptions()
	if res := core.CheckRAWith(h, d.Spec, opts, sess); res.Verdict != core.VerdictValid {
		t.Fatalf("generated history: verdict %v, want Valid: %v", res.Verdict, res.LastErr)
	}
	recheck := func(step string) {
		t.Helper()
		res := core.CheckRAWith(h, d.Spec, opts, sess)
		fresh := core.CheckRA(h, d.Spec, opts)
		if res.RewriteCached {
			t.Errorf("%s: the session served a cached rewriting of the history before it grew", step)
		}
		if res.Rewritten.Len() != fresh.Rewritten.Len() || res.Verdict != fresh.Verdict {
			t.Fatalf("%s: session verdict %v over %d rewritten labels, sessionless %v over %d",
				step, res.Verdict, res.Rewritten.Len(), fresh.Verdict, fresh.Rewritten.Len())
		}
	}

	// A read of an element nothing ever added: Invalid from scratch.
	var maxID uint64
	var update uint64
	for i := 0; i < h.Len(); i++ {
		l := h.LabelAt(i)
		maxID = max(maxID, l.ID)
		if l.Method == "add" {
			update = l.ID
		}
	}
	read := &core.Label{ID: maxID + 1, Method: "read", Ret: []string{"zzz"}, Kind: core.KindQuery, GenSeq: maxID + 1}
	h.MustAdd(read)
	recheck("after a new read")
	if res := core.CheckRAWith(h, d.Spec, opts, sess); !res.RewriteCached || res.Verdict != core.VerdictInvalid {
		t.Fatalf("unchanged history: want the cached rewriting and Invalid, got cached=%v verdict %v", res.RewriteCached, res.Verdict)
	}
	// An edge alone (no new label) retires the cached rewriting too.
	if update == 0 {
		t.Fatal("the generated history has no add to make visible to the read")
	}
	h.MustAddVis(update, read.ID)
	recheck("after a new edge")
}

// TestSessionRecheckAfterExtend replays a history op by op through
// core.CheckRAExtend and then checks the whole history plainly through the
// same session. The extensions grew the history's rewriting in place, so the
// plain check must be served that grown rewriting instead of cloning the
// history again, and must reach the verdict and node count of a sessionless
// check.
func TestSessionRecheckAfterExtend(t *testing.T) {
	d, err := registry.Lookup("OR-Set")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultWorkload()
	cfg.Seed = 7
	cfg.Ops = 12
	h, err := harness.RunRandom(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := d.CheckOptions()
	opts.Strategies = nil // force the search, so the node counts are compared
	opts.Exhaustive = true
	sess := search.NewSession()
	incOpts := opts
	incOpts.Session = sess

	buckets := corpusPrefixBuckets(t, h)
	g := core.NewHistory()
	var last core.Result
	for k := 0; k < h.Len(); k++ {
		l := h.LabelAt(k)
		g.MustAdd(l)
		for _, e := range buckets[k] {
			g.MustAddVis(e.From, e.To)
		}
		last = core.CheckRAExtend(g, d.Spec, []*core.Label{l}, incOpts)
	}
	if !last.Extended {
		t.Fatalf("the last prefix did not go through the extension: %+v", last)
	}

	res := core.CheckRAWith(g, d.Spec, opts, sess)
	fresh := core.CheckRA(g, d.Spec, opts)
	if !res.RewriteCached || res.Rewritten != last.Rewritten {
		t.Errorf("re-check after Extend: RewriteCached=%v, same rewriting as the extension %v; want the grown rewriting served",
			res.RewriteCached, res.Rewritten == last.Rewritten)
	}
	if res.Verdict != fresh.Verdict || res.Nodes != fresh.Nodes {
		t.Fatalf("session re-check: verdict %v in %d nodes, sessionless %v in %d nodes",
			res.Verdict, res.Nodes, fresh.Verdict, fresh.Nodes)
	}
	if fresh.Nodes == 0 {
		t.Fatal("the sessionless check did not search: the node counts compare nothing")
	}
}
