package search

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// guidedOpts builds deterministic (sequential) guided check options carrying
// the session.
func guidedOpts(sess *Session) core.CheckOptions {
	o := sessOpts(sess)
	o.Guidance = core.GuidanceGuided
	return o
}

// witnessIDs renders an engine outcome's witness as a label-ID sequence (nil
// for refutations); identical sequences mean identical branch orders reached
// the witness.
func witnessIDs(out core.EngineOutcome) []uint64 {
	if out.Witness == nil {
		return nil
	}
	ids := make([]uint64, len(out.Witness))
	for i, l := range out.Witness {
		ids[i] = l.ID
	}
	return ids
}

// TestGuidedDeterminism pins the guided-mode determinism contract: the same
// history batch through two identically fresh sessions (sequential searches)
// must produce identical branch orders — observed as identical witness
// sequences — and identical node counts, check for check.
func TestGuidedDeterminism(t *testing.T) {
	batch := []int64{6, 99, 6, 5, 99} // positives, refutations, and a re-check
	run := func() ([]int, [][]uint64) {
		sess := NewSession()
		var nodes []int
		var wits [][]uint64
		for _, ret := range batch {
			out := Run(distinctIncsHistory(6, ret), spec.Counter{}, false, guidedOpts(sess))
			if !out.Complete {
				t.Fatalf("ret=%d: guided check truncated: %+v", ret, out)
			}
			nodes = append(nodes, out.Nodes)
			wits = append(wits, witnessIDs(out))
		}
		return nodes, wits
	}
	nodes1, wits1 := run()
	nodes2, wits2 := run()
	for k := range batch {
		if nodes1[k] != nodes2[k] {
			t.Errorf("check %d: node counts diverged across identical sessions: %d vs %d", k, nodes1[k], nodes2[k])
		}
		if len(wits1[k]) != len(wits2[k]) {
			t.Fatalf("check %d: witness lengths diverged: %v vs %v", k, wits1[k], wits2[k])
		}
		for i := range wits1[k] {
			if wits1[k][i] != wits2[k][i] {
				t.Errorf("check %d: branch order diverged at witness position %d: %v vs %v", k, i, wits1[k], wits2[k])
				break
			}
		}
	}
}

// TestGuidedMatchesRankOrderVerdicts is the in-package differential gate:
// guided and rank-order searches of the same histories must reach identical
// verdicts and completeness; only node counts may differ. On refutations the
// query-commit reduction must never explore more nodes than rank order (the
// rank-order refutation DAG is a superset of the committed one).
func TestGuidedMatchesRankOrderVerdicts(t *testing.T) {
	for _, ret := range []int64{4, 5, 99} {
		h := distinctIncsHistory(5, ret)
		rank := Run(h, spec.Counter{}, false, sessOpts(nil))
		guided := Run(h, spec.Counter{}, false, guidedOpts(nil))
		if rank.OK != guided.OK || rank.Complete != guided.Complete {
			t.Errorf("ret=%d: guided verdict diverged: rank %+v vs guided %+v", ret, rank, guided)
		}
		if !rank.OK && guided.Nodes > rank.Nodes {
			t.Errorf("ret=%d: guided refutation explored more nodes than rank order: %d > %d",
				ret, guided.Nodes, rank.Nodes)
		}
	}
}

// TestGuidedStrongMode checks that guided ordering is sound in strong mode,
// where the query-commit reduction must stay off (a strong-mode query is
// judged against the full preceding prefix, so committing to it at enablement
// would be unsound): verdicts match rank order on both polarities.
func TestGuidedStrongMode(t *testing.T) {
	for _, ret := range []int64{4, 99} {
		h := distinctIncsHistory(4, ret)
		rank := Run(h, spec.Counter{}, true, sessOpts(nil))
		guided := Run(h, spec.Counter{}, true, guidedOpts(nil))
		if rank.OK != guided.OK || rank.Complete != guided.Complete {
			t.Errorf("strong ret=%d: guided verdict diverged: rank %+v vs guided %+v", ret, rank, guided)
		}
	}
}

// TestGuidedParallelAgrees runs the guided search with the work-stealing
// scheduler: parallel guided verdicts must match the sequential ones (node
// counts are scheduling-dependent and exempt).
func TestGuidedParallelAgrees(t *testing.T) {
	for _, ret := range []int64{7, 99} {
		h := distinctIncsHistory(7, ret)
		seq := Run(h, spec.Counter{}, false, guidedOpts(nil))
		par := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 4, Guidance: core.GuidanceGuided})
		if seq.OK != par.OK || seq.Complete != par.Complete {
			t.Errorf("ret=%d: parallel guided diverged: seq %+v vs par %+v", ret, seq, par)
		}
	}
}

// TestScoreTable pins the success-memory semantics: witnesses credit their
// label classes once each, every recorded outcome decays existing counters,
// refutations (nil witness) decay without crediting, and counters below
// epsilon are dropped so the table stays bounded.
func TestScoreTable(t *testing.T) {
	tab := newScoreTable()
	inc := &core.Label{Method: "inc", Kind: core.KindUpdate}
	read := &core.Label{Method: "read", Kind: core.KindQuery}
	if got := tab.score(guideClass(inc)); got != 0 {
		t.Fatalf("empty table must score 0, got %d", got)
	}
	tab.record([]*core.Label{inc, inc, read}) // inc credited once despite appearing twice
	incScore := tab.score(guideClass(inc))
	if incScore == 0 || incScore != tab.score(guideClass(read)) {
		t.Fatalf("one credit each: inc=%d read=%d", incScore, tab.score(guideClass(read)))
	}
	tab.record(nil) // refutation: decay only
	if got := tab.score(guideClass(inc)); got >= incScore || got == 0 {
		t.Fatalf("decay must shrink without zeroing: %d (was %d)", got, incScore)
	}
	for i := 0; i < 20; i++ {
		tab.record(nil)
	}
	tab.mu.RLock()
	n := len(tab.scores)
	tab.mu.RUnlock()
	if n != 0 {
		t.Fatalf("sub-epsilon counters must be dropped, %d remain", n)
	}
	var nilTab *scoreTable
	nilTab.record([]*core.Label{inc}) // nil-safety
	if got := nilTab.score("inc"); got != 0 {
		t.Fatalf("nil table must score 0, got %d", got)
	}
}

// TestGuidedScoresLearnedAcrossBatch checks the learning loop end to end:
// guided checks through a session populate the success table from their
// witnesses, and a budget eviction drops it with the other caches.
func TestGuidedScoresLearnedAcrossBatch(t *testing.T) {
	sess := NewSession()
	out := Run(concurrentIncsHistory(5, 5), spec.Counter{}, false, guidedOpts(sess))
	if !out.OK {
		t.Fatalf("read⇒5 after 5 incs must linearize: %+v", out)
	}
	if got := sess.guideScores().score("inc"); got == 0 {
		t.Fatal("witness completion must credit the inc class")
	}
	// Rank-order checks must not touch the table.
	before := sess.guideScores().score("inc")
	Run(concurrentIncsHistory(5, 5), spec.Counter{}, false, sessOpts(sess))
	if got := sess.guideScores().score("inc"); got != before {
		t.Fatalf("rank-order check changed the score table: %d -> %d", before, got)
	}
	// Eviction starts a fresh generation: scores gone with the other caches.
	sess.noteTrip()
	sess.beginCheck()
	sess.endCheck()
	if got := sess.guideScores().score("inc"); got != 0 {
		t.Fatalf("eviction must drop guidance scores, still %d", got)
	}
}
