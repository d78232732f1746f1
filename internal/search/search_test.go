package search

import (
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// mkUpdate / mkQuery build minimal labels for hand-rolled histories.
func mkUpdate(id uint64, method string, args ...core.Value) *core.Label {
	return &core.Label{ID: id, Method: method, Args: args, Kind: core.KindUpdate, GenSeq: id}
}

func mkRead(id uint64, ret core.Value) *core.Label {
	return &core.Label{ID: id, Method: "read", Ret: ret, Kind: core.KindQuery, GenSeq: id}
}

// concurrentIncsHistory builds k concurrent inc() updates plus one read that
// sees all of them and returns ret.
func concurrentIncsHistory(k int, ret int64) *core.History {
	h := core.NewHistory()
	for i := 1; i <= k; i++ {
		h.MustAdd(mkUpdate(uint64(i), "inc"))
	}
	r := h.MustAdd(mkRead(uint64(k+1), ret))
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

// distinctIncsHistory is concurrentIncsHistory with an argument of its own
// on every inc. Counter ignores it, but the twin predicate does not: no two
// incs are twins, so a refutation still visits every subset of them — the
// premise of the memo tests that use it.
func distinctIncsHistory(k int, ret int64) *core.History {
	h := core.NewHistory()
	for i := 1; i <= k; i++ {
		h.MustAdd(mkUpdate(uint64(i), "inc", int64(i)))
	}
	r := h.MustAdd(mkRead(uint64(k+1), ret))
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

func TestEmptyHistory(t *testing.T) {
	out := Run(core.NewHistory(), spec.Counter{}, false, core.CheckOptions{})
	if !out.OK || !out.Complete || len(out.Witness) != 0 {
		t.Fatalf("empty history must linearize trivially: %+v", out)
	}
}

func TestSingleLabel(t *testing.T) {
	h := core.NewHistory()
	h.MustAdd(mkUpdate(1, "inc"))
	out := Run(h, spec.Counter{}, false, core.CheckOptions{})
	if !out.OK || len(out.Witness) != 1 {
		t.Fatalf("single update must linearize: %+v", out)
	}
}

func TestFindsWitness(t *testing.T) {
	h := concurrentIncsHistory(5, 5)
	out := Run(h, spec.Counter{}, false, core.CheckOptions{})
	if !out.OK || !out.Complete {
		t.Fatalf("read⇒5 after 5 incs must be RA-linearizable: %+v", out)
	}
	if err := core.IsRALinearization(h, out.Witness, spec.Counter{}); err != nil {
		t.Fatalf("returned witness is not an RA-linearization: %v", err)
	}
}

func TestRejectsImpossibleRead(t *testing.T) {
	h := concurrentIncsHistory(5, 99)
	out := Run(h, spec.Counter{}, false, core.CheckOptions{})
	if out.OK || !out.Complete {
		t.Fatalf("read⇒99 after 5 incs must be rejected definitively: %+v", out)
	}
	if out.LastErr == nil {
		t.Fatal("a definitive rejection must carry a prune reason")
	}
}

func TestQueryUpdateRejected(t *testing.T) {
	h := core.NewHistory()
	h.MustAdd(&core.Label{ID: 1, Method: "remove", Kind: core.KindQueryUpdate, GenSeq: 1})
	out := Run(h, spec.Set{}, false, core.CheckOptions{})
	if out.OK || !out.Complete || out.LastErr == nil {
		t.Fatalf("RA mode must reject unrewritten query-updates: %+v", out)
	}
}

func TestMemoizationCollapsesCommutingUpdates(t *testing.T) {
	h := distinctIncsHistory(7, 99)
	memo := Run(h, spec.Counter{}, false, core.CheckOptions{})
	nomemo := Run(h, spec.Counter{}, false, core.CheckOptions{DisableMemo: true})
	if memo.OK || nomemo.OK {
		t.Fatalf("history must be rejected: memo=%+v nomemo=%+v", memo, nomemo)
	}
	if memo.MemoHits == 0 {
		t.Fatalf("commuting counter increments must produce memo hits, got %+v", memo)
	}
	if memo.Nodes >= nomemo.Nodes {
		t.Fatalf("memoization must shrink the tree: %d nodes with memo, %d without", memo.Nodes, nomemo.Nodes)
	}
}

// TestMemoKeyIsConfiguration checks the configuration hash is a function of
// the configuration alone: two orders placing the same commuting updates hash
// equal — whichever order interned the states first — and a different placed
// set does not.
func TestMemoKeyIsConfiguration(t *testing.T) {
	// Distinct arguments keep the incs from being twins, so every prefix
	// below is one the search can reach.
	h := distinctIncsHistory(4, 4)
	pre := &prepared{}
	if err := pre.build(h, false); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(nil, pre, spec.Counter{}, false, newInterner(), newMemoTable(), newShared(0))
	key := func(prefix ...int) key128 {
		t.Helper()
		s.reset()
		for _, i := range prefix {
			if !s.enter(i) {
				t.Fatalf("prefix %v must be admissible", prefix)
			}
		}
		k, ok := s.memoKey()
		if !ok {
			t.Fatal("counter states are keyable")
		}
		return k
	}
	k10 := key(1, 0)
	if k01 := key(0, 1); k01 != k10 {
		t.Fatalf("same configuration hashed differently: %v vs %v", k01, k10)
	}
	if k02 := key(0, 2); k02 == k10 {
		t.Fatalf("distinct placed sets hashed equal: %v", k02)
	}
}

func TestNodeBudgetTruncates(t *testing.T) {
	h := concurrentIncsHistory(8, 99)
	out := Run(h, spec.Counter{}, false, core.CheckOptions{MaxNodes: 5, DisableMemo: true})
	if out.OK || out.Complete {
		t.Fatalf("a 5-node budget on a 9-label history must truncate: %+v", out)
	}
}

// TestPrunedBeatsLegacyFivefold is the committed evidence for the acceptance
// criterion: on a non-RA-linearizable history the pruned engine must examine
// at least 5× fewer prefixes than the legacy enumerator examines complete
// candidates. See BENCHMARKS.md for measured numbers.
func TestPrunedBeatsLegacyFivefold(t *testing.T) {
	h := distinctIncsHistory(7, 99)
	legacy := core.CheckRA(h, spec.Counter{}, core.CheckOptions{Exhaustive: true, Engine: core.EngineLegacy})
	pruned := core.CheckRA(h, spec.Counter{}, core.CheckOptions{Exhaustive: true, Engine: core.EnginePruned})
	if legacy.Verdict != core.VerdictInvalid || pruned.Verdict != core.VerdictInvalid {
		t.Fatalf("history must be refuted by both engines' complete searches: legacy %v, pruned %v", legacy.Verdict, pruned.Verdict)
	}
	if legacy.Tried < 5*pruned.Nodes {
		t.Fatalf("pruned engine must do ≥5× fewer candidate checks: legacy tried %d, pruned explored %d nodes",
			legacy.Tried, pruned.Nodes)
	}
	t.Logf("legacy tried %d candidates; pruned explored %d nodes (%d pruned, %d memo hits): %.0f× fewer",
		legacy.Tried, pruned.Nodes, pruned.Pruned, pruned.MemoHits, float64(legacy.Tried)/float64(pruned.Nodes))
}

// TestStatsSurfaced checks the search counters reach the engine outcome: a
// refutation reports its nodes, prunes and memo hits, and disabling
// memoization zeroes the hits.
func TestStatsSurfaced(t *testing.T) {
	h := distinctIncsHistory(5, 99)
	memo := Run(h, spec.Counter{}, false, core.CheckOptions{})
	if memo.Nodes == 0 || memo.Pruned == 0 || memo.MemoHits == 0 {
		t.Fatalf("refutation counters must be surfaced: %+v", memo.Stats)
	}
	nomemo := Run(h, spec.Counter{}, false, core.CheckOptions{DisableMemo: true})
	if nomemo.MemoHits != 0 || nomemo.Nodes <= memo.Nodes {
		t.Fatalf("disabled memo must report no hits and more nodes: %+v vs %+v", nomemo.Stats, memo.Stats)
	}
}

func TestStrongModeMatchesLegacy(t *testing.T) {
	// Strongly linearizable: the read sees both incs and returns 2.
	ok := concurrentIncsHistory(2, 2)
	// Not strongly linearizable: visibility forces both incs before the
	// read, whose full prefix then sums to 2, not 1.
	bad := concurrentIncsHistory(2, 1)
	for name, h := range map[string]*core.History{"ok": ok, "bad": bad} {
		legacy := core.CheckStrongLinearizable(h, spec.Counter{}, core.CheckOptions{Engine: core.EngineLegacy})
		pruned := core.CheckStrongLinearizable(h, spec.Counter{}, core.CheckOptions{Engine: core.EnginePruned})
		if legacy.Verdict != pruned.Verdict {
			t.Fatalf("%s: strong verdicts differ: legacy=%+v pruned=%+v", name, legacy, pruned)
		}
	}
}
