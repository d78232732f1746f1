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
	h := concurrentIncsHistory(7, 99)
	memo := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1})
	nomemo := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1, DisableMemo: true})
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

func TestParallelMatchesSequential(t *testing.T) {
	for _, ret := range []int64{6, 99} {
		h := concurrentIncsHistory(6, ret)
		seq := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1})
		par := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 4})
		if seq.OK != par.OK || seq.Complete != par.Complete {
			t.Fatalf("ret=%d: sequential %+v and parallel %+v verdicts differ", ret, seq, par)
		}
		if par.OK {
			if err := core.IsRALinearization(h, par.Witness, spec.Counter{}); err != nil {
				t.Fatalf("parallel witness invalid: %v", err)
			}
		}
	}
}

func TestNodeBudgetTruncates(t *testing.T) {
	h := concurrentIncsHistory(8, 99)
	out := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1, MaxNodes: 5, DisableMemo: true})
	if out.OK || out.Complete {
		t.Fatalf("a 5-node budget on a 9-label history must truncate: %+v", out)
	}
}

// TestPrunedBeatsLegacyFivefold is the committed evidence for the acceptance
// criterion: on a non-RA-linearizable history the pruned engine must examine
// at least 5× fewer prefixes than the legacy enumerator examines complete
// candidates. Parallelism is deliberately left at the default (GOMAXPROCS):
// since the memo table is shared and claimed on node entry, parallel node
// counts no longer depend on the host's core count beyond scheduling noise
// (TestParallelNodesMatchSequential bounds that noise explicitly). See
// BENCHMARKS.md for measured numbers.
func TestPrunedBeatsLegacyFivefold(t *testing.T) {
	h := concurrentIncsHistory(7, 99)
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

// TestParallelNodesMatchSequential asserts the shared claim-on-entry memo
// table closes the gap between parallel and sequential node counts: with
// per-worker tables, parallel workers re-explored configurations other
// workers had already exhausted (449 sequential vs 635 parallel nodes on this
// history in PR 1); with a shared table a configuration claimed by anyone
// prunes everyone, so the parallel count must stay within 25% of sequential.
func TestParallelNodesMatchSequential(t *testing.T) {
	h := concurrentIncsHistory(7, 99)
	seq := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1})
	if seq.OK || !seq.Complete {
		t.Fatalf("history must be refuted sequentially: %+v", seq)
	}
	for _, workers := range []int{2, 4, 8} {
		par := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: workers})
		if par.OK || !par.Complete {
			t.Fatalf("workers=%d: history must be refuted: %+v", workers, par)
		}
		if limit := seq.Nodes + seq.Nodes/4; par.Nodes > limit {
			t.Fatalf("workers=%d: parallel search explored %d nodes, more than 1.25× the sequential %d",
				workers, par.Nodes, seq.Nodes)
		}
		t.Logf("workers=%d: %d nodes (sequential %d), %d memo hits, %d steals across %d shards",
			workers, par.Nodes, seq.Nodes, par.MemoHits, par.Steals, par.Shards)
	}
}

// TestSharedMemoUnderContention hammers the shared lock-striped memo table
// and the work-stealing queue with many workers over many repetitions on the
// non-linearizable flagship history; under `go test -race` (the CI
// configuration) this doubles as the data-race check for the interner, the
// memo stripes and the queue.
func TestSharedMemoUnderContention(t *testing.T) {
	h := concurrentIncsHistory(7, 99)
	for rep := 0; rep < 10; rep++ {
		out := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 8})
		if out.OK || !out.Complete {
			t.Fatalf("rep %d: history must be refuted definitively: %+v", rep, out)
		}
		if out.Workers != 8 {
			t.Fatalf("rep %d: expected 8 workers, got %d", rep, out.Workers)
		}
		if out.Shards != memoShardCount {
			t.Fatalf("rep %d: expected %d memo shards, got %d", rep, memoShardCount, out.Shards)
		}
		if out.MemoHits == 0 {
			t.Fatalf("rep %d: commuting increments must produce memo hits: %+v", rep, out)
		}
	}
}

// TestStatsSurfaced checks the scheduler statistics reach the engine outcome:
// a sequential run reports no steals and the shard count of the (still
// shared-shaped) memo table; disabling memoization zeroes the shard count.
func TestStatsSurfaced(t *testing.T) {
	h := concurrentIncsHistory(5, 99)
	seq := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1})
	if seq.Steals != 0 {
		t.Fatalf("sequential search cannot steal: %+v", seq)
	}
	if seq.Shards != memoShardCount {
		t.Fatalf("memo shard count must be surfaced: %+v", seq)
	}
	nomemo := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: 1, DisableMemo: true})
	if nomemo.Shards != 0 {
		t.Fatalf("disabled memo must report zero shards: %+v", nomemo)
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
