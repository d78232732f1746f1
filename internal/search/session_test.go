package search

import (
	"slices"
	"sync"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// sessOpts builds deterministic (sequential) check options carrying the
// session.
func sessOpts(sess *Session) core.CheckOptions {
	return core.CheckOptions{Session: sess}
}

// TestSessionReuseMatchesFresh re-checks the same histories through one
// session and requires byte-identical outcomes to fresh-state runs: session
// reuse is a pure performance change.
func TestSessionReuseMatchesFresh(t *testing.T) {
	sess := NewSession()
	for _, ret := range []int64{6, 99} {
		h := distinctIncsHistory(6, ret)
		fresh := Run(h, spec.Counter{}, false, sessOpts(nil))
		for rep := 0; rep < 3; rep++ {
			got := Run(h, spec.Counter{}, false, sessOpts(sess))
			if got.OK != fresh.OK || got.Complete != fresh.Complete ||
				got.Nodes != fresh.Nodes || got.Pruned != fresh.Pruned || got.MemoHits != fresh.MemoHits {
				t.Fatalf("ret=%d rep=%d: session outcome %+v differs from fresh %+v", ret, rep, got, fresh)
			}
		}
	}
}

// TestSessionMemoResetBetweenHistories guards the arena's soundness: a
// refuted history followed by an identically-shaped linearizable one must
// still find its witness. Both histories produce the same placed-set bitsets
// and (mostly) the same interned counter states, so any memo entry surviving
// the first check would wrongly prune the second.
func TestSessionMemoResetBetweenHistories(t *testing.T) {
	sess := NewSession()
	bad := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, sessOpts(sess))
	if bad.OK || !bad.Complete {
		t.Fatalf("read⇒99 must be refuted: %+v", bad)
	}
	good := Run(concurrentIncsHistory(6, 6), spec.Counter{}, false, sessOpts(sess))
	if !good.OK {
		t.Fatalf("read⇒6 after 6 incs must linearize despite the prior refutation: %+v", good)
	}
}

// TestSessionRecheckInternsNothing checks the point of the session's
// searcher pool: a re-check runs on the searcher the first check pooled,
// whose transition table already numbers every state the history reaches,
// so it assigns no new state ID.
func TestSessionRecheckInternsNothing(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(6, 99)
	Run(h, spec.Counter{}, false, sessOpts(sess))
	after1 := sess.InternedStates()
	if after1 == 0 {
		t.Fatal("counter states must get state IDs")
	}
	Run(h, spec.Counter{}, false, sessOpts(sess))
	if after2 := sess.InternedStates(); after2 != after1 {
		t.Fatalf("re-checking the same history must assign no state ID: %d -> %d", after1, after2)
	}
}

// TestSessionConcurrentChecks runs many checks of different polarities
// concurrently over one session; under `go test -race` this is the data-race
// check for the session's searcher pool and records.
func TestSessionConcurrentChecks(t *testing.T) {
	sess := NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				ret := int64(5)
				wantOK := true
				if (g+rep)%2 == 1 {
					ret, wantOK = 99, false
				}
				out := Run(distinctIncsHistory(5, ret), spec.Counter{}, false, sessOpts(sess))
				if out.OK != wantOK || !out.Complete {
					t.Errorf("g=%d rep=%d: got %+v, want OK=%v", g, rep, out, wantOK)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionSearcherPoolReuse checks plan reuse through the searcher pool end
// to end: the first check of a session builds its plan fresh, later checks
// draw recycled searchers and rebuild their plans (surfaced as PlanReused),
// and a recycled plan rebuilt for a history of a different size produces
// exactly the outcome of a fresh plan.
func TestSessionSearcherPoolReuse(t *testing.T) {
	sess := NewSession()
	first := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, sessOpts(sess))
	if first.PlanReused {
		t.Fatalf("first check of a session cannot reuse a plan: %+v", first)
	}
	// Twin incs chain into one order; distinct ones branch and hit the memo.
	for _, mk := range []func(int, int64) *core.History{concurrentIncsHistory, distinctIncsHistory} {
		for _, k := range []int{6, 3, 8} { // shrink and grow across reuses
			fresh := Run(mk(k, 99), spec.Counter{}, false, sessOpts(nil))
			got := Run(mk(k, 99), spec.Counter{}, false, sessOpts(sess))
			if !got.PlanReused {
				t.Fatalf("k=%d: warm session must reuse a pooled plan: %+v", k, got)
			}
			if fresh.PlanReused {
				t.Fatalf("k=%d: sessionless run cannot reuse a plan: %+v", k, fresh)
			}
			got.PlanReused = false
			if got.OK != fresh.OK || got.Complete != fresh.Complete || got.Nodes != fresh.Nodes ||
				got.Pruned != fresh.Pruned || got.MemoHits != fresh.MemoHits {
				t.Fatalf("k=%d: pooled-plan outcome %+v differs from fresh %+v", k, got, fresh)
			}
		}
	}
}

// TestSessionSearcherPoolConcurrent hammers the searcher pool with concurrent
// checks of different history sizes, so `go test -race` exercises
// concurrent getSearcher/putSearcher across size classes and the
// clear-not-reallocate resize paths of the pooled plans' index slices.
func TestSessionSearcherPoolConcurrent(t *testing.T) {
	sess := NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				k := 3 + (g+rep)%4 // sizes 3..6 interleave shrink and grow
				ret := int64(k)
				wantOK := true
				if rep%2 == 1 {
					ret, wantOK = 99, false
				}
				out := Run(concurrentIncsHistory(k, ret), spec.Counter{}, false, sessOpts(sess))
				if out.OK != wantOK || !out.Complete {
					t.Errorf("g=%d rep=%d k=%d: got %+v, want OK=%v", g, rep, k, out, wantOK)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// cloneRewriting is a comparable cloning rewriting for the record tests; tag
// distinguishes rewriting *values* of the same type.
type cloneRewriting struct{ tag int }

func (cloneRewriting) Rewrite(l *core.Label) ([]*core.Label, error) {
	return []*core.Label{l.Clone()}, nil
}

// TestSessionRecordServesRewriting checks the history record's rewriting
// through the full core.CheckRA plumbing: the first check of a history under
// a cloning rewriting derives the rewriting, the second is served from the
// history's record (same Rewritten pointer, RewriteCached set), a different
// rewriting value for the same history misses, and function-typed rewritings
// — which have no safe identity — bypass the record entirely.
func TestSessionRecordServesRewriting(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(5, 5)
	opts := core.CheckOptions{Rewriting: cloneRewriting{tag: 1}, Exhaustive: true}
	first := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if first.Verdict != core.VerdictValid || first.RewriteCached {
		t.Fatalf("first check must derive the rewriting itself: %+v", first)
	}
	second := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if second.Verdict != core.VerdictValid || !second.RewriteCached {
		t.Fatalf("second check of the same history must be served from the record: %+v", second)
	}
	if first.Rewritten != second.Rewritten {
		t.Fatal("cached rewriting must be the same derived history, not a re-clone")
	}
	// A different rewriting value must not be served the first one's clone.
	otherOpts := opts
	otherOpts.Rewriting = cloneRewriting{tag: 2}
	third := core.CheckRAWith(h, spec.Counter{}, otherOpts, sess)
	if third.RewriteCached {
		t.Fatalf("a different rewriting value must miss the record: %+v", third)
	}
	// RewriteFunc closures have no comparable identity (a code pointer would
	// alias same-body closures with different captured state, e.g. two
	// composed systems), so they must never be cached — not even for the
	// exact same func value.
	fn := core.RewriteFunc(func(l *core.Label) ([]*core.Label, error) {
		return []*core.Label{l.Clone()}, nil
	})
	fnOpts := opts
	fnOpts.Rewriting = fn
	for i := 0; i < 2; i++ {
		res := core.CheckRAWith(h, spec.Counter{}, fnOpts, sess)
		if res.Verdict != core.VerdictValid || res.RewriteCached {
			t.Fatalf("func-typed rewriting must bypass the record (run %d): %+v", i, res)
		}
	}
	// Nil sessions and fresh runs never report cache hits.
	plain := core.CheckRA(h, spec.Counter{}, opts)
	if plain.RewriteCached {
		t.Fatalf("sessionless check cannot be served a recorded rewriting: %+v", plain)
	}
}

// TestDebugMemoDetectsCollision pins the debug memo invariant at the table
// level: re-claiming a key with the tuple it was stored under is a normal
// duplicate, re-claiming it with a different tuple — a hash collision — must
// panic.
func TestDebugMemoDetectsCollision(t *testing.T) {
	m := &memoTable{debug: true}
	k := key128{hi: 1, lo: 2}
	if !m.claim(k, []uint64{10, 20}) {
		t.Fatal("first claim must succeed")
	}
	if m.claim(k, []uint64{10, 20}) {
		t.Fatal("second claim of the same configuration must report duplicate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("claiming the same key for a distinct tuple must panic")
		}
	}()
	m.claim(k, []uint64{10, 21})
}

// TestDebugMemoMatchesPlainMemo runs the same refutation with and without
// debug memo mode: the stored tuples must change nothing about the search
// outcome (and a full refutation under debug mode doubles as a soak of the
// collision invariant).
func TestDebugMemoMatchesPlainMemo(t *testing.T) {
	h := distinctIncsHistory(6, 99)
	plain := Run(h, spec.Counter{}, false, core.CheckOptions{})
	debug := Run(h, spec.Counter{}, false, core.CheckOptions{DebugMemo: true})
	if plain.OK != debug.OK || plain.Complete != debug.Complete ||
		plain.Nodes != debug.Nodes || plain.MemoHits != debug.MemoHits {
		t.Fatalf("debug memo changed the search: plain %+v debug %+v", plain, debug)
	}
	if debug.MemoHits == 0 {
		t.Fatal("refutation must exercise the memo table")
	}
}

// TestDebugMemoTupleIsHashedWords pins that debug mode records exactly the
// words memoKey hashes, in order: the placed bitset, the main set's length
// and words, and each pending query's header and words (placed queries
// skipped). Re-hashing the recorded tuple must give the key.
func TestDebugMemoTupleIsHashedWords(t *testing.T) {
	s := &searcher{memoize: true, keyable: true}
	s.memo.debug = true
	s.placed = bitset{0b101}
	s.main.words = []uint64{7, 9}
	s.plan.queries = []int{1, 2, 3}
	s.q = []stateSet{{}, {words: []uint64{3}}, {words: []uint64{5}}, {words: []uint64{1, 4}}}
	key, ok := s.memoKey()
	want := []uint64{0b101, 2, 7, 9, 1<<32 | 1, 3, 3<<32 | 2, 1, 4}
	if !ok || !slices.Equal(s.keyTuple, want) {
		t.Fatalf("recorded tuple %v, want %v", s.keyTuple, want)
	}
	h := newHash128()
	for _, w := range want {
		h.mix(w)
	}
	if h.sum() != key {
		t.Fatal("the key must be the hash of the recorded tuple")
	}
}

// TestSessionThroughCheckRAWith exercises the full core → engine plumbing:
// CheckRAWith must deliver the session to the pruned engine and behave like
// CheckRA otherwise.
func TestSessionThroughCheckRAWith(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(5, 99)
	opts := core.CheckOptions{Exhaustive: true, Engine: core.EnginePruned}
	plain := core.CheckRA(h, spec.Counter{}, opts)
	with := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if with.Verdict != plain.Verdict || with.Nodes != plain.Nodes {
		t.Fatalf("CheckRAWith %+v differs from CheckRA %+v", with, plain)
	}
	if sess.InternedStates() == 0 {
		t.Fatal("the session must have been used (no state ID assigned)")
	}
}

// TestSearchOrderDeterminism pins the search-order contract: the order reads
// nothing but the history, so a batch checked through one warming session
// must explore the same nodes and reach the same witnesses, check for check,
// as the same histories checked sessionless.
func TestSearchOrderDeterminism(t *testing.T) {
	batch := []int64{6, 99, 6, 5, 99} // positives, refutations, and a re-check
	sess := NewSession()
	for k, ret := range batch {
		h := distinctIncsHistory(6, ret)
		warm := Run(h, spec.Counter{}, false, sessOpts(sess))
		fresh := Run(h, spec.Counter{}, false, sessOpts(nil))
		if !warm.Complete || !fresh.Complete {
			t.Fatalf("check %d: truncated search: warm %+v fresh %+v", k, warm, fresh)
		}
		if warm.Nodes != fresh.Nodes {
			t.Errorf("check %d: warm session explored %d nodes, sessionless %d", k, warm.Nodes, fresh.Nodes)
		}
		if !slices.Equal(warm.Witness, fresh.Witness) {
			t.Errorf("check %d: witnesses diverged: warm %v, sessionless %v", k, warm.Witness, fresh.Witness)
		}
	}
}
