package search

import (
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

// TestSessionInternerIsShared checks the point of the session: state IDs
// interned by one check are reused by the next, so re-checking the same
// history grows the interner not at all.
func TestSessionInternerIsShared(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(6, 99)
	Run(h, spec.Counter{}, false, sessOpts(sess))
	after1 := sess.InternedStates()
	if after1 == 0 {
		t.Fatal("counter states must intern")
	}
	Run(h, spec.Counter{}, false, sessOpts(sess))
	if after2 := sess.InternedStates(); after2 != after1 {
		t.Fatalf("re-checking the same history must not grow the interner: %d -> %d", after1, after2)
	}
}

// TestSessionConcurrentChecks runs many checks of different polarities
// concurrently over one session; under `go test -race` this is the data-race
// check for the session pools and the shared interner.
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

// TestSessionPlanPoolReuse checks the plan pool end to end: the first check
// of a session builds its plan fresh, later checks draw recycled plans
// (surfaced as PlanReused), and a recycled plan rebuilt for a history of a
// different size produces exactly the outcome of a fresh plan.
func TestSessionPlanPoolReuse(t *testing.T) {
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

// TestSessionPlanPoolConcurrent hammers the plan pool with concurrent checks
// of different history sizes, so `go test -race` exercises concurrent
// getPlan/putPlan and the clear-not-reallocate resize paths of the pooled
// index slices.
func TestSessionPlanPoolConcurrent(t *testing.T) {
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

// cloneRewriting is a comparable cloning rewriting for the cache tests; tag
// distinguishes rewriting *values* of the same type.
type cloneRewriting struct{ tag int }

func (cloneRewriting) Rewrite(l *core.Label) ([]*core.Label, error) {
	return []*core.Label{l.Clone()}, nil
}

// TestSessionRewriteCache checks the rewrite cache through the full
// core.CheckRA plumbing: the first check of a history under a cloning
// rewriting derives the rewriting, the second is served from the session
// cache (same Rewritten pointer, RewriteCached set), a different rewriting
// value for the same history misses, and function-typed rewritings — which
// have no safe identity — bypass the cache entirely.
func TestSessionRewriteCache(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(5, 5)
	opts := core.CheckOptions{Rewriting: cloneRewriting{tag: 1}, Exhaustive: true}
	first := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if first.Verdict != core.VerdictValid || first.RewriteCached {
		t.Fatalf("first check must derive the rewriting itself: %+v", first)
	}
	second := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if second.Verdict != core.VerdictValid || !second.RewriteCached {
		t.Fatalf("second check of the same history must hit the rewrite cache: %+v", second)
	}
	if first.Rewritten != second.Rewritten {
		t.Fatal("cached rewriting must be the same derived history, not a re-clone")
	}
	if hits, misses := sess.RewriteCache().Stats(); hits != 1 || misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %d / %d", hits, misses)
	}
	// A different rewriting value must not be served the first one's clone.
	otherOpts := opts
	otherOpts.Rewriting = cloneRewriting{tag: 2}
	third := core.CheckRAWith(h, spec.Counter{}, otherOpts, sess)
	if third.RewriteCached {
		t.Fatalf("a different rewriting value must miss the cache: %+v", third)
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
			t.Fatalf("func-typed rewriting must bypass the cache (run %d): %+v", i, res)
		}
	}
	// Nil sessions and fresh runs never report cache hits.
	plain := core.CheckRA(h, spec.Counter{}, opts)
	if plain.RewriteCached {
		t.Fatalf("sessionless check cannot hit a rewrite cache: %+v", plain)
	}
}

// tokenedRewriting is a func-backed (non-comparable) rewriting opting into
// the cache via core.RewritingTokener; token carries the semantic identity.
type tokenedRewriting struct {
	fn    core.RewriteFunc
	token string
}

func (r tokenedRewriting) Rewrite(l *core.Label) ([]*core.Label, error) { return r.fn(l) }
func (r tokenedRewriting) RewritingToken() any                          { return r.token }

// TestSessionRewriteCacheTokenedClosure is the cache-hit counterpart of the
// closure-bypass assertions above: a RewriteFunc-style rewriting that
// implements RewritingToken is cached across checks — even across distinct
// closure values — as long as the tokens agree, and distinct tokens still
// miss.
func TestSessionRewriteCacheTokenedClosure(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(5, 5)
	mk := func(token string) core.Rewriting {
		// A fresh closure per call: only the token can make these hit.
		return tokenedRewriting{fn: func(l *core.Label) ([]*core.Label, error) {
			return []*core.Label{l.Clone()}, nil
		}, token: token}
	}
	opts := core.CheckOptions{Rewriting: mk("γ"), Exhaustive: true}
	first := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if first.Verdict != core.VerdictValid || first.RewriteCached {
		t.Fatalf("first tokened check must derive the rewriting: %+v", first)
	}
	opts.Rewriting = mk("γ")
	second := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if second.Verdict != core.VerdictValid || !second.RewriteCached {
		t.Fatalf("equal-token closure must hit the rewrite cache: %+v", second)
	}
	if first.Rewritten != second.Rewritten {
		t.Fatal("tokened cache hit must serve the stored rewriting")
	}
	opts.Rewriting = mk("δ")
	third := core.CheckRAWith(h, spec.Counter{}, opts, sess)
	if third.RewriteCached {
		t.Fatalf("a different token must miss the cache: %+v", third)
	}
}

// TestDebugMemoDetectsCollision pins the debug memo invariant at the table
// level: re-claiming a key with the tuple it was stored under is a normal
// duplicate, re-claiming it with a different tuple — a hash collision — must
// panic.
func TestDebugMemoDetectsCollision(t *testing.T) {
	m := newMemoTable()
	m.debug = true
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
		t.Fatal("the session must have been used (interner still empty)")
	}
}
