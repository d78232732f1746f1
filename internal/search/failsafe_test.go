package search

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// normalizeOutcome strips the fields that legitimately differ between a warm
// session and a fresh one (plan pooling, the representative prune error's
// identity, witness label pointers) so the rest of the outcome can be
// compared byte for byte.
func normalizeOutcome(out core.EngineOutcome) core.EngineOutcome {
	out.PlanReused = false
	out.LastErr = nil
	out.Witness = nil
	return out
}

// requireByteIdentical asserts that a check through the recovered session is
// indistinguishable from the same check through a brand-new session.
func requireByteIdentical(t *testing.T, got, fresh core.EngineOutcome) {
	t.Helper()
	if !reflect.DeepEqual(normalizeOutcome(got), normalizeOutcome(fresh)) {
		t.Fatalf("session not reusable: recovered-session outcome %+v differs from fresh-session outcome %+v", got, fresh)
	}
}

// TestSessionReusableAfterCancelledContext checks the fail-safe contract for
// caller cancellation: the cancelled check reports Unknown/cancelled, and the
// next check through the same session behaves exactly like a fresh session.
func TestSessionReusableAfterCancelledContext(t *testing.T) {
	sess := NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := sessOpts(sess)
	opts.Context = ctx
	dead := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, opts)
	if dead.OK || dead.Complete {
		t.Fatalf("cancelled check must not claim a verdict: %+v", dead)
	}
	if dead.Incomplete == nil || dead.Incomplete.Reason != core.ReasonCancelled {
		t.Fatalf("cancelled check must carry ReasonCancelled: %+v", dead.Incomplete)
	}

	fresh := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, sessOpts(NewSession()))
	got := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, sessOpts(sess))
	requireByteIdentical(t, got, fresh)
}

// TestSessionReusableAfterExpiredDeadline is the deadline variant: an already
// expired context yields Unknown/deadline and leaves the session intact.
func TestSessionReusableAfterExpiredDeadline(t *testing.T) {
	sess := NewSession()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	opts := sessOpts(sess)
	opts.Context = ctx
	dead := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, opts)
	if dead.OK || dead.Complete {
		t.Fatalf("expired-deadline check must not claim a verdict: %+v", dead)
	}
	if dead.Incomplete == nil || dead.Incomplete.Reason != core.ReasonDeadline {
		t.Fatalf("expired-deadline check must carry ReasonDeadline: %+v", dead.Incomplete)
	}

	fresh := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, sessOpts(NewSession()))
	got := Run(concurrentIncsHistory(6, 99), spec.Counter{}, false, sessOpts(sess))
	requireByteIdentical(t, got, fresh)
}

// TestInternerBudgetDegradesSoundly checks graceful degradation at the
// interner: with a tiny MaxInternedStates the search loses memoization but
// still decides the history, the outcome reports MemDegraded, the session
// evicts once idle, and the next check is byte-identical to a fresh session
// with the same budget.
func TestInternerBudgetDegradesSoundly(t *testing.T) {
	b := Budget{MaxInternedStates: 2}
	sess := NewSessionWithBudget(b)
	first := Run(distinctIncsHistory(6, 99), spec.Counter{}, false, sessOpts(sess))
	if first.OK || !first.Complete {
		t.Fatalf("degraded search must still refute read⇒99: %+v", first)
	}
	if !first.MemDegraded {
		t.Fatalf("tiny interner budget must report degradation: %+v", first)
	}
	if first.MemoHits != 0 {
		t.Fatalf("degraded search cannot score memo hits: %+v", first)
	}
	if got := sess.Evictions(); got != 1 {
		t.Fatalf("tripped session must evict once idle: evictions=%d", got)
	}

	fresh := Run(distinctIncsHistory(6, 99), spec.Counter{}, false, sessOpts(NewSessionWithBudget(b)))
	got := Run(distinctIncsHistory(6, 99), spec.Counter{}, false, sessOpts(sess))
	requireByteIdentical(t, got, fresh)
	if got := sess.Evictions(); got != 2 {
		t.Fatalf("second tripped check must evict again: evictions=%d", got)
	}
}

// TestMemoBudgetDegradesSoundly is the memo-arena variant: MaxMemoBytes caps
// the live memo entries; past the cap the worker drops to memo-less mode but
// the verdict is unchanged.
func TestMemoBudgetDegradesSoundly(t *testing.T) {
	b := Budget{MaxMemoBytes: 1} // rounds up to a one-entry cap
	sess := NewSessionWithBudget(b)
	first := Run(distinctIncsHistory(7, 99), spec.Counter{}, false, sessOpts(sess))
	if first.OK || !first.Complete {
		t.Fatalf("memo-capped search must still refute read⇒99: %+v", first)
	}
	if !first.MemDegraded {
		t.Fatalf("one-entry memo budget must report degradation: %+v", first)
	}
	if got := sess.Evictions(); got != 1 {
		t.Fatalf("tripped session must evict once idle: evictions=%d", got)
	}

	fresh := Run(distinctIncsHistory(7, 99), spec.Counter{}, false, sessOpts(NewSessionWithBudget(b)))
	got := Run(distinctIncsHistory(7, 99), spec.Counter{}, false, sessOpts(sess))
	requireByteIdentical(t, got, fresh)
}

// TestBudgetedSessionMatchesUnbudgetedVerdicts asserts the soundness half of
// the budget contract across polarities: a heavily budgeted session may lose
// memoization but never flips a verdict.
func TestBudgetedSessionMatchesUnbudgetedVerdicts(t *testing.T) {
	sess := NewSessionWithBudget(Budget{MaxInternedStates: 1, MaxMemoBytes: 1})
	for _, ret := range []int64{6, 99} {
		want := Run(distinctIncsHistory(6, ret), spec.Counter{}, false, sessOpts(nil))
		got := Run(distinctIncsHistory(6, ret), spec.Counter{}, false, sessOpts(sess))
		if got.OK != want.OK || got.Complete != want.Complete {
			t.Fatalf("ret=%d: budgeted verdict %+v differs from unbudgeted %+v", ret, got, want)
		}
	}
}

// panicSpec wraps the counter specification and blows up on the first query
// step, in every engine configuration.
type panicSpec struct{ inner spec.Counter }

func (p panicSpec) Name() string        { return "Spec(panic)" }
func (p panicSpec) Init() core.AbsState { return p.inner.Init() }
func (p panicSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	if l.Kind == core.KindQuery {
		panic("panicSpec: injected failure")
	}
	return p.inner.StepAppend(dst, phi, l)
}

// TestPanickingSpecIsIsolated checks panic isolation inside the engine: a
// specification that panics mid-search terminates cleanly with Unknown/panic
// and a captured stack — no crash of the caller.
func TestPanickingSpecIsIsolated(t *testing.T) {
	out := Run(concurrentIncsHistory(5, 5), panicSpec{}, false, core.CheckOptions{})
	if out.OK || out.Complete {
		t.Fatalf("panicking spec must not produce a verdict: %+v", out)
	}
	if out.Incomplete == nil || out.Incomplete.Reason != core.ReasonPanic {
		t.Fatalf("want ReasonPanic, got %+v", out.Incomplete)
	}
	if !strings.Contains(out.Incomplete.Detail, "injected failure") {
		t.Fatalf("panic message must survive into the detail: %q", out.Incomplete.Detail)
	}
	if out.Incomplete.Stack == "" {
		t.Fatal("panic stack must be captured")
	}
}

// TestPanickingSpecLeavesSessionUsable checks that a panic inside one check
// does not poison the shared session: the panicking searcher is discarded
// (not pooled) and the next check through the same session succeeds.
func TestPanickingSpecLeavesSessionUsable(t *testing.T) {
	sess := NewSession()
	opts := sessOpts(sess)
	out := Run(concurrentIncsHistory(5, 5), panicSpec{}, false, opts)
	if out.Incomplete == nil || out.Incomplete.Reason != core.ReasonPanic {
		t.Fatalf("want ReasonPanic, got %+v", out.Incomplete)
	}
	fresh := Run(concurrentIncsHistory(5, 5), spec.Counter{}, false, sessOpts(NewSession()))
	got := Run(concurrentIncsHistory(5, 5), spec.Counter{}, false, sessOpts(sess))
	if got.OK != fresh.OK || got.Complete != fresh.Complete || got.Nodes != fresh.Nodes {
		t.Fatalf("session after panic differs from fresh: got %+v want %+v", got, fresh)
	}
}
