package search

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// normalizeOutcome strips the fields that legitimately differ between a warm
// session and a fresh one (plan pooling, the representative prune error's
// identity, witness label pointers, and how many transitions a warm table
// replayed rather than stepped — their sum stays) so the rest of the outcome
// can be compared byte for byte.
func normalizeOutcome(out core.EngineOutcome) core.EngineOutcome {
	out.PlanReused = false
	out.LastErr = nil
	out.Witness = nil
	out.Stats = out.Stats.FoldSteps()
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
// state-ID budget: with a tiny MaxInternedStates the search loses memoization but
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
		t.Fatalf("tiny state-ID budget must report degradation: %+v", first)
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

// forkSpec is a nondeterministic specification over keyed int states: fork
// steps state 0 to states 1 and 2, step adds 2 to a state, and need(n) is an
// update admitted only in state n.
type forkSpec struct{}

type forkState int

func (s forkState) CloneAbs() core.AbsState { return s }
func (s forkState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(forkState)
	return ok && t == s
}
func (s forkState) String() string           { return strconv.Itoa(int(s)) }
func (s forkState) StateKey() (string, bool) { return strconv.Itoa(int(s)), true }

func (forkSpec) Name() string        { return "Spec(fork)" }
func (forkSpec) Init() core.AbsState { return forkState(0) }
func (forkSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	n := phi.(forkState)
	switch l.Method {
	case "fork":
		if n == 0 {
			return append(dst, forkState(1), forkState(2))
		}
	case "step":
		return append(dst, n+2)
	case "need":
		if int64(n) == l.Args[0].(int64) {
			return append(dst, n)
		}
	}
	return dst
}

// TestKeyingFlipKeepsHeldStates checks the flip of a state set from its
// bitset form to a list of states when keying turns off mid-set. The chain
// fork → step → need(3) reaches the sets {0}, {1, 2}, {3, 4} and {3}, five
// states in all. Every cap of MaxInternedStates must still find the witness.
// At a cap of four, step interns 3 and is refused 4, so the buffer being
// built holds 3 as a bit when keying flips: a flip that lost it would leave
// {4} and reject need(3) under condition (ii).
func TestKeyingFlipKeepsHeldStates(t *testing.T) {
	h := core.NewHistory()
	h.MustAdd(mkUpdate(1, "fork"))
	h.MustAdd(mkUpdate(2, "step"))
	h.MustAdd(mkUpdate(3, "need", int64(3)))
	h.MustAddVis(1, 2)
	h.MustAddVis(2, 3)
	for limit := range 7 {
		out := Run(h, forkSpec{}, false, sessOpts(NewSessionWithBudget(Budget{MaxInternedStates: limit})))
		if !out.OK {
			t.Fatalf("cap %d: the chain must linearize: %v", limit, out.LastErr)
		}
		if want := limit > 0 && limit < 5; out.MemDegraded != want {
			t.Fatalf("cap %d: degraded %v, want %v", limit, out.MemDegraded, want)
		}
	}
}

// gatedCounter is the counter specification whose Init holds its first
// gateWorkers callers until all of them arrived: that many checks then run at
// once, each on a searcher of its own.
type gatedCounter struct {
	spec.Counter
	gate *initGate
}

type initGate struct {
	arrived atomic.Int32
	wg      sync.WaitGroup
}

func (g gatedCounter) Init() core.AbsState {
	if g.gate.arrived.Add(1) <= gateWorkers {
		g.gate.wg.Done()
		g.gate.wg.Wait()
	}
	return g.Counter.Init()
}

// gateWorkers is the number of goroutines TestInternedBudgetAcrossSearchers runs.
const gateWorkers = 4

// TestInternedBudgetAcrossSearchers checks that MaxInternedStates caps the
// state IDs of all the session's searchers together. Four checks start at
// once, each on a fresh searcher of its own, and each needs four counter
// states: a cap of five trips, although no one searcher reaches it. Every
// verdict equals the unbudgeted one, and the session never reports more
// state IDs than the cap.
func TestInternedBudgetAcrossSearchers(t *testing.T) {
	const limit = 5
	histories := []*core.History{distinctIncsHistory(3, 3), distinctIncsHistory(3, 99), concurrentIncsHistory(3, 2)}
	want := make([]core.EngineOutcome, len(histories))
	for i, h := range histories {
		want[i] = Run(h, spec.Counter{}, false, sessOpts(nil))
	}
	sess := NewSessionWithBudget(Budget{MaxInternedStates: limit})
	sp := gatedCounter{gate: &initGate{}}
	sp.gate.wg.Add(gateWorkers)
	var degraded atomic.Bool
	var wg sync.WaitGroup
	for g := range gateWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 12 {
				i := (g + rep) % len(histories)
				got := Run(histories[i], sp, false, sessOpts(sess))
				if got.OK != want[i].OK || got.Complete != want[i].Complete {
					t.Errorf("g=%d rep=%d: budgeted verdict %+v differs from unbudgeted %+v", g, rep, got, want[i])
					return
				}
				if got.MemDegraded {
					degraded.Store(true)
				}
				if n := sess.InternedStates(); n > limit {
					t.Errorf("g=%d rep=%d: session reports %d state IDs past the cap of %d", g, rep, n, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !degraded.Load() || sess.Evictions() == 0 {
		t.Fatalf("four searchers of four states each must trip a session cap of %d (evictions=%d)", limit, sess.Evictions())
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

// cancelSpec is the counter specification cancelling its check's context on
// its first transition and then giving the context's callback goroutine a
// moment to run, so the interruption arrives mid-search.
type cancelSpec struct {
	spec.Counter
	ctx    context.Context
	cancel context.CancelFunc
}

func (c cancelSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	if c.ctx.Err() == nil {
		c.cancel()
		time.Sleep(time.Millisecond)
	}
	return c.Counter.StepAppend(dst, phi, l)
}

// TestSessionPoolUnderCancellation interleaves checks cancelled mid-search
// with normal checks on one session, concurrently, so `go test -race` sees
// the context callback racing the searcher's return to the pool. A searcher
// the callback may still reach must not be pooled, and a pooled one must
// carry nothing of its last check: every normal check — run under a live
// context cancelled only after it returns — must match a sessionless check
// of the same history in verdict, node counts and witness, with no stale
// interruption.
func TestSessionPoolUnderCancellation(t *testing.T) {
	sess := NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				k := 5 + (g+rep)%3
				ret := int64(k)
				if rep%4 < 2 {
					ret = 99
				}
				h := distinctIncsHistory(k, ret)
				ctx, cancel := context.WithCancel(context.Background())
				opts := sessOpts(sess)
				opts.Context = ctx
				if (g+rep)%2 == 0 {
					out := Run(h, cancelSpec{ctx: ctx, cancel: cancel}, false, opts)
					if !out.Complete && (out.Incomplete == nil || out.Incomplete.Reason != core.ReasonCancelled) {
						t.Errorf("g=%d rep=%d: interrupted check must report ReasonCancelled: %+v", g, rep, out)
					}
					continue
				}
				got := Run(h, spec.Counter{}, false, opts)
				cancel()
				want := Run(h, spec.Counter{}, false, core.CheckOptions{})
				if got.Incomplete != nil || !slices.Equal(got.Witness, want.Witness) ||
					!reflect.DeepEqual(normalizeOutcome(got), normalizeOutcome(want)) {
					t.Errorf("g=%d rep=%d k=%d: pooled check %+v differs from sessionless %+v", g, rep, k, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
