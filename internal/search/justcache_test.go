package search

import (
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/spec"
)

// plainSpec hides every optional capability of the spec it wraps
// (core.Commuter, core.OwnedStepper), so the certificate replay can only use
// the suffix rule and steps through StepAppend.
type plainSpec struct{ core.Spec }

// justMonitor grows one history op by op through Session.Extend and checks
// every prefix against a from-scratch check.
type justMonitor struct {
	t    *testing.T
	sess *Session
	h    *core.History
	sp   core.Spec
}

func newJustMonitor(t *testing.T, sp core.Spec) *justMonitor {
	return &justMonitor{t: t, sess: NewSession(), h: core.NewHistory(), sp: sp}
}

// add appends l with direct edges from the labels vis to it, extends the
// check and fails unless the verdict is want and matches a from-scratch
// check, and a Valid witness passes core.IsRALinearization.
func (m *justMonitor) add(ctx string, l *core.Label, want core.Verdict, vis ...uint64) core.Result {
	m.t.Helper()
	m.h.MustAdd(l)
	for _, from := range vis {
		m.h.MustAddVis(from, l.ID)
	}
	opts := extOpts(m.sess)
	res := m.sess.Extend(m.h, m.sp, []*core.Label{l}, opts)
	fresh := scratchVerdict(m.h, m.sp, opts)
	if res.Verdict != want || fresh.Verdict != want {
		m.t.Fatalf("%s: verdict %v, from scratch %v, want %v", ctx, res.Verdict, fresh.Verdict, want)
	}
	if res.Verdict == core.VerdictValid {
		if err := core.IsRALinearization(res.Rewritten, res.Linearization, m.sp); err != nil {
			m.t.Fatalf("%s: witness %s (replayed=%v) fails IsRALinearization: %v",
				ctx, core.FormatLabels(res.Linearization), res.WitnessReplayed, err)
		}
	}
	return res
}

// wantReplay fails unless res replayed the certificate with want
// justification steps.
func wantReplay(t *testing.T, ctx string, res core.Result, want int) {
	t.Helper()
	if !res.WitnessReplayed || res.JustSteps != want {
		t.Fatalf("%s: replayed=%v with %d justification steps, want a replay with %d", ctx, res.WitnessReplayed, res.JustSteps, want)
	}
}

func originRead(id uint64, origin clock.ReplicaID, ret core.Value) *core.Label {
	l := mkRead(id, ret)
	l.Origin = origin
	return l
}

// TestJustCacheLateDeliveredUpdate covers an update delivered late: a read
// sees an update that is old in witness order but that the last read from
// its replica did not see, so the cached positions are a subset of the new
// ones but not a prefix. Counter's commutative rule folds only the late
// update; without the capability the replay folds from the initial state.
// A later read of the same replica that sees fewer updates than the cache
// must not be served from it.
func TestJustCacheLateDeliveredUpdate(t *testing.T) {
	for _, c := range []struct {
		name      string
		sp        core.Spec
		lateSteps int
	}{
		{"commutative rule", spec.Counter{}, 2},
		{"no capability", plainSpec{spec.Counter{}}, 3},
	} {
		m := newJustMonitor(t, c.sp)
		m.add(c.name+": u1", mkUpdate(1, "inc"), core.VerdictValid)
		wantReplay(t, c.name+": u2", m.add(c.name+": u2", mkUpdate(2, "inc"), core.VerdictValid), 0)
		// The witness is u1 u2; r3 sees only u2 and fills the cache.
		wantReplay(t, c.name+": r3", m.add(c.name+": r3", originRead(3, 1, int64(1)), core.VerdictValid, 2), 2)
		// r4 also sees u1, which sits before u2 in witness order.
		wantReplay(t, c.name+": r4", m.add(c.name+": r4", originRead(4, 1, int64(2)), core.VerdictValid, 1, 2, 3), c.lateSteps)
		// r5 sees only u1, which the cached state already counts twice over.
		res := m.add(c.name+": r5", originRead(5, 1, int64(2)), core.VerdictInvalid, 1)
		if res.WitnessReplayed {
			t.Fatalf("%s: r5 must refute the certificate: %+v", c.name, res)
		}
	}
}

// TestJustCacheNonCommutingPair covers a pair the commutative rule must not
// swap: an add concurrent with a removeIds that lists its pair. Replica 1's
// cached read saw only the remove; its next read also sees the add, which
// precedes the remove in witness order, and reads the pair — only the order
// remove, add justifies it, so the replay takes the slow path, rejects, and
// the search finds the witness. That witness reorders the two updates, so
// replica 2's cache, filled by a read of the add alone, must not outlive
// the old witness: a read that sees only the remove cannot hold the pair.
func TestJustCacheNonCommutingPair(t *testing.T) {
	pair := core.Pair{Elem: "a", ID: 1}
	m := newJustMonitor(t, spec.ORSet{})
	m.add("add", mkUpdate(1, "add", "a", uint64(1)), core.VerdictValid)
	wantReplay(t, "removeIds", m.add("removeIds", mkUpdate(2, "removeIds", []core.Pair{pair}), core.VerdictValid), 0)
	wantReplay(t, "r3", m.add("r3", originRead(3, 1, []string{}), core.VerdictValid, 2), 2)
	wantReplay(t, "r4", m.add("r4", originRead(4, 2, []string{"a"}), core.VerdictValid, 1), 2)
	res := m.add("r5", originRead(5, 1, []string{"a"}), core.VerdictValid, 1, 2, 3)
	if res.WitnessReplayed || !res.Extended {
		t.Fatalf("r5 must be decided by the extend search: %+v", res)
	}
	m.add("r6", originRead(6, 2, []string{"a"}), core.VerdictInvalid, 2)
}

// TestJustCacheForkedRunDies covers a nondeterministic spec: the cache keeps
// the end of the first run that justified a read, the next read's added
// update kills that run, and only the spec's other run admits the read. The
// replay must still succeed, through the walk over every run.
func TestJustCacheForkedRunDies(t *testing.T) {
	need := func(id uint64, k int64) *core.Label {
		l := mkRead(id, nil)
		l.Method, l.Args = "need", []core.Value{k}
		return l
	}
	m := newJustMonitor(t, forkSpec{})
	m.add("fork", mkUpdate(1, "fork"), core.VerdictValid)
	// fork's first successor is 1: one fold step and the query.
	wantReplay(t, "need(1)", m.add("need(1)", need(2, 1), core.VerdictValid, 1), 2)
	wantReplay(t, "step", m.add("step", mkUpdate(3, "step"), core.VerdictValid, 1), 0)
	// The cached run steps 1 to 3 and rejects need(4) (2 steps); the fold
	// from the initial state repeats that run (3 steps); the walk over
	// need(4)'s whole justification backtracks into fork's second successor
	// (5 steps).
	wantReplay(t, "need(4)", m.add("need(4)", need(4, 4), core.VerdictValid, 1, 2, 3), 10)
}
