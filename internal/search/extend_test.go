package search

import (
	"context"
	"errors"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// extOpts builds the deterministic incremental-check options used by the
// extension tests: exhaustive (the certificate's parity precondition),
// sequential, carrying the session.
func extOpts(sess *Session) core.CheckOptions {
	return core.CheckOptions{Exhaustive: true, Session: sess}
}

// scratchVerdict checks h from scratch — fresh state, same options minus the
// session — for the parity assertions.
func scratchVerdict(h *core.History, sp core.Spec, opts core.CheckOptions) core.Result {
	opts.Session = nil
	return core.CheckRA(h, sp, opts)
}

// TestExtendCertificateReplay walks one history through the monitor protocol
// — add an op, Extend with it — and pins the expected path at every step:
// first contact rebuilds, growth under the edge discipline replays the
// certificate without a search, a refuted certificate falls back to the
// search, and every verdict matches a from-scratch check of the same prefix.
func TestExtendCertificateReplay(t *testing.T) {
	sess := NewSession()
	h := core.NewHistory()
	opts := extOpts(sess)

	step := func(ctx string, l *core.Label, wantReplayed bool, wantVerdict core.Verdict) core.Result {
		t.Helper()
		res := sess.Extend(h, spec.Counter{}, []*core.Label{l}, opts)
		if res.Verdict != wantVerdict {
			t.Fatalf("%s: verdict %v, want %v (%+v)", ctx, res.Verdict, wantVerdict, res)
		}
		if res.WitnessReplayed != wantReplayed {
			t.Fatalf("%s: WitnessReplayed=%v, want %v (%+v)", ctx, res.WitnessReplayed, wantReplayed, res)
		}
		if fresh := scratchVerdict(h, spec.Counter{}, opts); fresh.Verdict != res.Verdict {
			t.Fatalf("%s: incremental verdict %v diverges from from-scratch %v", ctx, res.Verdict, fresh.Verdict)
		}
		return res
	}

	l1 := mkUpdate(1, "inc")
	h.MustAdd(l1)
	first := step("first contact", l1, false, core.VerdictValid)
	if first.Extended {
		t.Fatalf("first contact must go through the plain rebuild, not the extension: %+v", first)
	}

	l2 := mkUpdate(2, "inc")
	h.MustAdd(l2)
	rep := step("second inc", l2, true, core.VerdictValid)
	if !rep.Extended || rep.Nodes != 0 {
		t.Fatalf("certificate replay must not search: %+v", rep)
	}

	r3 := mkRead(3, int64(2))
	h.MustAdd(r3)
	h.MustAddVis(1, 3)
	h.MustAddVis(2, 3)
	step("justified read", r3, true, core.VerdictValid)

	// A read returning nonsense refutes the certificate; the fallback search
	// must deliver the Invalid verdict the from-scratch check reports.
	r4 := mkRead(4, int64(99))
	h.MustAdd(r4)
	h.MustAddVis(1, 4)
	h.MustAddVis(2, 4)
	bad := step("corrupt read", r4, false, core.VerdictInvalid)
	if !bad.Extended {
		t.Fatalf("refuted certificate must fall back to the extended search: %+v", bad)
	}
	if !errors.Is(bad.LastErr, core.ErrNotRALinearizable) {
		t.Fatalf("complete refutation must wrap ErrNotRALinearizable: %v", bad.LastErr)
	}

	// Invalid carries no certificate: the next extension re-searches and the
	// verdict stays Invalid (the corrupt read is still there).
	l5 := mkUpdate(5, "inc")
	h.MustAdd(l5)
	again := step("inc after refutation", l5, false, core.VerdictInvalid)
	if !again.Extended {
		t.Fatalf("extension after Invalid must re-search, not rebuild: %+v", again)
	}
}

// TestExtendFallbackSeededSearch forces a certificate failure whose history
// is still linearizable — a new read that must be placed after a new update
// inserted behind it — and checks the fallback search recovers the Valid
// verdict, stores the found witness in exact-size backing (satellite: a
// long-lived certificate must not pin a searcher's 512-label arena chunk),
// and that the stored witness then replays on the next growth step.
func TestExtendFallbackSeededSearch(t *testing.T) {
	sess := NewSession()
	h := core.NewHistory()
	opts := extOpts(sess)

	var ops []*core.Label
	for i := 1; i <= 4; i++ {
		l := mkUpdate(uint64(i), "inc")
		h.MustAdd(l)
		ops = append(ops, l)
	}
	if res := sess.Extend(h, spec.Counter{}, ops, opts); res.Verdict != core.VerdictValid {
		t.Fatalf("four incs must be valid: %+v", res)
	}

	// The read lands at rank 4, the update it must see at rank 5: rank-order
	// replay places the read first and fails condition (iii), but the search
	// can reorder within the new suffix.
	r5 := mkRead(5, int64(5))
	u6 := mkUpdate(6, "inc")
	h.MustAdd(r5)
	h.MustAdd(u6)
	for i := uint64(1); i <= 4; i++ {
		h.MustAddVis(i, 5)
	}
	h.MustAddVis(6, 5)
	res := sess.Extend(h, spec.Counter{}, []*core.Label{r5, u6}, opts)
	if res.Verdict != core.VerdictValid || !res.Extended || res.WitnessReplayed {
		t.Fatalf("fallback search must recover Valid without a certificate replay: %+v", res)
	}
	if res.Nodes == 0 {
		t.Fatalf("fallback must actually search: %+v", res)
	}
	if fresh := scratchVerdict(h, spec.Counter{}, opts); fresh.Verdict != res.Verdict {
		t.Fatalf("fallback verdict %v diverges from from-scratch %v", res.Verdict, fresh.Verdict)
	}

	sess.mu.Lock()
	ext := sess.exts[h]
	sess.mu.Unlock()
	if ext == nil || !ext.valid {
		t.Fatal("a Valid fallback must store a fresh certificate")
	}
	if cap(ext.witness) != len(ext.witness) {
		t.Fatalf("stored witness must use exact-size backing, got len %d cap %d", len(ext.witness), cap(ext.witness))
	}

	// The searched witness is now the certificate: the next growth replays it.
	l7 := mkUpdate(7, "inc")
	h.MustAdd(l7)
	rep := sess.Extend(h, spec.Counter{}, []*core.Label{l7}, opts)
	if rep.Verdict != core.VerdictValid || !rep.WitnessReplayed {
		t.Fatalf("searched witness must replay as the next certificate: %+v", rep)
	}
	// The replayed linearization is a capped view of the certificate: a
	// caller's append must reallocate rather than write into it.
	if n := len(rep.Linearization); n != h.Len() || cap(rep.Linearization) != n {
		t.Fatalf("replayed linearization must be capped at its length %d, got len %d cap %d", h.Len(), n, cap(rep.Linearization))
	}
	if grown := append(rep.Linearization, mkUpdate(99, "inc")); &grown[0] == &rep.Linearization[0] {
		t.Fatal("appending to the replayed linearization must not reuse the certificate's backing")
	}
	l8 := mkUpdate(8, "inc")
	h.MustAdd(l8)
	rep = sess.Extend(h, spec.Counter{}, []*core.Label{l8}, opts)
	if rep.Verdict != core.VerdictValid || !rep.WitnessReplayed || rep.Linearization[len(rep.Linearization)-1] != l8 {
		t.Fatalf("the certificate must grow by the new op only: %+v", rep)
	}
}

// TestExtendEdgeDisciplineViolationRebuilds grows a refuted history with an
// edge into an old query — the one growth the extension path must not absorb,
// because the old query's justification set changes. The call must degrade to
// the plain rebuild and flip the verdict to the (now correct) Valid.
func TestExtendEdgeDisciplineViolationRebuilds(t *testing.T) {
	sess := NewSession()
	h := core.NewHistory()
	opts := extOpts(sess)

	for i := 1; i <= 2; i++ {
		l := mkUpdate(uint64(i), "inc")
		h.MustAdd(l)
		sess.Extend(h, spec.Counter{}, []*core.Label{l}, opts)
	}
	r3 := mkRead(3, int64(3)) // sees 2 incs, claims 3: Invalid for now
	h.MustAdd(r3)
	h.MustAddVis(1, 3)
	h.MustAddVis(2, 3)
	if res := sess.Extend(h, spec.Counter{}, []*core.Label{r3}, opts); res.Verdict != core.VerdictInvalid {
		t.Fatalf("read⇒3 over 2 incs must be Invalid: %+v", res)
	}

	// The third inc becomes visible to the old read: Invalid does not persist
	// under extension, and this particular growth is not even an extension —
	// the new edge targets an old rank.
	l4 := mkUpdate(4, "inc")
	h.MustAdd(l4)
	h.MustAddVis(4, 3)
	res := sess.Extend(h, spec.Counter{}, []*core.Label{l4}, opts)
	if res.Verdict != core.VerdictValid {
		t.Fatalf("read⇒3 over 3 visible incs must be Valid: %+v", res)
	}
	if res.Extended {
		t.Fatalf("an edge into an old query must force the plain rebuild: %+v", res)
	}
	if fresh := scratchVerdict(h, spec.Counter{}, opts); fresh.Verdict != res.Verdict {
		t.Fatalf("rebuild verdict %v diverges from from-scratch %v", res.Verdict, fresh.Verdict)
	}
}

// TestExtendEvictionDropsState trips the session memory budget mid-extension
// stream and checks the eviction story: the extension entries are dropped
// with the other caches (their plans and witnesses belong to the evicted
// generation), and the stream continues correctly through rebuilds.
func TestExtendEvictionDropsState(t *testing.T) {
	sess := NewSessionWithBudget(Budget{MaxInternedStates: 1})
	h := concurrentIncsHistory(3, 3)
	opts := extOpts(sess)
	if res := sess.Extend(h, spec.Counter{}, h.Labels(), opts); res.Verdict != core.VerdictValid {
		t.Fatalf("budget pressure must not change the verdict: %+v", res)
	}
	sess.mu.Lock()
	exts := sess.exts
	sess.mu.Unlock()
	if exts != nil {
		t.Fatalf("tripped budget must evict the extension state with the other caches, still tracking %d", len(exts))
	}
	// The next growth finds no entry and rebuilds — same verdict as scratch.
	l5 := mkUpdate(5, "inc")
	h.MustAdd(l5)
	res := sess.Extend(h, spec.Counter{}, []*core.Label{l5}, opts)
	if res.Verdict != core.VerdictValid || res.Extended {
		t.Fatalf("post-eviction growth must rebuild cleanly: %+v", res)
	}
	if fresh := scratchVerdict(h, spec.Counter{}, opts); fresh.Verdict != res.Verdict {
		t.Fatalf("post-eviction verdict %v diverges from from-scratch %v", res.Verdict, fresh.Verdict)
	}
}

// TestExtendDeadContextLeavesStateCoherent checks the fail-safe path: a
// cancelled context yields Unknown without advancing the entry's snapshot, so
// the next call (whose newOps no longer line up with the stale snapshot)
// degrades to the rebuild and still reports the right verdict.
func TestExtendDeadContextLeavesStateCoherent(t *testing.T) {
	sess := NewSession()
	h := core.NewHistory()
	opts := extOpts(sess)

	l1 := mkUpdate(1, "inc")
	h.MustAdd(l1)
	sess.Extend(h, spec.Counter{}, []*core.Label{l1}, opts)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := opts
	dead.Context = ctx
	l2 := mkUpdate(2, "inc")
	h.MustAdd(l2)
	if res := sess.Extend(h, spec.Counter{}, []*core.Label{l2}, dead); res.Verdict != core.VerdictUnknown {
		t.Fatalf("cancelled context must yield Unknown: %+v", res)
	}

	// l2 was never absorbed; extending with only l3 must not silently skip it.
	l3 := mkUpdate(3, "inc")
	h.MustAdd(l3)
	res := sess.Extend(h, spec.Counter{}, []*core.Label{l3}, opts)
	if res.Verdict != core.VerdictValid || res.Extended {
		t.Fatalf("stale snapshot after a cancelled step must rebuild: %+v", res)
	}
	if fresh := scratchVerdict(h, spec.Counter{}, opts); fresh.Verdict != res.Verdict {
		t.Fatalf("verdict %v diverges from from-scratch %v", res.Verdict, fresh.Verdict)
	}
}

// TestExtendNonExhaustiveDegrades pins the verdict-parity guard: without the
// exhaustive phase the certificate could prove Valid where a from-scratch
// check reports Unknown, so Extend must hand such calls to the plain checker
// unchanged.
func TestExtendNonExhaustiveDegrades(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(3, 3)
	opts := extOpts(sess)
	opts.Exhaustive = false
	res := sess.Extend(h, spec.Counter{}, h.Labels(), opts)
	plain := scratchVerdict(h, spec.Counter{}, opts)
	if res.Extended || res.WitnessReplayed {
		t.Fatalf("non-exhaustive calls must not use the extension path: %+v", res)
	}
	if res.Verdict != plain.Verdict {
		t.Fatalf("degraded verdict %v diverges from plain %v", res.Verdict, plain.Verdict)
	}
}

// TestExtendDropUnpinsSeen is the satellite regression for the re-check seen
// set: when a history's extension entry is superseded, its rewritten clone —
// which can never be checked again — must be dropped from the seen set
// instead of pinning a dead history for the rest of the session.
func TestExtendDropUnpinsSeen(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(4, 4)
	opts := extOpts(sess)
	opts.Rewriting = cloneRewriting{tag: 1}
	if res := sess.Extend(h, spec.Counter{}, h.Labels(), opts); res.Verdict != core.VerdictValid {
		t.Fatalf("setup check failed: %+v", res)
	}
	sess.mu.Lock()
	ext := sess.exts[h]
	sess.mu.Unlock()
	if ext == nil || ext.rew == nil || ext.rew.Aliased() {
		t.Fatal("a cloning rewriting must store a non-aliased extension entry")
	}
	clone := ext.rew.History
	sess.mu.Lock()
	_, pinned := sess.seen[clone]
	sess.mu.Unlock()
	if !pinned {
		t.Fatal("the rewritten clone must be in the seen set after its check")
	}

	// A different rewriting identity supersedes the entry; the old clone must
	// be unpinned by the rebuild.
	opts.Rewriting = cloneRewriting{tag: 2}
	if res := sess.Extend(h, spec.Counter{}, h.Labels(), opts); res.Verdict != core.VerdictValid {
		t.Fatalf("rebuild under the new rewriting failed: %+v", res)
	}
	sess.mu.Lock()
	_, pinned = sess.seen[clone]
	sess.mu.Unlock()
	if pinned {
		t.Fatal("superseding an extension entry must unpin its rewritten clone from the seen set")
	}
}

// TestStepCachePutDupAndCap is the satellite regression for stepCache.put:
// the first writer wins (a duplicate put must not replace the stored entry),
// a full cache refuses new entries without copying them first, and stored
// entries are copies — later mutation of the caller's scratch must not leak
// into the cache.
func TestStepCachePutDupAndCap(t *testing.T) {
	c := &stepCache{}
	l := mkUpdate(1, "inc")

	ids := []uint32{7}
	c.put(5, l, nil, ids)
	ids[0] = 99 // callers recycle their scratch; the cache must hold a copy
	c.put(5, l, nil, []uint32{42})
	e, ok := c.get(5, l)
	if !ok || len(e.ids) != 1 || e.ids[0] != 7 {
		t.Fatalf("first writer must win and must be copied: %+v ok=%v", e, ok)
	}

	// Fill to the cap and check a put of a fresh key is refused.
	c.mu.Lock()
	for i := len(c.entries); i < stepCacheCap; i++ {
		c.entries[stepKey{state: uint32(i + 1000)}] = stepEntry{}
	}
	c.mu.Unlock()
	fresh := mkUpdate(2, "inc")
	c.put(6, fresh, nil, []uint32{1})
	if _, ok := c.get(6, fresh); ok {
		t.Fatal("a full cache must refuse new entries")
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n != stepCacheCap {
		t.Fatalf("cache grew past the cap: %d", n)
	}
}

// incRejectedAt is a counter specification whose inc is not admitted in
// state n; two instances differ only in which state rejects inc.
type incRejectedAt int64

func (s incRejectedAt) Name() string {
	return "Spec(inc rejected at " + spec.CounterState(s).String() + ")"
}
func (incRejectedAt) Init() core.AbsState { return spec.CounterState(0) }
func (s incRejectedAt) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	if c, ok := phi.(spec.CounterState); ok && l.Method == "inc" && int64(c) == int64(s) {
		return dst
	}
	return spec.Counter{}.StepAppend(dst, phi, l)
}

// TestExtendRebuildsOnSpecChange is the regression for certificate reuse
// across specifications: a history checked Valid under one spec and then
// extended under another must not replay the first spec's certificate — the
// verdict must be the from-scratch verdict under the second spec.
func TestExtendRebuildsOnSpecChange(t *testing.T) {
	sess := NewSession()
	h := core.NewHistory()
	opts := extOpts(sess)
	specA, specB := incRejectedAt(5), incRejectedAt(1)
	for id := uint64(1); id <= 2; id++ {
		l := mkUpdate(id, "inc")
		h.MustAdd(l)
		if res := sess.Extend(h, specA, []*core.Label{l}, opts); res.Verdict != core.VerdictValid {
			t.Fatalf("inc %d under %s: %+v", id, specA.Name(), res)
		}
	}
	l3 := mkUpdate(3, "inc")
	h.MustAdd(l3)
	res := sess.Extend(h, specB, []*core.Label{l3}, opts)
	want := scratchVerdict(h, specB, opts)
	if want.Verdict != core.VerdictInvalid {
		t.Fatalf("from-scratch under %s: %v, want Invalid", specB.Name(), want.Verdict)
	}
	if res.Verdict != want.Verdict || res.WitnessReplayed {
		t.Fatalf("Extend under %s: verdict %v (replayed=%v), from scratch %v", specB.Name(), res.Verdict, res.WitnessReplayed, want.Verdict)
	}
}
