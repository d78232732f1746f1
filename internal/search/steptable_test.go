package search

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// opaque is a return-value type mixValue does not know: every opaque value
// hashes to the same shared tag.
type opaque struct{ n int64 }

// opaqueReads is a counter whose read admits exactly the opaque value of the
// current count.
type opaqueReads struct{}

func (opaqueReads) Name() string        { return "Spec(opaque reads)" }
func (opaqueReads) Init() core.AbsState { return spec.CounterState(0) }
func (opaqueReads) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	c, ok := phi.(spec.CounterState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "inc":
		return append(dst, c+1)
	case "read":
		if l.Ret == (opaque{int64(c)}) {
			return append(dst, c)
		}
	}
	return dst
}

// opaqueHistory is k concurrent incs seen by one read returning opaque{ret}.
func opaqueHistory(k int, ret int64) *core.History {
	h := core.NewHistory()
	for i := 1; i <= k; i++ {
		h.MustAdd(mkUpdate(uint64(i), "inc"))
	}
	r := h.MustAdd(mkRead(uint64(k+1), opaque{ret}))
	for i := 1; i <= k; i++ {
		h.MustAddVis(uint64(i), r.ID)
	}
	return h
}

// checkAgainstSessionless runs each history through the session from
// workers goroutines at once and requires every outcome to match a
// sessionless check of the same history: verdict, node counts and
// transitions.
func checkAgainstSessionless(t *testing.T, sess *Session, sp core.Spec, hs []*core.History, workers int) {
	t.Helper()
	want := make([]core.EngineOutcome, len(hs))
	for i, h := range hs {
		want[i] = Run(h, sp, false, core.CheckOptions{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hs); i += workers {
				got := Run(hs[i], sp, false, sessOpts(sess))
				if g, x := normalizeOutcome(got), normalizeOutcome(want[i]); !reflect.DeepEqual(g, x) {
					t.Errorf("%s history %d: session outcome %+v, sessionless %+v", sp.Name(), i, g, x)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStepTableContentExact pins that content IDs never alias: two reads
// whose returns are distinct opaque values hash equal (mixValue's shared
// tag) yet get distinct content IDs, so a warm table never replays one
// read's transition for the other and every verdict matches a sessionless
// check — on one worker, and on four sharing the session's pooled searchers.
func TestStepTableContentExact(t *testing.T) {
	a, b := mkRead(1, opaque{1}), mkRead(2, opaque{2})
	if contentFNV(a) != contentFNV(b) {
		t.Fatal("premise: opaque returns must hash equal")
	}
	var tab stepTable
	tab.attach(opaqueReads{})
	if ids := tab.contentIDs(nil, []*core.Label{a, b, mkRead(3, opaque{1})}); ids[0] == ids[1] || ids[0] != ids[2] {
		t.Fatalf("content IDs %v: equal contents must share an ID and distinct ones must not", ids)
	}
	// Past scanMax contents the table finds them through its hash index,
	// where every one of these shares a probe sequence; after a restart the
	// kept index serves a fresh numbering.
	for round := 0; round < 2; round++ {
		tab.restart()
		var labels []*core.Label
		for k := 0; k < 2*(scanMax+2); k++ {
			labels = append(labels, mkRead(uint64(k+1), opaque{int64(k % (scanMax + 2))}))
		}
		ids := tab.contentIDs(nil, labels)
		for k, id := range ids {
			if id != uint32(k%(scanMax+2)) {
				t.Fatalf("round %d: content IDs %v, want each opaque value numbered in arrival order", round, ids)
			}
		}
	}

	sess := NewSession()
	valid, invalid := opaqueHistory(2, 2), opaqueHistory(2, 3)
	for _, h := range []*core.History{valid, invalid} {
		got := Run(h, opaqueReads{}, false, sessOpts(sess))
		want := Run(h, opaqueReads{}, false, core.CheckOptions{})
		if got.OK != want.OK || !got.Complete {
			t.Fatalf("session verdict ok=%v complete=%v, sessionless ok=%v", got.OK, got.Complete, want.OK)
		}
	}
	var hs []*core.History
	for k := 1; k <= 4; k++ {
		for ret := int64(k - 1); ret <= int64(k+1); ret++ {
			hs = append(hs, opaqueHistory(k, ret))
		}
	}
	checkAgainstSessionless(t, sess, opaqueReads{}, hs, 1)
	checkAgainstSessionless(t, sess, opaqueReads{}, hs, 4)
}

// TestStepTableSpecScoped pins that a table serves only the spec it was
// filled under. Counter and incRejectedAt(1) share state keys and the inc
// content, but inc from state 1 differs; one session checks the same
// histories under one spec and then the other, so the second spec reaches
// searchers whose tables the first filled, and must replay nothing of them:
// its replays equal a sessionless check's, on one worker, and its outcomes
// match sessionless checks on four.
func TestStepTableSpecScoped(t *testing.T) {
	sess := NewSession()
	h := concurrentIncsHistory(2, 2)
	if out := Run(h, spec.Counter{}, false, sessOpts(sess)); !out.OK {
		t.Fatal("two incs read as 2 must be Counter-valid")
	}
	got := Run(h, incRejectedAt(1), false, sessOpts(sess))
	want := Run(h, incRejectedAt(1), false, core.CheckOptions{})
	if got.OK || got.OK != want.OK {
		t.Fatalf("incRejectedAt(1) must refute the history: session ok=%v, sessionless ok=%v", got.OK, want.OK)
	}
	if got.Stats.StepHits != want.Stats.StepHits || got.Stats.Steps != want.Stats.Steps {
		t.Fatalf("the second spec replayed the first spec's transitions: session %+v, sessionless %+v", got.Stats, want.Stats)
	}

	var hs []*core.History
	for k := 1; k <= 4; k++ {
		hs = append(hs, concurrentIncsHistory(k, int64(k)), concurrentIncsHistory(k, int64(k+1)))
	}
	for round := 0; round < 2; round++ {
		checkAgainstSessionless(t, sess, spec.Counter{}, hs, 4)
		checkAgainstSessionless(t, sess, incRejectedAt(1), hs, 4)
	}
}

// listCounter is a Counter whose slice field makes the spec value
// non-comparable.
type listCounter struct {
	spec.Counter
	tags []string
}

// TestStepTableNonComparableSpec pins that a spec the table cannot be keyed
// by still gets content IDs and twin classes, but no transitions: every
// transition steps live, on a warm session too, and outcomes match
// sessionless checks. Its searches visit exactly the nodes Counter's do on
// the same histories — the concurrent incs are twins under both — and step
// the same transitions, only none from the table.
func TestStepTableNonComparableSpec(t *testing.T) {
	sess := NewSession()
	sp := listCounter{tags: []string{"x"}}
	var hs []*core.History
	for k := 1; k <= 4; k++ {
		hs = append(hs, distinctIncsHistory(k, int64(k)), concurrentIncsHistory(k, int64(k+1)))
	}
	for i, h := range hs {
		ref := Run(h, spec.Counter{}, false, sessOpts(sess))
		out := Run(h, sp, false, sessOpts(sess))
		if out.Stats.StepHits != 0 || out.Stats.Steps == 0 {
			t.Fatalf("a non-comparable spec must step every transition live: %+v", out.Stats)
		}
		if got, want := out.Stats.FoldSteps(), ref.Stats.FoldSteps(); out.OK != ref.OK || got != want {
			t.Fatalf("history %d: listCounter ok=%v %+v, Counter ok=%v %+v", i, out.OK, got, ref.OK, want)
		}
	}
	w, _ := sess.getSearcher(1)
	if w.table.on || w.table.spec != nil {
		t.Fatal("a pooled searcher must carry no transitions for a non-comparable spec")
	}
	sess.putSearcher(w)
	checkAgainstSessionless(t, sess, sp, hs, 4)
}

// TestStateIDDenseAndStable pins the table's state numbering: IDs are dense
// in first-sight order, stable, and equal exactly when the keys are; a
// restart of the contents keeps them; and under a session budget a new key
// past MaxInternedStates is refused while known keys still resolve.
func TestStateIDDenseAndStable(t *testing.T) {
	var tab stepTable
	want := map[string]uint32{"a": 0, "b": 1, "c": 2, "d": 3, "": 4}
	for _, k := range []string{"a", "b", "c", "a", "b", "d", ""} {
		if id, ok := tab.stateID(k, nil); !ok || id != want[k] {
			t.Fatalf("key %q: got ID %d (ok=%v), want %d", k, id, ok, want[k])
		}
	}
	if len(tab.stateIDs) != len(want) {
		t.Fatalf("expected %d distinct keys, got %d", len(want), len(tab.stateIDs))
	}
	tab.attach(spec.Counter{})
	tab.restart()
	for k, w := range want {
		if id, _ := tab.stateID(k, nil); id != w {
			t.Fatalf("key %q renumbered across a restart: %d, want %d", k, id, w)
		}
	}

	sess := NewSessionWithBudget(Budget{MaxInternedStates: 2})
	var capped stepTable
	for _, k := range []string{"a", "b"} {
		if _, ok := capped.stateID(k, sess); !ok {
			t.Fatalf("key %q refused below the cap", k)
		}
	}
	if _, ok := capped.stateID("c", sess); ok {
		t.Fatal("a new key past MaxInternedStates must be refused")
	}
	if id, ok := capped.stateID("a", sess); !ok || id != 0 {
		t.Fatalf("a known key must resolve at the cap: %d, %v", id, ok)
	}
	if n := sess.InternedStates(); n != 2 {
		t.Fatalf("session counts %d state IDs, want 2", n)
	}
}

// TestStepTableCap pins the table's bounds and store semantics: the first
// store of a key wins, a store copies its successors (callers pass scratch),
// the table stops growing at stepCacheCap transitions, and a table holding
// contentCap contents restarts at the next check's ID pass — every label of
// that check gets an ID, numbered afresh, and no transition stored under the
// old numbering replays.
func TestStepTableCap(t *testing.T) {
	var tab stepTable
	tab.attach(spec.Counter{})
	states := []core.AbsState{spec.CounterState(1), spec.CounterState(2)}
	ids := []uint32{7, 8}
	tab.put(5, 3, states, ids, 1)
	ids[0], states[0] = 99, spec.CounterState(99)
	tab.put(5, 3, states[:1], []uint32{42}, 1)
	sl := tab.get(5, 3)
	if sl == nil || sl.n != 2 || tab.ids[sl.id] != 7 || tab.states[sl.id] != spec.CounterState(1) {
		t.Fatalf("the first store must win and must be copied: %+v", sl)
	}
	tab.put(6, 3, nil, nil, 1)
	if sl := tab.get(6, 3); sl == nil || sl.n != 0 {
		t.Fatal("a transition without successors must be stored")
	}

	for s := uint32(1000); tab.used < stepCacheCap; s++ {
		tab.put(s, 0, states[:1], ids[:1], 1)
	}
	tab.put(7, 3, states[:1], ids[:1], 1)
	if tab.get(7, 3) != nil || tab.used != stepCacheCap {
		t.Fatalf("a full table must refuse new transitions (%d stored)", tab.used)
	}
	if tab.get(5, 3) == nil {
		t.Fatal("a full table must keep serving its transitions")
	}

	var full stepTable
	full.attach(spec.Counter{})
	labels := make([]*core.Label, contentCap+1)
	for i := range labels {
		labels[i] = mkUpdate(uint64(i+1), fmt.Sprintf("m%d", i))
	}
	cids := full.contentIDs(nil, labels)
	if cids[0] != 0 || cids[contentCap] != contentCap {
		t.Fatalf("one check's labels must all get IDs, past the cap too: %d, %d", cids[0], cids[contentCap])
	}
	full.put(1, cids[0], states[:1], ids[:1], 1)
	next := []*core.Label{mkUpdate(1, "fresh"), labels[0]}
	cids = full.contentIDs(cids, next)
	if cids[0] != 0 || cids[1] != 1 || len(full.reps) != 2 {
		t.Fatalf("a table at the cap must restart its numbering: IDs %v, %d contents", cids, len(full.reps))
	}
	if full.get(1, cids[0]) != nil || full.used != 0 {
		t.Fatal("a restarted table must replay no transition of the old numbering")
	}
}

// TestContentIDsKeptOnlyForUnchangedPlan pins when a check keeps the content
// IDs of the searcher's previous ID pass: only for the same history in the
// same size and direct edge count, under the same table generation. Every
// check below starts from poisoned IDs (all zero): a kept pass leaves them,
// a re-run numbers the contents afresh. A re-check after the history grew
// by a label, by an edge, or past contentCap contents must re-run the pass.
func TestContentIDsKeptOnlyForUnchangedPlan(t *testing.T) {
	s := &searcher{}
	check := func(h *core.History) []uint32 {
		t.Helper()
		if err := s.plan.build(h, false); err != nil {
			t.Fatal(err)
		}
		clear(s.plan.cids)
		s.start(h, nil, spec.Counter{}, false, core.CheckOptions{})
		return s.plan.cids
	}
	numbered := func(ids []uint32) bool {
		for i, id := range ids {
			if id != uint32(i) {
				return false
			}
		}
		return true
	}
	// An inc and reads of distinct returns: every label its own content,
	// numbered in rank order by a first pass.
	h := core.NewHistory()
	h.MustAdd(mkUpdate(1, "inc"))
	for i := uint64(2); i <= 5; i++ {
		h.MustAdd(mkRead(i, int64(i)))
	}
	if ids := check(h); !numbered(ids) {
		t.Fatalf("first check: content IDs %v, want 0..%d", ids, h.Len()-1)
	}
	if ids := check(h); !slices.Equal(ids, make([]uint32, h.Len())) {
		t.Fatalf("re-check of the unchanged history re-ran the ID pass: %v", ids)
	}
	h.MustAdd(mkRead(6, int64(6)))
	if ids := check(h); !numbered(ids) {
		t.Fatalf("re-check after a new label kept stale IDs: %v", ids)
	}
	h.MustAddVis(1, 6)
	if ids := check(h); !numbered(ids) {
		t.Fatalf("re-check after a new edge kept stale IDs: %v", ids)
	}

	// A history of contentCap distinct contents fills the table; grown by
	// one label, its re-check restarts the table and numbers it afresh.
	s = &searcher{}
	big := core.NewHistory()
	for i := uint64(1); i <= contentCap; i++ {
		big.MustAdd(mkRead(i, int64(i)))
	}
	if ids := check(big); !numbered(ids) || len(s.table.reps) != contentCap {
		t.Fatalf("a table of %d contents after the first check, want %d", len(s.table.reps), contentCap)
	}
	if ids := check(big); !slices.Equal(ids, make([]uint32, big.Len())) {
		t.Fatal("re-check of the unchanged full history re-ran the ID pass")
	}
	gen := s.table.gen
	big.MustAdd(mkRead(contentCap+1, int64(contentCap+1)))
	if ids := check(big); !numbered(ids) || s.table.gen == gen || len(s.table.reps) != big.Len() {
		t.Fatalf("re-check past contentCap: generation %d -> %d, %d contents for %d labels", gen, s.table.gen, len(s.table.reps), big.Len())
	}
	if ids := check(big); !slices.Equal(ids, make([]uint32, big.Len())) {
		t.Fatal("re-check after the restart re-ran the ID pass: its key must carry the new generation")
	}
}
