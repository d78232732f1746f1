package core

import (
	"slices"
	"testing"
)

// setFold is the breadth-first reference fold that Fold replaced: it steps
// the set of every state reachable after each prefix of seq, deduplicated by
// EqualAbs, and returns the final set and -1, or nil and the index of the
// first label no reachable state admits. Fold must return the same index,
// and on admission a state of the set.
func setFold(s Spec, seq []*Label) ([]AbsState, int) {
	states := []AbsState{s.Init()}
	for i, l := range seq {
		var next []AbsState
		for _, phi := range states {
			for _, succ := range s.StepAppend(nil, phi, l) {
				if !slices.ContainsFunc(next, succ.EqualAbs) {
					next = append(next, succ)
				}
			}
		}
		if len(next) == 0 {
			return nil, i
		}
		states = next
	}
	return states, -1
}

func TestAdmitsCounter(t *testing.T) {
	spec := counterSpec{}
	seq := []*Label{
		{ID: 1, Method: "inc", Kind: KindUpdate},
		{ID: 2, Method: "inc", Kind: KindUpdate},
		{ID: 3, Method: "dec", Kind: KindUpdate},
		{ID: 4, Method: "read", Ret: int64(1), Kind: KindQuery},
	}
	if !Admits(spec, seq) {
		t.Fatal("sequence must be admitted")
	}
	bad := append(append([]*Label(nil), seq[:3]...), &Label{ID: 5, Method: "read", Ret: int64(7), Kind: KindQuery})
	if Admits(spec, bad) {
		t.Fatal("wrong read value must be rejected")
	}
	if _, idx := Fold(spec, bad); idx != 3 {
		t.Fatalf("Fold rejected at %d, want 3", idx)
	}
	if phi, idx := Fold(spec, seq); idx != -1 || !phi.EqualAbs(counterState(1)) {
		t.Fatalf("Fold on admitted sequence = (%v, %d), want (1, -1)", phi, idx)
	}
}

func TestAdmitsEmptySequence(t *testing.T) {
	if !Admits(counterSpec{}, nil) {
		t.Fatal("empty sequence must be admitted")
	}
	if phi, _ := Fold(counterSpec{}, nil); !phi.EqualAbs(counterState(0)) {
		t.Fatal("empty sequence must yield the initial state")
	}
}

func TestAdmitsUnknownMethod(t *testing.T) {
	if Admits(counterSpec{}, []*Label{{ID: 1, Method: "frobnicate"}}) {
		t.Fatal("unknown method must be rejected")
	}
}

func TestNondeterministicSpecFollowsAllBranches(t *testing.T) {
	spec := choiceSpec{}
	// After flip, the state is 1 or 2; a read of either value must be
	// admitted, a read of 3 must not.
	base := []*Label{{ID: 1, Method: "flip", Kind: KindUpdate}}
	for _, v := range []int64{1, 2} {
		seq := append(append([]*Label(nil), base...), &Label{ID: 2, Method: "read", Ret: v, Kind: KindQuery})
		if !Admits(spec, seq) {
			t.Fatalf("read %d must be admitted", v)
		}
	}
	seq := append(append([]*Label(nil), base...), &Label{ID: 2, Method: "read", Ret: int64(3), Kind: KindQuery})
	if Admits(spec, seq) {
		t.Fatal("read 3 must be rejected")
	}
	// Both branches survive as reachable states of the reference fold.
	states, _ := setFold(spec, base)
	if len(states) != 2 {
		t.Fatalf("expected 2 reachable states, got %d", len(states))
	}
}

// TestStatesAfterDeduplicates pins the reference fold's deduplication, which
// the fuzz targets rely on when they compare Fold's state with its set.
func TestStatesAfterDeduplicates(t *testing.T) {
	spec := choiceSpec{}
	seq := []*Label{
		{ID: 1, Method: "flip", Kind: KindUpdate},
		{ID: 2, Method: "flip", Kind: KindUpdate},
	}
	states, _ := setFold(spec, seq)
	// Two flips from two branches give four successor states, but only the
	// two distinct values must remain.
	if len(states) != 2 {
		t.Fatalf("expected deduplicated states, got %d", len(states))
	}
}

func TestSetSpec(t *testing.T) {
	spec := setSpec{}
	seq := []*Label{
		{ID: 1, Method: "add", Args: []Value{"a"}, Kind: KindUpdate},
		{ID: 2, Method: "add", Args: []Value{"b"}, Kind: KindUpdate},
		{ID: 3, Method: "remove", Args: []Value{"a"}, Kind: KindUpdate},
		{ID: 4, Method: "read", Ret: []string{"b"}, Kind: KindQuery},
	}
	if !Admits(spec, seq) {
		t.Fatal("set sequence must be admitted")
	}
	seq[3].Ret = []string{"a", "b"}
	if Admits(spec, seq) {
		t.Fatal("stale read must be rejected")
	}
}

// ownedSetSpec is setSpec with an in-place StepOwned, whose Init hands out
// the same shared map on every call; owned counts the StepOwned calls.
type ownedSetSpec struct {
	setSpec
	init  setState
	owned *int
}

func (s ownedSetSpec) Init() AbsState { return s.init }

func (s ownedSetSpec) StepOwned(phi AbsState, l *Label) (AbsState, bool) {
	*s.owned++
	st := phi.(setState)
	switch l.Method {
	case "add":
		st[l.Args[0].(string)] = true
		return st, true
	case "remove":
		delete(st, l.Args[0].(string))
		return st, true
	}
	return st, len(s.setSpec.StepAppend(nil, st, l)) == 1
}

// TestFoldsNeverMutateSharedInit pins the owned fold's copy discipline: a
// spec's Init may return a shared value, so Fold and Admits step a private
// copy of it and leave the shared state empty, call after call.
func TestFoldsNeverMutateSharedInit(t *testing.T) {
	n := 0
	sp := ownedSetSpec{init: setState{}, owned: &n}
	seq := []*Label{
		{ID: 1, Method: "add", Args: []Value{"a"}, Kind: KindUpdate},
		{ID: 2, Method: "add", Args: []Value{"b"}, Kind: KindUpdate},
		{ID: 3, Method: "remove", Args: []Value{"a"}, Kind: KindUpdate},
		{ID: 4, Method: "read", Ret: []string{"b"}, Kind: KindQuery},
	}
	stale := append(seq[:2:2], &Label{ID: 5, Method: "read", Ret: []string{}, Kind: KindQuery})
	for round := 0; round < 2; round++ {
		if phi, _ := Fold(sp, seq); !phi.EqualAbs(setState{"b": true}) {
			t.Fatalf("round %d: Fold = %v, want {b}", round, phi)
		}
		if !Admits(sp, seq) || Admits(sp, stale) {
			t.Fatalf("round %d: Admits disagrees with setSpec", round)
		}
		if _, i := Fold(sp, stale); i != 2 {
			t.Fatalf("round %d: Fold rejected at %d, want 2", round, i)
		}
		if len(sp.init) != 0 {
			t.Fatalf("round %d: a fold mutated the shared initial state: %v", round, sp.init)
		}
	}
	if n == 0 {
		t.Fatal("the folds never took the StepOwned path")
	}
}
