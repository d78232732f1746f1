package core

import (
	"fmt"
	"testing"
)

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
	if idx := FirstRejected(spec, bad); idx != 3 {
		t.Fatalf("FirstRejected = %d, want 3", idx)
	}
	if idx := FirstRejected(spec, seq); idx != -1 {
		t.Fatalf("FirstRejected on admitted sequence = %d, want -1", idx)
	}
}

func TestAdmitsEmptySequence(t *testing.T) {
	if !Admits(counterSpec{}, nil) {
		t.Fatal("empty sequence must be admitted")
	}
	states := StatesAfter(counterSpec{}, nil)
	if len(states) != 1 || !states[0].EqualAbs(counterState(0)) {
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
	// Both branches survive as reachable states.
	states := StatesAfter(spec, base)
	if len(states) != 2 {
		t.Fatalf("expected 2 reachable states, got %d", len(states))
	}
}

func TestStatesAfterDeduplicates(t *testing.T) {
	spec := choiceSpec{}
	seq := []*Label{
		{ID: 1, Method: "flip", Kind: KindUpdate},
		{ID: 2, Method: "flip", Kind: KindUpdate},
	}
	states := StatesAfter(spec, seq)
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

// keyedState implements StateKeyer, so DedupStates takes its keyed path.
type keyedState int64

func (s keyedState) CloneAbs() AbsState       { return s }
func (s keyedState) EqualAbs(o AbsState) bool { c, ok := o.(keyedState); return ok && c == s }
func (s keyedState) String() string           { return fmt.Sprintf("%d", int64(s)) }
func (s keyedState) StateKey() (string, bool) { return s.String(), true }

// maybeKeyedState is a state whose key may be unavailable, the way a
// composite state reports an unkeyable component: equality ignores keyed, so
// a keyed and an unkeyed copy of one value are the same state.
type maybeKeyedState struct {
	v     int64
	keyed bool
}

func (s maybeKeyedState) CloneAbs() AbsState { return s }
func (s maybeKeyedState) EqualAbs(o AbsState) bool {
	c, ok := o.(maybeKeyedState)
	return ok && c.v == s.v
}
func (s maybeKeyedState) String() string           { return fmt.Sprintf("%d", s.v) }
func (s maybeKeyedState) StateKey() (string, bool) { return s.String(), s.keyed }

// TestDedupStatesKeyedFastPath deduplicates keyable sets of several sizes,
// below and above a handful of states, all through the keyed path: the result
// keeps exactly the distinct states in first-occurrence order.
func TestDedupStatesKeyedFastPath(t *testing.T) {
	for _, n := range []int{2, 5, 8, 9, 64, 65, 200} {
		var states []AbsState
		for i := 0; i < n; i++ {
			states = append(states, keyedState((i*3)%7))
		}
		out := DedupStates(states)
		want := min(n, 7)
		if len(out) != want {
			t.Fatalf("n=%d: expected %d distinct states, got %d: %v", n, want, len(out), out)
		}
		for i, s := range out {
			if s.(keyedState) != keyedState((i*3)%7) {
				t.Fatalf("n=%d: first-occurrence order broken at %d: %v", n, i, out)
			}
		}
	}
}

// TestDedupStatesUnkeyedFallback checks the EqualAbs scan dedups states
// without canonical keys, in first-occurrence order.
func TestDedupStatesUnkeyedFallback(t *testing.T) {
	var states []AbsState
	for i := 0; i < 24; i++ {
		states = append(states, counterState(3-i%4))
	}
	out := DedupStates(states)
	if len(out) != 4 {
		t.Fatalf("expected 4 distinct states, got %d: %v", len(out), out)
	}
	for i, s := range out {
		if s.(counterState) != counterState(3-i) {
			t.Fatalf("first-occurrence order broken at %d: %v", i, out)
		}
	}
}

// TestDedupStatesMixedFallsBack puts one unkeyable state into an otherwise
// keyed set, last so that the keyed path has already consumed every other
// state: DedupStates must fall back to the EqualAbs scan over the untouched
// input, which recognises the unkeyed state as a duplicate of a keyed one.
func TestDedupStatesMixedFallsBack(t *testing.T) {
	var states []AbsState
	for i := 0; i < 20; i++ {
		states = append(states, maybeKeyedState{v: int64(i % 5), keyed: true})
	}
	states = append(states, maybeKeyedState{v: 2})
	out := DedupStates(states)
	if len(out) != 5 {
		t.Fatalf("expected 5 distinct states, got %d: %v", len(out), out)
	}
	for i, s := range out {
		if got := s.(maybeKeyedState); got.v != int64(i) || !got.keyed {
			t.Fatalf("state %d: got %+v, want the keyed first occurrence of %d", i, got, i)
		}
	}
}

// TestDedupStatesSmallSets covers the short-circuit paths.
func TestDedupStatesSmallSets(t *testing.T) {
	if out := DedupStates(nil); len(out) != 0 {
		t.Fatalf("empty input must stay empty, got %v", out)
	}
	one := []AbsState{keyedState(7)}
	if out := DedupStates(one); len(out) != 1 || out[0].(keyedState) != 7 {
		t.Fatalf("singleton must pass through, got %v", out)
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
// spec's Init may return a shared value, so StatesAfter, Admits and
// FirstRejected step a private copy of it and leave the shared state empty,
// call after call.
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
		states := StatesAfter(sp, seq)
		if len(states) != 1 || !states[0].EqualAbs(setState{"b": true}) {
			t.Fatalf("round %d: StatesAfter = %v, want [{b}]", round, states)
		}
		if !Admits(sp, seq) || Admits(sp, stale) {
			t.Fatalf("round %d: Admits disagrees with setSpec", round)
		}
		if i := FirstRejected(sp, stale); i != 2 {
			t.Fatalf("round %d: FirstRejected = %d, want 2", round, i)
		}
		if len(sp.init) != 0 {
			t.Fatalf("round %d: a fold mutated the shared initial state: %v", round, sp.init)
		}
	}
	if n == 0 {
		t.Fatal("the folds never took the StepOwned path")
	}
}
