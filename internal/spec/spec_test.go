package spec

import (
	"slices"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
)

func upd(method string, args ...core.Value) *core.Label {
	return &core.Label{Method: method, Args: args, Kind: core.KindUpdate}
}

func qry(method string, ret core.Value, args ...core.Value) *core.Label {
	return &core.Label{Method: method, Args: args, Ret: ret, Kind: core.KindQuery}
}

func TestCounterSpec(t *testing.T) {
	s := Counter{}
	if s.Name() != "Spec(Counter)" {
		t.Fatal("name wrong")
	}
	seq := []*core.Label{upd("inc"), upd("inc"), upd("dec"), qry("read", int64(1))}
	if !core.Admits(s, seq) {
		t.Fatal("valid counter sequence rejected")
	}
	if core.Admits(s, []*core.Label{qry("read", int64(3))}) {
		t.Fatal("wrong read admitted")
	}
	if core.Admits(s, []*core.Label{upd("bogus")}) {
		t.Fatal("unknown method admitted")
	}
	if core.Admits(s, []*core.Label{qry("read", "nan")}) {
		t.Fatal("mistyped return admitted")
	}
	st := CounterState(5)
	if !st.CloneAbs().EqualAbs(st) || st.String() != "5" {
		t.Fatal("counter state helpers wrong")
	}
	if st.EqualAbs(RegisterState("5")) {
		t.Fatal("cross-type equality must fail")
	}
}

func TestRegisterSpec(t *testing.T) {
	s := Register{}
	seq := []*core.Label{upd("write", "x"), upd("write", "y"), qry("read", "y")}
	if !core.Admits(s, seq) {
		t.Fatal("valid register sequence rejected")
	}
	if core.Admits(s, []*core.Label{upd("write", "x"), qry("read", "z")}) {
		t.Fatal("wrong read admitted")
	}
	if !core.Admits(s, []*core.Label{qry("read", "")}) {
		t.Fatal("initial read of the empty value must be admitted")
	}
	if core.Admits(s, []*core.Label{upd("write")}) {
		t.Fatal("write without argument admitted")
	}
	if core.Admits(s, []*core.Label{upd("write", 7)}) {
		t.Fatal("mistyped write admitted")
	}
	if core.Admits(s, []*core.Label{upd("mystery")}) {
		t.Fatal("unknown method admitted")
	}
}

func TestMVRegisterSpec(t *testing.T) {
	s := MVRegister{}
	v1 := clock.NewVersionVector()
	v1.Increment(1)
	v2 := clock.NewVersionVector()
	v2.Increment(2)
	v12 := v1.Merge(v2)
	v12.Increment(1)

	// Two concurrent writes are both kept.
	seq := []*core.Label{
		upd("write", "a", v1),
		upd("write", "b", v2),
		qry("read", []string{"a", "b"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("concurrent writes must both be visible")
	}
	// A dominating write replaces both.
	seq2 := []*core.Label{
		upd("write", "a", v1),
		upd("write", "b", v2),
		upd("write", "c", v12),
		qry("read", []string{"c"}),
	}
	if !core.Admits(s, seq2) {
		t.Fatal("dominating write must replace dominated values")
	}
	// Writing with a dominated identifier is not admitted.
	seq3 := []*core.Label{
		upd("write", "a", v12),
		upd("write", "b", v1),
	}
	if core.Admits(s, seq3) {
		t.Fatal("dominated identifier must be rejected")
	}
	// Malformed labels.
	if core.Admits(s, []*core.Label{upd("write", "a")}) {
		t.Fatal("write without identifier admitted")
	}
	if core.Admits(s, []*core.Label{upd("whatever")}) {
		t.Fatal("unknown method admitted")
	}
	// State helpers.
	st := MVRegState{{Elem: "a", VV: v1}}
	if !st.CloneAbs().EqualAbs(st) || st.String() != "[a]" {
		t.Fatal("state helpers wrong")
	}
	if st.EqualAbs(MVRegState{{Elem: "a", VV: v2}}) {
		t.Fatal("different vectors must not be equal")
	}
}

func TestSetSpec(t *testing.T) {
	s := Set{}
	seq := []*core.Label{
		upd("add", "a"), upd("add", "b"), upd("remove", "a"),
		qry("read", []string{"b"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("valid set sequence rejected")
	}
	if core.Admits(s, append(seq[:3:3], qry("read", []string{"a", "b"}))) {
		t.Fatal("stale read admitted")
	}
	if !core.Admits(s, []*core.Label{upd("remove", "ghost"), qry("read", []string{})}) {
		t.Fatal("removing an absent element is a no-op in Spec(Set)")
	}
	if core.Admits(s, []*core.Label{upd("add")}) || core.Admits(s, []*core.Label{upd("hm", "x")}) {
		t.Fatal("malformed labels admitted")
	}
	st := SetState{"a": true}
	if !st.CloneAbs().EqualAbs(st) || st.String() != "[a]" {
		t.Fatal("state helpers wrong")
	}
}

func TestORSetSpec(t *testing.T) {
	s := ORSet{}
	addA1 := upd("add", "a", uint64(1))
	addA2 := upd("add", "a", uint64(2))
	remA1 := upd("removeIds", []core.Pair{{Elem: "a", ID: 1}})
	seq := []*core.Label{
		addA1, addA2, remA1,
		qry("readIds", []core.Pair{{Elem: "a", ID: 2}}, "a"),
		qry("read", []string{"a"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("valid OR-Set sequence rejected")
	}
	// Removing both identifiers empties the set.
	seq2 := []*core.Label{
		addA1, addA2,
		upd("removeIds", []core.Pair{{Elem: "a", ID: 1}, {Elem: "a", ID: 2}}),
		qry("read", []string{}),
		qry("readIds", []core.Pair{}, "a"),
	}
	if !core.Admits(s, seq2) {
		t.Fatal("emptying the OR-Set rejected")
	}
	// Re-adding the same identifier is not admitted.
	if core.Admits(s, []*core.Label{addA1, addA1}) {
		t.Fatal("duplicate identifier admitted")
	}
	if core.Admits(s, []*core.Label{upd("add", "a")}) {
		t.Fatal("add without identifier admitted")
	}
	if core.Admits(s, []*core.Label{upd("huh", "a")}) {
		t.Fatal("unknown method admitted")
	}
	st := ORSetState{{Elem: "a", ID: 1}: true}
	if !st.CloneAbs().EqualAbs(st) || st.String() != "[a#1]" {
		t.Fatal("state helpers wrong")
	}
	if len(st.Values()) != 1 || st.Values()[0] != "a" {
		t.Fatal("Values wrong")
	}
}

func TestRGASpec(t *testing.T) {
	s := RGA{}
	seq := []*core.Label{
		upd("addAfter", Root, "a"),
		upd("addAfter", "a", "b"),
		upd("addAfter", "a", "c"),
		qry("read", []string{"a", "c", "b"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("add-after sequence rejected")
	}
	// Removing hides the element from reads but keeps it addressable.
	seq2 := []*core.Label{
		upd("addAfter", Root, "a"),
		upd("remove", "a"),
		upd("addAfter", "a", "b"),
		qry("read", []string{"b"}),
	}
	if !core.Admits(s, seq2) {
		t.Fatal("adding after a removed element must stay possible")
	}
	// Preconditions.
	if core.Admits(s, []*core.Label{upd("addAfter", "ghost", "x")}) {
		t.Fatal("adding after an absent element admitted")
	}
	if core.Admits(s, []*core.Label{upd("addAfter", Root, "a"), upd("addAfter", Root, "a")}) {
		t.Fatal("duplicate element admitted")
	}
	if core.Admits(s, []*core.Label{upd("remove", "ghost")}) {
		t.Fatal("removing an absent element admitted")
	}
	if core.Admits(s, []*core.Label{upd("remove", Root)}) {
		t.Fatal("removing the root admitted")
	}
	if core.Admits(s, []*core.Label{upd("addAfter", Root, "a"), qry("read", []string{})}) {
		t.Fatal("stale read admitted")
	}
	st := s.Init().(ListState)
	if st.String() != Root {
		t.Fatalf("unexpected initial state rendering %q", st.String())
	}
}

func TestWookiSpecNondeterminism(t *testing.T) {
	s := Wooki{}
	base := []*core.Label{
		upd("addBetween", Begin, "a", End),
		upd("addBetween", Begin, "c", End),
	}
	// c can land before or after a: both reads are admitted.
	for _, want := range [][]string{{"a", "c"}, {"c", "a"}} {
		seq := append(append([]*core.Label(nil), base...), qry("read", want))
		if !core.Admits(s, seq) {
			t.Fatalf("read %v must be admitted", want)
		}
	}
	// Inserting strictly between a and c cannot produce an order where b is
	// outside.
	seq := []*core.Label{
		upd("addBetween", Begin, "a", End),
		upd("addBetween", "a", "c", End),
		upd("addBetween", "a", "b", "c"),
		qry("read", []string{"a", "b", "c"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("in-between read rejected")
	}
	bad := append(append([]*core.Label(nil), seq[:3]...), qry("read", []string{"b", "a", "c"}))
	if core.Admits(s, bad) {
		t.Fatal("read placing b outside its bounds admitted")
	}
	// Preconditions.
	if core.Admits(s, []*core.Label{upd("addBetween", End, "x", Begin)}) {
		t.Fatal("inverted sentinels admitted")
	}
	if core.Admits(s, []*core.Label{upd("addBetween", Begin, Begin, End)}) {
		t.Fatal("inserting a sentinel admitted")
	}
	if core.Admits(s, []*core.Label{upd("remove", Begin)}) {
		t.Fatal("removing a sentinel admitted")
	}
	if core.Admits(s, []*core.Label{upd("remove", "nope")}) {
		t.Fatal("removing an absent element admitted")
	}
	// Remove hides the element from reads.
	seq3 := []*core.Label{
		upd("addBetween", Begin, "a", End),
		upd("remove", "a"),
		qry("read", []string{}),
	}
	if !core.Admits(s, seq3) {
		t.Fatal("read after remove rejected")
	}
}

func TestAddAt1Spec(t *testing.T) {
	s := AddAt1{}
	seq := []*core.Label{
		upd("addAt", "a", 0),
		upd("addAt", "b", 0),
		upd("addAt", "c", 1),
		qry("read", []string{"b", "c", "a"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("valid addAt1 sequence rejected")
	}
	// Index past the end appends.
	seq2 := []*core.Label{
		upd("addAt", "a", 5),
		qry("read", []string{"a"}),
	}
	if !core.Admits(s, seq2) {
		t.Fatal("append-at-large-index rejected")
	}
	// Remove actually deletes.
	seq3 := []*core.Label{
		upd("addAt", "a", 0),
		upd("addAt", "b", 1),
		upd("remove", "a"),
		qry("read", []string{"b"}),
	}
	if !core.Admits(s, seq3) {
		t.Fatal("remove sequence rejected")
	}
	if core.Admits(s, []*core.Label{upd("remove", "ghost")}) {
		t.Fatal("removing an absent element admitted")
	}
	if core.Admits(s, []*core.Label{upd("addAt", "a", -1)}) {
		t.Fatal("negative index admitted")
	}
	if core.Admits(s, []*core.Label{upd("addAt", "a", 0), upd("addAt", "a", 0)}) {
		t.Fatal("duplicate element admitted")
	}
}

func TestAddAt2SpecNondeterministicAroundTombstones(t *testing.T) {
	s := AddAt2{}
	// Build a·b, remove a; inserting at visible index 0 may land before or
	// after the tombstoned a.
	base := []*core.Label{
		upd("addAt", "a", 0),
		upd("addAt", "b", 1),
		upd("remove", "a"),
		upd("addAt", "c", 0),
	}
	if !core.Admits(s, append(append([]*core.Label(nil), base...), qry("read", []string{"c", "b"}))) {
		t.Fatal("insertion before b rejected")
	}
	phi, _ := core.Fold(s, base[:3])
	var states []core.AbsState
	for _, succ := range s.StepAppend(nil, phi, base[3]) {
		if !slices.ContainsFunc(states, succ.EqualAbs) {
			states = append(states, succ)
		}
	}
	if len(states) < 2 {
		t.Fatalf("expected nondeterministic successors around the tombstone, got %d", len(states))
	}
	// Reads never show tombstoned elements.
	if core.Admits(s, append(append([]*core.Label(nil), base...), qry("read", []string{"a", "c", "b"}))) {
		t.Fatal("tombstoned element leaked into a read")
	}
	// Appending beyond the visible length.
	seq := []*core.Label{
		upd("addAt", "a", 0),
		upd("remove", "a"),
		upd("addAt", "b", 7),
		qry("read", []string{"b"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("append past the visible end rejected")
	}
}

func TestAddAt3Spec(t *testing.T) {
	s := AddAt3{}
	// The return values are the local views of the inserting replica.
	seq := []*core.Label{
		&core.Label{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"b", 0}, Ret: []string{"b", "a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"c", 1}, Ret: []string{"b", "c", "a"}, Kind: core.KindUpdate},
		qry("read", []string{"b", "c", "a"}),
	}
	if !core.Admits(s, seq) {
		t.Fatal("valid addAt3 sequence rejected")
	}
	// A local view that is not a subsequence of the global list is rejected.
	bad := []*core.Label{
		&core.Label{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"b", 1}, Ret: []string{"z", "b"}, Kind: core.KindUpdate},
	}
	if core.Admits(s, bad) {
		t.Fatal("foreign element in the local view admitted")
	}
	// A view that omits elements (a smaller local view) is fine.
	partial := []*core.Label{
		&core.Label{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"b", 0}, Ret: []string{"b", "a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"c", 0}, Ret: []string{"c", "b"}, Kind: core.KindUpdate},
	}
	if !core.Admits(s, partial) {
		t.Fatal("partial local view rejected")
	}
	// The element must sit at the index named by the argument (or the end of
	// a shorter view).
	wrongPos := []*core.Label{
		&core.Label{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"b", 0}, Ret: []string{"a", "b"}, Kind: core.KindUpdate},
	}
	if core.Admits(s, wrongPos) {
		t.Fatal("misplaced element admitted")
	}
	// Remove returns a view without the removed element.
	rem := []*core.Label{
		&core.Label{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		&core.Label{Method: "addAt", Args: []core.Value{"b", 1}, Ret: []string{"a", "b"}, Kind: core.KindUpdate},
		&core.Label{Method: "remove", Args: []core.Value{"a"}, Ret: []string{"b"}, Kind: core.KindUpdate},
		qry("read", []string{"b"}),
	}
	if !core.Admits(s, rem) {
		t.Fatal("remove with local view rejected")
	}
	badRem := []*core.Label{
		&core.Label{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		&core.Label{Method: "remove", Args: []core.Value{"a"}, Ret: []string{"a"}, Kind: core.KindUpdate},
	}
	if core.Admits(s, badRem) {
		t.Fatal("remove view containing the removed element admitted")
	}
	if core.Admits(s, []*core.Label{&core.Label{Method: "remove", Args: []core.Value{Root}, Ret: []string{}, Kind: core.KindUpdate}}) {
		t.Fatal("removing the root admitted")
	}
}

func TestListStateHelpers(t *testing.T) {
	s := NewListState(Root)
	s.Elems = append(s.Elems, "a", "b")
	s.Tomb["a"] = true
	if got := s.Visible(); !core.ValueEqual(got, []string{"b"}) {
		t.Fatalf("Visible wrong: %v", got)
	}
	if s.IndexOf("b") != 2 || s.IndexOf("zzz") != -1 {
		t.Fatal("IndexOf wrong")
	}
	if !s.Contains("a") || s.Contains("zzz") {
		t.Fatal("Contains wrong")
	}
	if s.String() != "◦·(a)·b" {
		t.Fatalf("String wrong: %q", s.String())
	}
	clone := s.CloneAbs().(ListState)
	clone.Tomb["b"] = true
	clone.Elems[2] = "x"
	if s.Tomb["b"] || s.Elems[2] != "b" {
		t.Fatal("CloneAbs must not alias")
	}
	if s.EqualAbs(clone) {
		t.Fatal("mutated clone must differ")
	}
	if !isSubsequence([]string{"a", "b"}, []string{"x", "a", "y", "b"}) ||
		isSubsequence([]string{"b", "a"}, []string{"a", "b"}) {
		t.Fatal("isSubsequence wrong")
	}
}
