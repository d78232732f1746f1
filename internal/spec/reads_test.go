package spec

import (
	"fmt"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// readReturns enumerates every read return over a small universe: nil, the
// empty slice, and every sequence of up to four of "a", "b", "c", "z" —
// sorted or not, with duplicates or without, missing or adding elements of
// any state below.
func readReturns() [][]string {
	out := [][]string{nil, {}}
	frontier := [][]string{{}}
	for n := 1; n <= 4; n++ {
		var next [][]string
		for _, prefix := range frontier {
			for _, e := range []string{"a", "b", "c", "z"} {
				next = append(next, append(append([]string{}, prefix...), e))
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

// readState is one state under test with the slice its reads compare
// against and the admission check the specs now run instead.
type readState struct {
	name  string
	want  []string
	reads func([]string) bool
}

func readStates() []readState {
	vv := func(r clock.ReplicaID, n uint64) clock.VersionVector {
		v := clock.NewVersionVector()
		v.Set(r, n)
		return v
	}
	var out []readState
	for _, s := range []SetState{{}, {"a": true}, {"c": true, "a": true, "b": true}} {
		out = append(out, readState{fmt.Sprintf("Set%v", s), s.Values(), s.reads})
	}
	for _, s := range []ORSetState{{}, {{Elem: "b", ID: 1}: true}, {{Elem: "a", ID: 1}: true, {Elem: "a", ID: 2}: true, {Elem: "c", ID: 3}: true}} {
		out = append(out, readState{fmt.Sprintf("OR-Set%v", s), s.Values(), s.reads})
	}
	for _, s := range []MVRegState{{}, {{"a", vv(0, 1)}}, {{"b", vv(0, 1)}, {"a", vv(1, 1)}, {"b", vv(2, 1)}}} {
		out = append(out, readState{fmt.Sprintf("MV-Reg%v", s), s.Values(), s.reads})
	}
	tombed := NewListState(Root, "c", "b", "a", "z")
	tombed.Tomb["b"] = true
	for _, s := range []ListState{NewListState(), NewListState(Root), NewListState(Begin, "a", "b", End), tombed, NewListState("a", "a")} {
		out = append(out, readState{fmt.Sprintf("List%v", s), s.Visible(), s.reads})
	}
	return out
}

// TestReadsMatchValueEqual pins the allocation-free read checks of Set,
// OR-Set, MV-Reg and the list specifications to exactly the comparison they
// replaced, core.ValueEqual(ret, s.Values()) or (ret, s.Visible()), on
// every return of readReturns: nil (which never matches, not even an empty
// state), empty, unsorted, duplicated, missing and extra returns.
func TestReadsMatchValueEqual(t *testing.T) {
	returns := readReturns()
	for _, st := range readStates() {
		for _, ret := range returns {
			if got, want := st.reads(ret), core.ValueEqual(ret, st.want); got != want {
				t.Fatalf("%s: read returning %#v admitted=%v, ValueEqual says %v", st.name, ret, got, want)
			}
		}
	}
}

// TestReadsThroughSpecs runs the same returns through every specification's
// read, by StepAppend and, where there is one, StepOwned: a read is admitted
// exactly when ValueEqual says its return is the state's read value.
func TestReadsThroughSpecs(t *testing.T) {
	set := SetState{"a": true, "b": true}
	orset := ORSetState{{Elem: "a", ID: 1}: true, {Elem: "b", ID: 2}: true}
	mv := MVRegState{{"a", clock.NewVersionVector().Increment(0)}, {"b", clock.NewVersionVector().Increment(1)}}
	list := NewListState(Root, "a", "b")
	wooki := NewListState(Begin, "a", "b", End)
	cases := []struct {
		spec core.Spec
		phi  core.AbsState
		want []string
	}{
		{Set{}, set, set.Values()},
		{ORSet{}, orset, orset.Values()},
		{MVRegister{}, mv, mv.Values()},
		{RGA{}, list, list.Visible()},
		{Wooki{}, wooki, wooki.Visible()},
		{AddAt1{}, list, list.Visible()},
		{AddAt2{}, list, list.Visible()},
		{AddAt3{}, list, list.Visible()},
	}
	for _, c := range cases {
		for _, ret := range readReturns() {
			l := &core.Label{Method: "read", Ret: ret, Kind: core.KindQuery}
			want := core.ValueEqual(ret, c.want)
			if got := len(c.spec.StepAppend(nil, c.phi, l)) == 1; got != want {
				t.Fatalf("%s StepAppend: read %#v admitted=%v, want %v", c.spec.Name(), ret, got, want)
			}
			if o, ok := c.spec.(core.OwnedStepper); ok {
				if _, got := o.StepOwned(c.phi, l); got != want {
					t.Fatalf("%s StepOwned: read %#v admitted=%v, want %v", c.spec.Name(), ret, got, want)
				}
			}
		}
	}
}

// TestReadIDsMatchValueEqual pins Spec(OR-Set)'s readIds check to the
// comparison it replaced: ValueEqual against the sorted, never-nil slice of
// the element's pairs, over nil, empty, unsorted, duplicated, missing,
// foreign-element and extra pair returns, and returns of another type.
func TestReadIDsMatchValueEqual(t *testing.T) {
	s := ORSetState{{Elem: "a", ID: 1}: true, {Elem: "a", ID: 2}: true, {Elem: "b", ID: 3}: true}
	universe := []core.Pair{{Elem: "a", ID: 1}, {Elem: "a", ID: 2}, {Elem: "b", ID: 3}, {Elem: "a", ID: 9}}
	returns := []core.Value{nil, []core.Pair(nil), []core.Pair{}, []string{"a"}, core.Pair{Elem: "a", ID: 1}}
	frontier := [][]core.Pair{{}}
	for n := 1; n <= 3; n++ {
		var next [][]core.Pair
		for _, prefix := range frontier {
			for _, p := range universe {
				next = append(next, append(append([]core.Pair{}, prefix...), p))
			}
		}
		for _, r := range next {
			returns = append(returns, r)
		}
		frontier = next
	}
	for _, elem := range []string{"a", "b", "c"} {
		want := []core.Pair{}
		for p := range s {
			if p.Elem == elem {
				want = append(want, p)
			}
		}
		want = core.SortPairs(want)
		for _, ret := range returns {
			l := &core.Label{Method: "readIds", Args: []core.Value{elem}, Ret: ret, Kind: core.KindQuery}
			_, got := ORSet{}.StepOwned(s, l)
			if exp := core.ValueEqual(ret, want); got != exp {
				t.Fatalf("readIds(%s) returning %#v admitted=%v, ValueEqual says %v", elem, ret, got, exp)
			}
		}
	}
}
