package spec

import (
	"slices"
	"strconv"
	"strings"

	"ralin/internal/core"
)

// SetState is the abstract state of Spec(Set): a plain set of values
// (Appendix E.2). It is the specification of the LWW-Element-Set and the
// 2P-Set, and the specification against which the Figure 5a execution of the
// OR-Set is shown not to be linearizable.
type SetState map[string]bool

// CloneAbs deep-copies the set, with room for one more element.
func (s SetState) CloneAbs() core.AbsState {
	c := make(SetState, len(s)+1)
	for k := range s {
		c[k] = true
	}
	return c
}

// EqualAbs reports set equality.
func (s SetState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(SetState)
	if !ok || len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// Values returns the sorted contents of the set.
func (s SetState) Values() []string {
	elems := make([]string, 0, len(s))
	for k := range s {
		elems = append(elems, k)
	}
	return core.SortedSet(elems)
}

// String renders the set.
func (s SetState) String() string { return core.FormatValue(s.Values()) }

// reads reports whether a read returning ret is admitted in s: exactly
// core.ValueEqual(ret, s.Values()), without building and sorting that
// slice. Values is sorted, duplicate-free and never nil, so ret must be
// non-nil, strictly ascending and hold exactly the set's elements.
func (s SetState) reads(ret []string) bool {
	if ret == nil || len(ret) != len(s) {
		return false
	}
	for i, e := range ret {
		if _, ok := s[e]; !ok || i > 0 && ret[i-1] >= e {
			return false
		}
	}
	return true
}

// StateKey returns the canonical key (sorted quoted elements), enabling
// search memoization.
func (s SetState) StateKey() (string, bool) { return quoteJoin(s.Values()), true }

// quoteJoin renders a sorted string slice unambiguously (elements are quoted
// so separators inside values cannot collide).
func quoteJoin(elems []string) string {
	var b strings.Builder
	for _, e := range elems {
		b.WriteString(strconv.Quote(e))
		b.WriteByte(',')
	}
	return b.String()
}

// Set is Spec(Set) of Appendix E.2: add(a) inserts, remove(a) deletes,
// read() ⇒ S returns the sorted contents.
type Set struct{}

// Name returns "Spec(Set)".
func (Set) Name() string { return "Spec(Set)" }

// Init returns the empty set.
func (Set) Init() core.AbsState { return SetState{} }

// StepAppend appends the successors of phi under l to dst: updates step a
// private copy of phi through StepOwned, queries step phi itself (StepOwned
// never mutates on a query).
func (o Set) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(SetState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "add", "remove":
		phi = s.CloneAbs()
	}
	if next, ok := o.StepOwned(phi, l); ok {
		return append(dst, next)
	}
	return dst
}

// StepOwned applies l to phi in place (the core.OwnedStepper fold path):
// Spec(Set) is deterministic, so a justification fold steps one private copy
// of the set instead of cloning it per update.
func (Set) StepOwned(phi core.AbsState, l *core.Label) (core.AbsState, bool) {
	s, ok := phi.(SetState)
	if !ok {
		return nil, false
	}
	switch l.Method {
	case "add", "remove":
		if len(l.Args) != 1 {
			return nil, false
		}
		v, ok := l.Args[0].(string)
		if !ok {
			return nil, false
		}
		if l.Method == "add" {
			s[v] = true
		} else {
			delete(s, v)
		}
		return s, true
	case "read":
		ret, ok := l.Ret.([]string)
		return s, ok && s.reads(ret)
	default:
		return nil, false
	}
}

// ORSetState is the abstract state of Spec(OR-Set) (Example 3.4): a set of
// element-identifier pairs.
type ORSetState map[core.Pair]bool

// CloneAbs deep-copies the pair set, with room for one more pair.
func (s ORSetState) CloneAbs() core.AbsState {
	c := make(ORSetState, len(s)+1)
	for k := range s {
		c[k] = true
	}
	return c
}

// EqualAbs reports set equality.
func (s ORSetState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(ORSetState)
	if !ok || len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// Pairs returns the sorted element-identifier pairs.
func (s ORSetState) Pairs() []core.Pair {
	out := make([]core.Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	return core.SortPairs(out)
}

// Values returns the sorted set of element values.
func (s ORSetState) Values() []string {
	elems := make([]string, 0, len(s))
	for p := range s {
		elems = append(elems, p.Elem)
	}
	return core.SortedSet(elems)
}

// String renders the pair set.
func (s ORSetState) String() string { return core.FormatValue(s.Pairs()) }

// reads reports whether a read returning ret is admitted in s: exactly
// core.ValueEqual(ret, s.Values()) — ret non-nil, strictly ascending, every
// element held by some pair and every pair's element in ret — without
// building and sorting the value slice.
func (s ORSetState) reads(ret []string) bool {
	if ret == nil || !strictlyAscending(ret) {
		return false
	}
	for p := range s {
		if _, ok := slices.BinarySearch(ret, p.Elem); !ok {
			return false
		}
	}
	for _, e := range ret {
		if !s.holds(e) {
			return false
		}
	}
	return true
}

// holds reports whether some pair carries elem.
func (s ORSetState) holds(elem string) bool {
	for p := range s {
		if p.Elem == elem {
			return true
		}
	}
	return false
}

// readsIDs reports whether readIds(elem) returning ret is admitted in s:
// exactly core.ValueEqual(ret, want) for want the sorted, never-nil slice of
// the pairs with element elem — ret a non-nil []core.Pair, strictly
// ascending, holding only such pairs and as many as s has.
func (s ORSetState) readsIDs(ret core.Value, elem string) bool {
	got, ok := ret.([]core.Pair)
	if !ok || got == nil {
		return false
	}
	for i, p := range got {
		if _, ok := s[p]; !ok || p.Elem != elem || i > 0 && !pairLess(got[i-1], p) {
			return false
		}
	}
	n := 0
	for p := range s {
		if p.Elem == elem {
			n++
		}
	}
	return n == len(got)
}

// pairLess is core.SortPairs' order: by element, then identifier.
func pairLess(a, b core.Pair) bool {
	if a.Elem != b.Elem {
		return a.Elem < b.Elem
	}
	return a.ID < b.ID
}

// strictlyAscending reports whether elems is sorted without duplicates.
func strictlyAscending(elems []string) bool {
	for i := 1; i < len(elems); i++ {
		if elems[i-1] >= elems[i] {
			return false
		}
	}
	return true
}

// StateKey returns the canonical key (sorted quoted pairs), enabling search
// memoization.
func (s ORSetState) StateKey() (string, bool) {
	var b strings.Builder
	for _, p := range s.Pairs() {
		b.WriteString(strconv.Quote(p.Elem))
		b.WriteByte('#')
		b.WriteString(strconv.FormatUint(p.ID, 10))
		b.WriteByte(',')
	}
	return b.String(), true
}

// ORSet is Spec(OR-Set) of Example 3.4, the specification of the rewritten
// OR-Set operations:
//
//	add(a, id)        adds the pair (a, id), which must be fresh;
//	removeIds(S)      removes the pairs in S;
//	readIds(a) ⇒ S    returns the pairs with element a;
//	read() ⇒ A        returns the set of element values.
type ORSet struct{}

// Name returns "Spec(OR-Set)".
func (ORSet) Name() string { return "Spec(OR-Set)" }

// Init returns the empty pair set.
func (ORSet) Init() core.AbsState { return ORSetState{} }

// StepAppend appends the successors of phi under l to dst: updates step a private copy of phi through
// StepOwned, queries step phi itself (StepOwned never mutates on a query).
func (o ORSet) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ORSetState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "add", "removeIds":
		phi = s.CloneAbs()
	}
	if next, ok := o.StepOwned(phi, l); ok {
		return append(dst, next)
	}
	return dst
}

// StepOwned applies l to phi in place (the core.OwnedStepper fold path):
// Spec(OR-Set) is deterministic, so a justification fold steps one private
// copy of the pair set instead of cloning it per update.
func (ORSet) StepOwned(phi core.AbsState, l *core.Label) (core.AbsState, bool) {
	s, ok := phi.(ORSetState)
	if !ok {
		return nil, false
	}
	switch l.Method {
	case "add":
		if len(l.Args) != 2 {
			return nil, false
		}
		elem, okE := l.Args[0].(string)
		id, okI := l.Args[1].(uint64)
		if !okE || !okI {
			return nil, false
		}
		p := core.Pair{Elem: elem, ID: id}
		if s[p] {
			return nil, false // identifiers are unique; re-adding is not admitted
		}
		s[p] = true
		return s, true
	case "removeIds":
		if len(l.Args) != 1 {
			return nil, false
		}
		pairs, ok := l.Args[0].([]core.Pair)
		if !ok {
			return nil, false
		}
		for _, p := range pairs {
			delete(s, p)
		}
		return s, true
	case "readIds":
		if len(l.Args) != 1 {
			return nil, false
		}
		elem, ok := l.Args[0].(string)
		if !ok {
			return nil, false
		}
		return s, s.readsIDs(l.Ret, elem)
	case "read":
		ret, ok := l.Ret.([]string)
		return s, ok && s.reads(ret)
	default:
		return nil, false
	}
}
