package spec

import (
	"strconv"
	"strings"

	"ralin/internal/core"
)

// SetState is the abstract state of Spec(Set): a plain set of values
// (Appendix E.2). It is the specification of the LWW-Element-Set and the
// 2P-Set, and the specification against which the Figure 5a execution of the
// OR-Set is shown not to be linearizable.
type SetState map[string]bool

// CloneAbs deep-copies the set.
func (s SetState) CloneAbs() core.AbsState {
	c := make(SetState, len(s))
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

// Step applies one label.
func (t Set) Step(phi core.AbsState, l *core.Label) []core.AbsState {
	return t.StepAppend(nil, phi, l)
}

// StepAppend appends the successors of phi under l to dst (the
// core.StepAppender fast path).
func (Set) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(SetState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "add":
		if len(l.Args) != 1 {
			return dst
		}
		v, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		n := s.CloneAbs().(SetState)
		n[v] = true
		return append(dst, n)
	case "remove":
		if len(l.Args) != 1 {
			return dst
		}
		v, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		n := s.CloneAbs().(SetState)
		delete(n, v)
		return append(dst, n)
	case "read":
		ret, ok := l.Ret.([]string)
		if ok && core.ValueEqual(ret, s.Values()) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// ORSetState is the abstract state of Spec(OR-Set) (Example 3.4): a set of
// element-identifier pairs.
type ORSetState map[core.Pair]bool

// CloneAbs deep-copies the pair set.
func (s ORSetState) CloneAbs() core.AbsState {
	c := make(ORSetState, len(s))
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

// Step applies one label.
func (o ORSet) Step(phi core.AbsState, l *core.Label) []core.AbsState {
	return o.StepAppend(nil, phi, l)
}

// StepAppend appends the successors of phi under l to dst (the
// core.StepAppender fast path): updates step a private copy of phi through
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
		var want []core.Pair
		for p := range s {
			if p.Elem == elem {
				want = append(want, p)
			}
		}
		want = core.SortPairs(want)
		if len(want) == 0 {
			want = []core.Pair{}
		}
		return s, core.ValueEqual(l.Ret, want)
	case "read":
		ret, ok := l.Ret.([]string)
		return s, ok && core.ValueEqual(ret, s.Values())
	default:
		return nil, false
	}
}
