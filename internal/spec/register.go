package spec

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// RegisterState is the abstract state of Spec(Reg): the current value of the
// register (Appendix B.2). The empty string is the initial, unwritten value.
type RegisterState string

// CloneAbs returns the state itself.
func (s RegisterState) CloneAbs() core.AbsState { return s }

// EqualAbs reports string equality.
func (s RegisterState) EqualAbs(o core.AbsState) bool {
	r, ok := o.(RegisterState)
	return ok && r == s
}

// String renders the register value.
func (s RegisterState) String() string { return string(s) }

// StateKey returns the canonical key (the value itself), enabling search
// memoization.
func (s RegisterState) StateKey() (string, bool) { return string(s), true }

// Register is Spec(Reg) of Appendix B.2: write(a) sets the value, read() ⇒ a
// returns it. It is the specification of the LWW-Register.
type Register struct{}

// Name returns "Spec(Reg)".
func (Register) Name() string { return "Spec(Reg)" }

// Init returns the empty register.
func (Register) Init() core.AbsState { return RegisterState("") }

// StepAppend appends the successors of phi under l to dst.
func (Register) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(RegisterState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "write":
		if len(l.Args) != 1 {
			return dst
		}
		v, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		return append(dst, RegisterState(v))
	case "read":
		ret, ok := l.Ret.(string)
		if ok && ret == string(s) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// MVPair is an element tagged with the version vector that wrote it, the
// identifiers of Spec(MV-Reg) in Appendix E.1.
type MVPair struct {
	Elem string
	VV   clock.VersionVector
}

// MVRegState is the abstract state of Spec(MV-Reg): a set of (element,
// version vector) pairs whose vectors are pairwise incomparable.
type MVRegState []MVPair

// CloneAbs deep-copies the pair set, with room for one more pair.
func (s MVRegState) CloneAbs() core.AbsState {
	c := make(MVRegState, len(s), len(s)+1)
	for i, p := range s {
		c[i] = MVPair{Elem: p.Elem, VV: p.VV.Copy()}
	}
	return c
}

// EqualAbs reports set equality of the pairs.
func (s MVRegState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(MVRegState)
	if !ok || len(s) != len(t) {
		return false
	}
	for _, p := range s {
		found := false
		for _, q := range t {
			if p.Elem == q.Elem && p.VV.Equal(q.VV) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Values returns the sorted set of element values currently held.
func (s MVRegState) Values() []string {
	elems := make([]string, 0, len(s))
	for _, p := range s {
		elems = append(elems, p.Elem)
	}
	return core.SortedSet(elems)
}

// reads reports whether a read returning ret is admitted in s: exactly
// core.ValueEqual(ret, s.Values()) — ret non-nil, strictly ascending, every
// element held by some pair and every pair's element in ret — without
// building and sorting the value slice.
func (s MVRegState) reads(ret []string) bool {
	if ret == nil || !strictlyAscending(ret) {
		return false
	}
	for _, p := range s {
		if _, ok := slices.BinarySearch(ret, p.Elem); !ok {
			return false
		}
	}
	for _, e := range ret {
		if !slices.ContainsFunc(s, func(p MVPair) bool { return p.Elem == e }) {
			return false
		}
	}
	return true
}

// String renders the state.
func (s MVRegState) String() string {
	return core.FormatValue(s.Values())
}

// StateKey returns the canonical key: the quoted elements with their writing
// version vectors (clock.VersionVector renders with replicas sorted), sorted
// lexicographically. Enables search memoization.
func (s MVRegState) StateKey() (string, bool) {
	parts := make([]string, len(s))
	for i, p := range s {
		parts[i] = strconv.Quote(p.Elem) + "@" + p.VV.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ","), true
}

// MVRegister is Spec(MV-Reg) of Appendix E.1: write(a, id), where id is a
// version vector not dominated by any identifier in the state, replaces every
// dominated pair; read() ⇒ S returns the set of held values.
type MVRegister struct{}

// Name returns "Spec(MV-Reg)".
func (MVRegister) Name() string { return "Spec(MV-Reg)" }

// Init returns the empty register.
func (MVRegister) Init() core.AbsState { return MVRegState{} }

// StepAppend appends the successors of phi under l to dst: a write steps a
// private copy of phi through StepOwned, a read steps phi itself (StepOwned
// never mutates on a query).
func (m MVRegister) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(MVRegState)
	if !ok {
		return dst
	}
	if l.Method == "write" {
		phi = s.CloneAbs()
	}
	if next, ok := m.StepOwned(phi, l); ok {
		return append(dst, next)
	}
	return dst
}

// StepOwned applies l to phi in place (the core.OwnedStepper fold path):
// Spec(MV-Reg) is deterministic, so a justification fold steps one private
// copy of the pair set instead of cloning it per write. Writes are labels
// "write" with arguments (element, version vector); the runtime's
// query-update rewriting produces them from plain write(a) operations.
func (MVRegister) StepOwned(phi core.AbsState, l *core.Label) (core.AbsState, bool) {
	s, ok := phi.(MVRegState)
	if !ok {
		return nil, false
	}
	switch l.Method {
	case "write":
		if len(l.Args) != 2 {
			return nil, false
		}
		elem, okE := l.Args[0].(string)
		vv, okV := l.Args[1].(clock.VersionVector)
		if !okE || !okV {
			return nil, false
		}
		// Precondition: the identifier is not less than or equal to any
		// identifier already present.
		for _, p := range s {
			if vv.Leq(p.VV) {
				return nil, false
			}
		}
		// Drop every dominated pair in place, then add the new one.
		next := s[:0]
		for _, p := range s {
			if !p.VV.Less(vv) {
				next = append(next, p)
			}
		}
		clear(s[len(next):])
		return append(next, MVPair{Elem: elem, VV: vv.Copy()}), true
	case "read":
		ret, ok := l.Ret.([]string)
		return s, ok && s.reads(ret)
	default:
		return nil, false
	}
}
