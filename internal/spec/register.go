package spec

import (
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

// CloneAbs deep-copies the pair set.
func (s MVRegState) CloneAbs() core.AbsState {
	c := make(MVRegState, len(s))
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

// StepAppend appends the successors of phi under l to dst. Writes are labels
// "write" with arguments (element, version vector); the runtime's
// query-update rewriting produces them from plain write(a) operations.
func (MVRegister) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(MVRegState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "write":
		if len(l.Args) != 2 {
			return dst
		}
		elem, okE := l.Args[0].(string)
		vv, okV := l.Args[1].(clock.VersionVector)
		if !okE || !okV {
			return dst
		}
		// Precondition: the identifier is not less than or equal to any
		// identifier already present.
		for _, p := range s {
			if vv.Leq(p.VV) {
				return dst
			}
		}
		next := MVRegState{}
		for _, p := range s {
			if p.VV.Less(vv) {
				continue
			}
			next = append(next, MVPair{Elem: p.Elem, VV: p.VV.Copy()})
		}
		next = append(next, MVPair{Elem: elem, VV: vv.Copy()})
		return append(dst, next)
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
