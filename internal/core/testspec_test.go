package core

// Toy specifications used by the core package tests only. The real
// specifications of the paper's data types live in internal/spec; these exist
// so the checker can be exercised independently.

import "fmt"

// counterState is an integer abstract state.
type counterState int64

func (s counterState) CloneAbs() AbsState       { return s }
func (s counterState) EqualAbs(o AbsState) bool { c, ok := o.(counterState); return ok && c == s }
func (s counterState) String() string           { return fmt.Sprintf("%d", int64(s)) }

// counterSpec is the Spec(Counter) of Example 3.2: inc, dec, read.
type counterSpec struct{}

func (counterSpec) Name() string   { return "Spec(TestCounter)" }
func (counterSpec) Init() AbsState { return counterState(0) }

func (counterSpec) StepAppend(dst []AbsState, phi AbsState, l *Label) []AbsState {
	s := phi.(counterState)
	switch l.Method {
	case "inc":
		return append(dst, s+1)
	case "dec":
		return append(dst, s-1)
	case "read":
		if ret, ok := l.Ret.(int64); ok && ret == int64(s) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// setState is a plain set of strings.
type setState map[string]bool

func (s setState) CloneAbs() AbsState {
	c := make(setState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s setState) EqualAbs(o AbsState) bool {
	t, ok := o.(setState)
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

func (s setState) String() string {
	return FormatValue(s.elems())
}

func (s setState) elems() []string {
	var out []string
	for k := range s {
		out = append(out, k)
	}
	return SortedSet(out)
}

// setSpec is a naive sequential Set specification: add(a), remove(a),
// read() ⇒ sorted contents. It is the specification against which the
// Figure 5a execution is shown not to be linearizable.
type setSpec struct{}

func (setSpec) Name() string   { return "Spec(TestSet)" }
func (setSpec) Init() AbsState { return setState{} }

func (setSpec) StepAppend(dst []AbsState, phi AbsState, l *Label) []AbsState {
	s := phi.(setState)
	switch l.Method {
	case "add":
		n := s.CloneAbs().(setState)
		n[l.Args[0].(string)] = true
		return append(dst, n)
	case "remove":
		n := s.CloneAbs().(setState)
		delete(n, l.Args[0].(string))
		return append(dst, n)
	case "read":
		want, ok := l.Ret.([]string)
		if ok && ValueEqual(want, s.elems()) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// choiceSpec is a deliberately nondeterministic specification used to test
// that the checker follows all branches: "flip" moves to either 1 or 2, and
// "read" succeeds only in the state matching its return value.
type choiceSpec struct{}

func (choiceSpec) Name() string   { return "Spec(TestChoice)" }
func (choiceSpec) Init() AbsState { return counterState(0) }

func (choiceSpec) StepAppend(dst []AbsState, phi AbsState, l *Label) []AbsState {
	s := phi.(counterState)
	switch l.Method {
	case "flip":
		return append(dst, counterState(1), counterState(2))
	case "read":
		if ret, ok := l.Ret.(int64); ok && ret == int64(s) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// pairSetState is a set of element-identifier pairs, the abstract state of
// the OR-Set style specification of Example 3.4.
type pairSetState map[Pair]bool

func (s pairSetState) CloneAbs() AbsState {
	c := make(pairSetState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s pairSetState) EqualAbs(o AbsState) bool {
	t, ok := o.(pairSetState)
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

func (s pairSetState) String() string { return FormatValue(s.pairs()) }

func (s pairSetState) pairs() []Pair {
	var out []Pair
	for p := range s {
		out = append(out, p)
	}
	return SortPairs(out)
}

func (s pairSetState) elems() []string {
	var out []string
	for p := range s {
		out = append(out, p.Elem)
	}
	return SortedSet(out)
}

// pairSetSpec implements the rewritten OR-Set specification used by the
// checker tests: add(a, id), removeIds(R), readIds(a) ⇒ R, read() ⇒ A.
type pairSetSpec struct{}

func (pairSetSpec) Name() string   { return "Spec(TestORSet)" }
func (pairSetSpec) Init() AbsState { return pairSetState{} }

func (pairSetSpec) StepAppend(dst []AbsState, phi AbsState, l *Label) []AbsState {
	s := phi.(pairSetState)
	switch l.Method {
	case "add":
		p := Pair{Elem: l.Args[0].(string), ID: l.Args[1].(uint64)}
		if s[p] {
			return dst
		}
		n := s.CloneAbs().(pairSetState)
		n[p] = true
		return append(dst, n)
	case "removeIds":
		n := s.CloneAbs().(pairSetState)
		for _, p := range l.Args[0].([]Pair) {
			delete(n, p)
		}
		return append(dst, n)
	case "readIds":
		elem := l.Args[0].(string)
		var want []Pair
		for p := range s {
			if p.Elem == elem {
				want = append(want, p)
			}
		}
		if ValueEqual(SortPairs(want), l.Ret) {
			return append(dst, s)
		}
		return dst
	case "read":
		if ValueEqual(s.elems(), l.Ret) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// pairSetRewriting tags adds with their label identifier and splits removes
// into readIds · removeIds.
var pairSetRewriting = RewriteFunc(func(l *Label) ([]*Label, error) {
	switch l.Method {
	case "add":
		c := l.Clone()
		c.Args = []Value{l.Args[0], l.ID}
		return []*Label{c}, nil
	case "remove":
		q := l.Clone()
		q.Method = "readIds"
		q.Kind = KindQuery
		u := l.Clone()
		u.Method = "removeIds"
		u.Args = []Value{l.Ret}
		u.Ret = nil
		u.Kind = KindUpdate
		return []*Label{q, u}, nil
	default:
		return []*Label{l.Clone()}, nil
	}
})
