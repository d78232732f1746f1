package spec

import (
	"sort"
	"strings"

	"ralin/internal/core"
)

// Sentinel elements of the list specifications.
const (
	// Root is the pre-existing element ◦ of RGA (Listing 1) and of the addAt
	// specifications.
	Root = "◦"
	// Begin is the ◦begin sentinel of Wooki.
	Begin = "◦begin"
	// End is the ◦end sentinel of Wooki.
	End = "◦end"
)

// ListState is the abstract state (l, T) shared by the list specifications:
// the sequence l of every value ever inserted (including sentinels and
// removed values) and the tombstone set T of removed values.
type ListState struct {
	// Elems is the full list l, sentinels included.
	Elems []string
	// Tomb is the tombstone set T.
	Tomb map[string]bool
}

// NewListState returns a list state holding the given sentinel elements.
func NewListState(sentinels ...string) ListState {
	return ListState{Elems: append([]string(nil), sentinels...), Tomb: map[string]bool{}}
}

// CloneAbs deep-copies the state.
func (s ListState) CloneAbs() core.AbsState {
	c := ListState{Elems: append([]string(nil), s.Elems...), Tomb: make(map[string]bool, len(s.Tomb))}
	for k := range s.Tomb {
		c.Tomb[k] = true
	}
	return c
}

// EqualAbs reports equality of the list and the tombstone set.
func (s ListState) EqualAbs(o core.AbsState) bool {
	t, ok := o.(ListState)
	if !ok || len(s.Elems) != len(t.Elems) || len(s.Tomb) != len(t.Tomb) {
		return false
	}
	for i := range s.Elems {
		if s.Elems[i] != t.Elems[i] {
			return false
		}
	}
	for k := range s.Tomb {
		if !t.Tomb[k] {
			return false
		}
	}
	return true
}

// String renders the list with tombstoned elements struck through in
// brackets.
func (s ListState) String() string {
	parts := make([]string, 0, len(s.Elems))
	for _, e := range s.Elems {
		if s.Tomb[e] {
			parts = append(parts, "("+e+")")
			continue
		}
		parts = append(parts, e)
	}
	return strings.Join(parts, "·")
}

// StateKey returns the canonical key (the quoted element sequence plus the
// sorted tombstone set), enabling search memoization.
func (s ListState) StateKey() (string, bool) {
	tombs := make([]string, 0, len(s.Tomb))
	for e := range s.Tomb {
		tombs = append(tombs, e)
	}
	sort.Strings(tombs)
	return quoteJoin(s.Elems) + "|T:" + quoteJoin(tombs), true
}

// Contains reports whether the element occurs in l.
func (s ListState) Contains(elem string) bool {
	return s.IndexOf(elem) >= 0
}

// IndexOf returns the index of elem in l, or -1.
func (s ListState) IndexOf(elem string) int {
	for i, e := range s.Elems {
		if e == elem {
			return i
		}
	}
	return -1
}

// Visible returns l/T without sentinels: the value a read must return.
func (s ListState) Visible() []string {
	out := []string{}
	for _, e := range s.Elems {
		if e == Root || e == Begin || e == End || s.Tomb[e] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// insertAfter returns a copy of the list with elem placed immediately after
// position i.
func insertAfter(elems []string, i int, elem string) []string {
	out := make([]string, 0, len(elems)+1)
	out = append(out, elems[:i+1]...)
	out = append(out, elem)
	out = append(out, elems[i+1:]...)
	return out
}

// isSubsequence reports whether sub is a (not necessarily contiguous)
// subsequence of full.
func isSubsequence(sub, full []string) bool {
	j := 0
	for _, e := range full {
		if j < len(sub) && sub[j] == e {
			j++
		}
	}
	return j == len(sub)
}

// RGA is Spec(RGA) of Example 3.3: a list with an add-after interface.
//
//	addAfter(a, b)  inserts the fresh value b immediately after a;
//	remove(b)       tombstones b (b must be present and not ◦);
//	read() ⇒ l/T    returns the list contents without tombstones.
type RGA struct{}

// Name returns "Spec(RGA)".
func (RGA) Name() string { return "Spec(RGA)" }

// Init returns the list holding only the root element ◦.
func (RGA) Init() core.AbsState { return NewListState(Root) }

// StepAppend appends the successors of phi under l to dst.
func (RGA) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ListState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "addAfter":
		if len(l.Args) != 2 {
			return dst
		}
		after, okA := l.Args[0].(string)
		elem, okB := l.Args[1].(string)
		if !okA || !okB {
			return dst
		}
		i := s.IndexOf(after)
		if i < 0 || s.Contains(elem) {
			return dst
		}
		n := s.CloneAbs().(ListState)
		n.Elems = insertAfter(n.Elems, i, elem)
		return append(dst, n)
	case "remove":
		if len(l.Args) != 1 {
			return dst
		}
		elem, ok := l.Args[0].(string)
		if !ok || elem == Root || !s.Contains(elem) {
			return dst
		}
		n := s.CloneAbs().(ListState)
		n.Tomb[elem] = true
		return append(dst, n)
	case "read":
		ret, ok := l.Ret.([]string)
		if ok && core.ValueEqual(ret, s.Visible()) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// Wooki is Spec(Wooki) of Appendix B.3: a list with an add-between interface.
// addBetween(a, b, c) inserts the fresh value b at a nondeterministically
// chosen position strictly between a and c; remove(a) tombstones a;
// read() ⇒ l/T returns the contents. The nondeterminism of the specification
// is resolved deterministically by the implementation (Section 3.2).
type Wooki struct{}

// Name returns "Spec(Wooki)".
func (Wooki) Name() string { return "Spec(Wooki)" }

// Init returns the list holding the two sentinels.
func (Wooki) Init() core.AbsState { return NewListState(Begin, End) }

// StepAppend appends the successors of phi under l to dst.
func (Wooki) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ListState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "addBetween":
		if len(l.Args) != 3 {
			return dst
		}
		a, okA := l.Args[0].(string)
		b, okB := l.Args[1].(string)
		c, okC := l.Args[2].(string)
		if !okA || !okB || !okC {
			return dst
		}
		if a == End || c == Begin || b == Begin || b == End || s.Contains(b) {
			return dst
		}
		ia, ic := s.IndexOf(a), s.IndexOf(c)
		if ia < 0 || ic < 0 || ia >= ic {
			return dst
		}
		// One successor per insertion point strictly between a and c.
		for i := ia; i < ic; i++ {
			n := s.CloneAbs().(ListState)
			n.Elems = insertAfter(n.Elems, i, b)
			dst = append(dst, n)
		}
		return dst
	case "remove":
		if len(l.Args) != 1 {
			return dst
		}
		elem, ok := l.Args[0].(string)
		if !ok || elem == Begin || elem == End || !s.Contains(elem) {
			return dst
		}
		n := s.CloneAbs().(ListState)
		n.Tomb[elem] = true
		return append(dst, n)
	case "read":
		ret, ok := l.Ret.([]string)
		if ok && core.ValueEqual(ret, s.Visible()) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}
