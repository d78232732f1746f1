package spec

import (
	"ralin/internal/core"
)

// The three list specifications with an index-based insertion interface
// (addAt) studied in Appendix C. The RGA variant with an addAt interface is
// RA-linearizable with respect to AddAt3 but not with respect to AddAt1 or
// AddAt2 (Lemmas C.1 and C.2); the Figure 14 experiment reproduces this
// separation.

// AddAt1 is Spec(addAt1) of Appendix C.2: a list without tombstones.
//
//	addAt(a, k)  inserts the fresh value a at index k (or at the end when the
//	             list is shorter than k);
//	remove(a)    removes a from the list;
//	read() ⇒ l   returns the list.
type AddAt1 struct{}

// Name returns "Spec(addAt1)".
func (AddAt1) Name() string { return "Spec(addAt1)" }

// Init returns the empty list.
func (AddAt1) Init() core.AbsState { return NewListState() }

// StepAppend appends the successors of phi under l to dst.
func (AddAt1) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ListState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "addAt":
		elem, k, ok := addAtArgs(l)
		if !ok || s.Contains(elem) {
			return dst
		}
		n := s.CloneAbs().(ListState)
		if k > len(n.Elems) {
			k = len(n.Elems)
		}
		n.Elems = insertAt(n.Elems, k, elem)
		return append(dst, n)
	case "remove":
		if len(l.Args) != 1 {
			return dst
		}
		elem, ok := l.Args[0].(string)
		if !ok {
			return dst
		}
		i := s.IndexOf(elem)
		if i < 0 {
			return dst
		}
		n := s.CloneAbs().(ListState)
		n.Elems = append(append([]string{}, n.Elems[:i]...), n.Elems[i+1:]...)
		return append(dst, n)
	case "read":
		if ret, ok := l.Ret.([]string); ok && s.reads(ret) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// AddAt2 is Spec(addAt2) of Appendix C.2: a list with tombstones. The index k
// counts only non-tombstoned elements, which makes insertion nondeterministic
// when tombstoned elements straddle the insertion point.
type AddAt2 struct{}

// Name returns "Spec(addAt2)".
func (AddAt2) Name() string { return "Spec(addAt2)" }

// Init returns the empty list.
func (AddAt2) Init() core.AbsState { return NewListState() }

// StepAppend appends the successors of phi under l to dst.
func (AddAt2) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ListState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "addAt":
		elem, k, ok := addAtArgs(l)
		if !ok || s.Contains(elem) {
			return dst
		}
		visible := visibleCount(s, len(s.Elems))
		if k <= visible {
			// Every split l1·l2 with |l1/T| = k yields a successor.
			for i := 0; i <= len(s.Elems); i++ {
				if visibleCount(s, i) != k {
					continue
				}
				n := s.CloneAbs().(ListState)
				n.Elems = insertAt(n.Elems, i, elem)
				dst = append(dst, n)
			}
			return dst
		}
		// |l/T| < k: the value goes at the end.
		n := s.CloneAbs().(ListState)
		n.Elems = append(append([]string{}, n.Elems...), elem)
		return append(dst, n)
	case "remove":
		if len(l.Args) != 1 {
			return dst
		}
		elem, ok := l.Args[0].(string)
		if !ok || !s.Contains(elem) {
			return dst
		}
		n := s.CloneAbs().(ListState)
		n.Tomb[elem] = true
		return append(dst, n)
	case "read":
		if ret, ok := l.Ret.([]string); ok && s.reads(ret) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// AddAt3 is Spec(addAt3) of Appendix C.5: the addAt and remove methods return
// the "local view" of the list (a subsequence of the global list l), which
// makes the specification constraining enough for RGA-addAt to be
// RA-linearizable with respect to it (Lemma C.2).
type AddAt3 struct{}

// Name returns "Spec(addAt3)".
func (AddAt3) Name() string { return "Spec(addAt3)" }

// Init returns the list holding only the root sentinel ◦, which is never
// removed and never returned.
func (AddAt3) Init() core.AbsState { return NewListState(Root) }

// StepAppend appends the successors of phi under l to dst.
func (AddAt3) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	s, ok := phi.(ListState)
	if !ok {
		return dst
	}
	switch l.Method {
	case "addAt":
		elem, k, ok := addAtArgs(l)
		if !ok || s.Contains(elem) {
			return dst
		}
		ret, ok := l.Ret.([]string)
		if !ok {
			return dst
		}
		// The return value is the inserting replica's local view after the
		// insertion: the fresh element at index min(k, len(view)-1 before
		// insertion), with the rest a subsequence of l.
		pos := indexOf(ret, elem)
		if pos < 0 {
			return dst
		}
		view := append(append([]string{}, ret[:pos]...), ret[pos+1:]...)
		// The element must sit at index k, unless the view was shorter than k
		// in which case it sits at the end.
		if pos != k && pos != len(view) {
			return dst
		}
		if pos > k {
			return dst
		}
		// The local view must be a subsequence of the global list.
		if !isSubsequence(view, s.Elems) {
			return dst
		}
		// b is the element the fresh value is inserted after: the one just
		// before it in the returned view, or the root when it is first.
		after := Root
		if pos > 0 {
			after = ret[pos-1]
		}
		i := s.IndexOf(after)
		if i < 0 {
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
		ret, ok := l.Ret.([]string)
		if !ok {
			return dst
		}
		if indexOf(ret, elem) >= 0 {
			return dst
		}
		if !isSubsequence(ret, s.Elems) {
			return dst
		}
		n := s.CloneAbs().(ListState)
		n.Tomb[elem] = true
		return append(dst, n)
	case "read":
		if ret, ok := l.Ret.([]string); ok && s.reads(ret) {
			return append(dst, s)
		}
		return dst
	default:
		return dst
	}
}

// addAtArgs extracts the (element, index) arguments of an addAt label.
func addAtArgs(l *core.Label) (string, int, bool) {
	if len(l.Args) != 2 {
		return "", 0, false
	}
	elem, okE := l.Args[0].(string)
	k, okK := l.Args[1].(int)
	if !okE || !okK || k < 0 {
		return "", 0, false
	}
	return elem, k, true
}

// insertAt returns a copy of elems with elem inserted at index i.
func insertAt(elems []string, i int, elem string) []string {
	out := make([]string, 0, len(elems)+1)
	out = append(out, elems[:i]...)
	out = append(out, elem)
	out = append(out, elems[i:]...)
	return out
}

// visibleCount returns the number of non-tombstoned, non-sentinel elements in
// the first i positions of the list.
func visibleCount(s ListState, i int) int {
	n := 0
	for j := 0; j < i && j < len(s.Elems); j++ {
		e := s.Elems[j]
		if e == Root || e == Begin || e == End || s.Tomb[e] {
			continue
		}
		n++
	}
	return n
}

// indexOf returns the index of elem in elems, or -1.
func indexOf(elems []string, elem string) int {
	for i, e := range elems {
		if e == elem {
			return i
		}
	}
	return -1
}
