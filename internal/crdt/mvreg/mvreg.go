// Package mvreg implements the state-based Multi-Value Register of Listing 7
// (Appendix E.1): every write is tagged with a version vector; a replica
// keeps the set of writes with pairwise-incomparable vectors, so concurrent
// writes survive side by side until a later write dominates them. The
// MV-Register is RA-linearizable with respect to Spec(MV-Reg) using
// execution-order linearizations (Figure 12); its local effectors fall in the
// "uniquely-identified" class of Appendix D.3.
package mvreg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/runtime"
	"ralin/internal/spec"
)

// Entry is one (value, version vector) pair held by the register.
type Entry struct {
	Elem string
	VV   clock.VersionVector
}

// State is the payload: the set S of entries.
type State []Entry

// NewState returns the empty register.
func NewState() State { return State{} }

// CloneState deep-copies the entries.
func (s State) CloneState() runtime.State {
	c := make(State, len(s))
	for i, e := range s {
		c[i] = Entry{Elem: e.Elem, VV: e.VV.Copy()}
	}
	return c
}

// EqualState reports set equality of the entries.
func (s State) EqualState(o runtime.State) bool {
	t, ok := o.(State)
	if !ok || len(s) != len(t) {
		return false
	}
	for _, e := range s {
		if !t.contains(e) {
			return false
		}
	}
	return true
}

func (s State) contains(e Entry) bool {
	for _, f := range s {
		if f.Elem == e.Elem && f.VV.Equal(e.VV) {
			return true
		}
	}
	return false
}

// Values returns the sorted set of held values.
func (s State) Values() []string {
	elems := make([]string, 0, len(s))
	for _, e := range s {
		elems = append(elems, e.Elem)
	}
	return core.SortedSet(elems)
}

// String renders the entries sorted by value.
func (s State) String() string {
	parts := make([]string, 0, len(s))
	for _, e := range s {
		parts = append(parts, fmt.Sprintf("%s%s", e.Elem, e.VV))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// Type is the state-based Multi-Value Register CRDT.
type Type struct{}

// Name returns "MV-Register".
func (Type) Name() string { return "MV-Register" }

// Methods lists write and read. write returns the version vector it
// generated; the query-update rewriting moves it into the arguments.
func (Type) Methods() []runtime.MethodInfo {
	return []runtime.MethodInfo{
		{Name: "write", Kind: core.KindUpdate},
		{Name: "read", Kind: core.KindQuery},
	}
}

// Init returns the empty register.
func (Type) Init() runtime.State { return NewState() }

// Apply implements the local methods of Listing 7.
func (Type) Apply(s runtime.State, method string, args []core.Value, ts clock.Timestamp, r clock.ReplicaID) (core.Value, runtime.State, error) {
	st, ok := s.(State)
	if !ok {
		return nil, nil, fmt.Errorf("mvreg: unexpected state %T", s)
	}
	switch method {
	case "write":
		if len(args) != 1 {
			return nil, nil, fmt.Errorf("mvreg: write expects one argument")
		}
		v, ok := args[0].(string)
		if !ok {
			return nil, nil, fmt.Errorf("mvreg: write expects a string, got %T", args[0])
		}
		vv := writeVector(st, r)
		return vv, State{{Elem: v, VV: vv}}, nil
	case "read":
		return st.Values(), st, nil
	default:
		return nil, nil, fmt.Errorf("mvreg: unknown method %q", method)
	}
}

// writeVector computes the version vector of a write originating at replica
// r: the component-wise maximum of all vectors in the state, with r's
// component incremented.
func writeVector(st State, r clock.ReplicaID) clock.VersionVector {
	vv := clock.NewVersionVector()
	for _, e := range st {
		vv = vv.Merge(e.VV)
	}
	vv.Increment(r)
	return vv
}

// Merge keeps, from both sides, the entries that are not strictly dominated
// by an entry of the other side (Listing 7).
func (Type) Merge(a, b runtime.State) runtime.State {
	x, y := a.(State), b.(State)
	out := State{}
	keep := func(e Entry, other State) bool {
		for _, f := range other {
			if e.VV.Less(f.VV) {
				return false
			}
		}
		return true
	}
	for _, e := range x {
		if keep(e, y) && !out.contains(e) {
			out = append(out, Entry{Elem: e.Elem, VV: e.VV.Copy()})
		}
	}
	for _, e := range y {
		if keep(e, x) && !out.contains(e) {
			out = append(out, Entry{Elem: e.Elem, VV: e.VV.Copy()})
		}
	}
	return out
}

// Leq is the compare method of Listing 7: every entry of a is dominated by
// (or equal to) some entry of b.
func (Type) Leq(a, b runtime.State) bool {
	x, y := a.(State), b.(State)
	for _, e := range x {
		ok := false
		for _, f := range y {
			if e.VV.Leq(f.VV) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Abs is the refinement mapping: the entries read as a specification state.
func Abs(s runtime.State) core.AbsState {
	st := s.(State)
	out := make(spec.MVRegState, 0, len(st))
	for _, e := range st {
		out = append(out, spec.MVPair{Elem: e.Elem, VV: e.VV.Copy()})
	}
	return out
}

// rewriting moves the version vector returned by write into its arguments
// (Appendix E.1: write(a) becomes write(a, V')). A named zero-size
// (comparable) type rather than a RewriteFunc closure, so engine sessions can
// reuse a history's rewriting by its value.
type rewriting struct{}

// Rewrite implements core.Rewriting.
func (rewriting) Rewrite(l *core.Label) ([]*core.Label, error) {
	if l.Method != "write" {
		return []*core.Label{l.Clone()}, nil
	}
	vv, ok := l.Ret.(clock.VersionVector)
	if !ok {
		return nil, fmt.Errorf("mvreg: write label %v has no version-vector return", l)
	}
	c := l.Clone()
	c.Args = []core.Value{l.Args[0], vv}
	c.Ret = nil
	return []*core.Label{c}, nil
}

// Rewriting returns the Appendix E.1 query-update rewriting.
func Rewriting() core.Rewriting {
	return rewriting{}
}

// LocalApply is the Appendix E.1 local effector: add the written entry and
// drop every strictly dominated entry.
func LocalApply(s runtime.State, l *core.Label) runtime.State {
	st := s.(State)
	vv, ok := l.Ret.(clock.VersionVector)
	if !ok {
		return st.CloneState()
	}
	elem, _ := l.Args[0].(string)
	out := State{}
	for _, e := range st {
		if e.VV.Less(vv) {
			continue
		}
		out = append(out, Entry{Elem: e.Elem, VV: e.VV.Copy()})
	}
	written := Entry{Elem: elem, VV: vv.Copy()}
	if !out.contains(written) {
		out = append(out, written)
	}
	return out
}

// ArgEqual: local-effector arguments coincide when value and vector coincide.
func ArgEqual(a, b *core.Label) bool {
	va, okA := a.Ret.(clock.VersionVector)
	vb, okB := b.Ret.(clock.VersionVector)
	if !okA || !okB {
		return false
	}
	return a.Args[0] == b.Args[0] && va.Equal(vb)
}

// ArgLess is the strict order on local-effector arguments: version-vector
// domination.
func ArgLess(a, b *core.Label) bool {
	va, okA := a.Ret.(clock.VersionVector)
	vb, okB := b.Ret.(clock.VersionVector)
	if !okA || !okB {
		return false
	}
	return va.Less(vb)
}

// Fresh is the P1 predicate of Appendix E.1: the write's vector is not
// dominated by any vector already in the state.
func Fresh(s runtime.State, l *core.Label) bool {
	vv, ok := l.Ret.(clock.VersionVector)
	if !ok {
		return true
	}
	for _, e := range s.(State) {
		if vv.Less(e.VV) {
			return false
		}
	}
	return true
}

// RandomOp performs one random register operation.
func RandomOp(rng *rand.Rand, sys crdt.Invoker, elems []string) (*core.Label, error) {
	r := crdt.PickReplica(rng, sys)
	if rng.Intn(2) == 0 {
		return sys.Invoke(r, "write", crdt.PickElem(rng, elems))
	}
	return sys.Invoke(r, "read")
}

// Descriptor describes the MV-Register for the harnesses.
func Descriptor() crdt.Descriptor {
	return crdt.Descriptor{
		Name:      "Multi-Value Reg.",
		Source:    "DeCandia et al. 2007",
		Class:     crdt.StateBased,
		Lin:       crdt.ExecutionOrder,
		InFig12:   true,
		SBType:    Type{},
		Spec:      spec.MVRegister{},
		Rewriting: Rewriting(),
		Abs:       Abs,
		RandomOp:  RandomOp,
		SB: &crdt.SBProofs{
			EffClass:   crdt.UniquelyIdentified,
			LocalApply: LocalApply,
			ArgEqual:   ArgEqual,
			ArgLess:    ArgLess,
			Fresh:      Fresh,
		},
	}
}
