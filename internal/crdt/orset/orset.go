// Package orset implements the operation-based Observed-Remove Set of
// Listing 2: add tags the element with a unique identifier; remove deletes
// only the element-identifier pairs its generator observed; read returns the
// element values. The OR-Set is RA-linearizable with respect to Spec(OR-Set)
// under the query-update rewriting of Example 3.6, using execution-order
// linearizations (Figure 12).
package orset

import (
	"fmt"
	"math/rand"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/runtime"
	"ralin/internal/spec"
)

// State is the payload: the set S of element-identifier pairs.
type State map[core.Pair]bool

// NewState returns an empty OR-Set state.
func NewState() State { return State{} }

// CloneState deep-copies the pair set.
func (s State) CloneState() runtime.State {
	c := make(State, len(s))
	for p := range s {
		c[p] = true
	}
	return c
}

// EqualState reports set equality.
func (s State) EqualState(o runtime.State) bool {
	t, ok := o.(State)
	if !ok || len(s) != len(t) {
		return false
	}
	for p := range s {
		if !t[p] {
			return false
		}
	}
	return true
}

// Pairs returns the sorted element-identifier pairs.
func (s State) Pairs() []core.Pair {
	out := make([]core.Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	return core.SortPairs(out)
}

// Values returns the sorted element values.
func (s State) Values() []string {
	elems := make([]string, 0, len(s))
	for p := range s {
		elems = append(elems, p.Elem)
	}
	return core.SortedSet(elems)
}

// PairsOf returns the sorted pairs whose element is a (the set R observed by
// remove's generator).
func (s State) PairsOf(a string) []core.Pair {
	out := []core.Pair{}
	for p := range s {
		if p.Elem == a {
			out = append(out, p)
		}
	}
	return core.SortPairs(out)
}

// String renders the pair set.
func (s State) String() string {
	parts := make([]string, 0, len(s))
	for _, p := range s.Pairs() {
		parts = append(parts, p.String())
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Type is the operation-based OR-Set CRDT.
type Type struct{}

// Name returns "OR-Set".
func (Type) Name() string { return "OR-Set" }

// Methods lists add (an update that consumes a unique identifier), remove
// (a query-update) and read (a query).
func (Type) Methods() []runtime.MethodInfo {
	return []runtime.MethodInfo{
		{Name: "add", Kind: core.KindUpdate, GeneratesTimestamp: true},
		{Name: "remove", Kind: core.KindQueryUpdate},
		{Name: "read", Kind: core.KindQuery},
	}
}

// Init returns the empty set.
func (Type) Init() runtime.State { return NewState() }

// Generate implements the generators of Listing 2. The fresh timestamp's
// counter value serves as the unique identifier k returned by add.
func (Type) Generate(s runtime.State, method string, args []core.Value, ts clock.Timestamp) (core.Value, runtime.Effector, error) {
	st, ok := s.(State)
	if !ok {
		return nil, nil, fmt.Errorf("orset: unexpected state %T", s)
	}
	switch method {
	case "add":
		if len(args) != 1 {
			return nil, nil, fmt.Errorf("orset: add expects one argument")
		}
		a, ok := args[0].(string)
		if !ok {
			return nil, nil, fmt.Errorf("orset: add expects a string, got %T", args[0])
		}
		k := ts.Time
		pair := core.Pair{Elem: a, ID: k}
		eff := runtime.EffectorFunc{
			Name: fmt.Sprintf("eff-add(%s)", pair),
			F: func(x runtime.State) runtime.State {
				n := x.(State).CloneState().(State)
				n[pair] = true
				return n
			},
		}
		return k, eff, nil
	case "remove":
		if len(args) != 1 {
			return nil, nil, fmt.Errorf("orset: remove expects one argument")
		}
		a, ok := args[0].(string)
		if !ok {
			return nil, nil, fmt.Errorf("orset: remove expects a string, got %T", args[0])
		}
		observed := st.PairsOf(a)
		eff := runtime.EffectorFunc{
			Name: fmt.Sprintf("eff-remove(%s)", core.FormatValue(observed)),
			F: func(x runtime.State) runtime.State {
				n := x.(State).CloneState().(State)
				for _, p := range observed {
					delete(n, p)
				}
				return n
			},
		}
		return observed, eff, nil
	case "read":
		return st.Values(), nil, nil
	default:
		return nil, nil, fmt.Errorf("orset: unknown method %q", method)
	}
}

// Abs is the refinement mapping: the pair set itself, read as a specification
// state (Example 4.3 uses the identity mapping).
func Abs(s runtime.State) core.AbsState {
	st := s.(State)
	out := spec.ORSetState{}
	for p := range st {
		out[p] = true
	}
	return out
}

// rewriting is the query-update rewriting γ of Example 3.6. It is a named
// zero-size (comparable) type rather than a RewriteFunc closure so engine
// sessions can reuse a history's rewriting by its value
// (core.RewritingIdentity).
type rewriting struct{}

// Rewrite implements core.Rewriting:
//
//	add(a) ⇒ k      becomes  add(a, k)
//	remove(a) ⇒ R   becomes  readIds(a) ⇒ R · removeIds(R)
//	read() ⇒ A      stays    read() ⇒ A
func (rewriting) Rewrite(l *core.Label) ([]*core.Label, error) {
	switch l.Method {
	case "add":
		id, ok := l.Ret.(uint64)
		if !ok {
			return nil, fmt.Errorf("orset: add label %v has no identifier return", l)
		}
		c := l.Clone()
		c.Args = []core.Value{l.Args[0], id}
		c.Ret = nil
		return []*core.Label{c}, nil
	case "remove":
		observed, ok := l.Ret.([]core.Pair)
		if !ok {
			return nil, fmt.Errorf("orset: remove label %v has no observed-pairs return", l)
		}
		q := l.Clone()
		q.Method = "readIds"
		q.Kind = core.KindQuery
		q.TS = clock.Bottom
		u := l.Clone()
		u.Method = "removeIds"
		u.Args = []core.Value{observed}
		u.Ret = nil
		u.Kind = core.KindUpdate
		return []*core.Label{q, u}, nil
	default:
		return []*core.Label{l.Clone()}, nil
	}
}

// Rewriting returns the query-update rewriting γ of Example 3.6.
func Rewriting() core.Rewriting {
	return rewriting{}
}

// RandomOp performs one random OR-Set operation.
func RandomOp(rng *rand.Rand, sys crdt.Invoker, elems []string) (*core.Label, error) {
	r := crdt.PickReplica(rng, sys)
	switch rng.Intn(4) {
	case 0, 1:
		return sys.Invoke(r, "add", crdt.PickElem(rng, elems))
	case 2:
		return sys.Invoke(r, "remove", crdt.PickElem(rng, elems))
	default:
		return sys.Invoke(r, "read")
	}
}

// Descriptor describes the OR-Set for the harnesses.
func Descriptor() crdt.Descriptor {
	return crdt.Descriptor{
		Name:      "OR-Set",
		Source:    "Shapiro et al. 2011",
		Class:     crdt.OpBased,
		Lin:       crdt.ExecutionOrder,
		InFig12:   true,
		OpType:    Type{},
		Spec:      spec.ORSet{},
		Rewriting: Rewriting(),
		Abs:       Abs,
		RandomOp:  RandomOp,
	}
}

// NaiveSetHistory reinterprets an OR-Set history over the plain Set
// specification, as in Figure 5a: removes become ordinary updates and the
// unique identifiers are dropped. Concurrent add/remove races that the OR-Set
// resolves by identifier become unexplainable, so a check against Spec(Set)
// refutes exactly on the anomalies a split-brain schedule provokes.
func NaiveSetHistory(h *core.History) *core.History {
	naive := h.Clone()
	for _, l := range naive.Labels() {
		switch l.Method {
		case "add":
			l.Ret = nil
		case "remove":
			l.Kind = core.KindUpdate
			l.Ret = nil
		}
	}
	return naive
}
