// Package compose implements the object compositions of Section 5: the
// unrestricted composition ⊗, in which every object generates timestamps
// independently, and the shared timestamp generator composition ⊗ts, in which
// all objects draw timestamps from one generator. It builds composed
// histories (with the cross-object visibility relation), composed sequential
// specifications (interleavings of the per-object specifications), composed
// query-update rewritings, and helpers for checking whether per-object
// RA-linearizations can be combined into a global one (the Figure 9 and
// Figure 10 experiments).
package compose

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/runtime"
)

// Mode selects the composition operator.
type Mode int

const (
	// Unrestricted is the ⊗ composition of Section 5.1: independent
	// timestamp generators.
	Unrestricted Mode = iota
	// SharedTimestamps is the ⊗ts composition of Section 5.3: one timestamp
	// generator shared by every object.
	SharedTimestamps
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Unrestricted:
		return "⊗"
	case SharedTimestamps:
		return "⊗ts"
	default:
		return "?"
	}
}

// Object names one component of a composition.
type Object struct {
	// Name is the object name recorded on its labels (for example "o1").
	Name string
	// Descriptor is the CRDT type of the object.
	Descriptor crdt.Descriptor
	// Clock optionally overrides the object's timestamp generator in the
	// unrestricted composition (used to reproduce scripted figures). It is
	// ignored under SharedTimestamps.
	Clock clock.Generator
}

// objectRuntime is the per-object deployment.
type objectRuntime struct {
	desc crdt.Descriptor
	op   *runtime.System
	sb   *runtime.SBSystem
}

func (o *objectRuntime) seen(r clock.ReplicaID) map[uint64]bool {
	if o.op != nil {
		return o.op.Seen(r)
	}
	return o.sb.Seen(r)
}

// System is a composed deployment: several CRDT objects replicated over the
// same set of replicas.
type System struct {
	mode     Mode
	replicas int
	order    []string
	objects  map[string]*objectRuntime
	hist     *core.History
	genSeq   uint64
	// visScratch buffers the global seen-set per Invoke (see
	// runtime.AppendSeenDescending).
	visScratch []uint64
}

// NewSystem builds a composed deployment of the given objects over the given
// number of replicas.
func NewSystem(mode Mode, replicas int, objects ...Object) (*System, error) {
	if replicas <= 0 {
		replicas = 2
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("compose: no objects")
	}
	ids := clock.NewIDSource()
	shared := clock.NewCounter()
	s := &System{
		mode:     mode,
		replicas: replicas,
		objects:  make(map[string]*objectRuntime, len(objects)),
		hist:     core.NewHistory(),
	}
	for _, o := range objects {
		if o.Name == "" {
			return nil, fmt.Errorf("compose: object without a name")
		}
		if _, dup := s.objects[o.Name]; dup {
			return nil, fmt.Errorf("compose: duplicate object name %q", o.Name)
		}
		gen := o.Clock
		if mode == SharedTimestamps {
			gen = shared
		} else if gen == nil {
			gen = clock.NewCounter()
		}
		cfg := runtime.Config{Replicas: replicas, Object: o.Name, Clock: gen, IDs: ids}
		rt := &objectRuntime{desc: o.Descriptor}
		switch {
		case o.Descriptor.OpType != nil:
			rt.op = runtime.NewSystem(o.Descriptor.OpType, cfg)
		case o.Descriptor.SBType != nil:
			rt.sb = runtime.NewSBSystem(o.Descriptor.SBType, cfg)
		default:
			return nil, fmt.Errorf("compose: object %q has no implementation", o.Name)
		}
		s.objects[o.Name] = rt
		s.order = append(s.order, o.Name)
	}
	return s, nil
}

// MustNewSystem is NewSystem for scripted scenarios.
func MustNewSystem(mode Mode, replicas int, objects ...Object) *System {
	s, err := NewSystem(mode, replicas, objects...)
	if err != nil {
		panic(err)
	}
	return s
}

// Mode returns the composition mode.
func (s *System) Mode() Mode { return s.mode }

// Objects returns the object names in declaration order.
func (s *System) Objects() []string { return append([]string(nil), s.order...) }

// Replicas returns the replica identifiers.
func (s *System) Replicas() []clock.ReplicaID {
	out := make([]clock.ReplicaID, s.replicas)
	for i := range out {
		out[i] = clock.ReplicaID(i)
	}
	return out
}

// Descriptor returns the descriptor of the named object.
func (s *System) Descriptor(object string) (crdt.Descriptor, error) {
	rt, ok := s.objects[object]
	if !ok {
		return crdt.Descriptor{}, fmt.Errorf("compose: unknown object %q", object)
	}
	return rt.desc, nil
}

// globalSeen returns the identifiers of all operations (of every object) whose
// effect has been applied at replica r.
func (s *System) globalSeen(r clock.ReplicaID) map[uint64]bool {
	out := map[uint64]bool{}
	for _, name := range s.order {
		for id := range s.objects[name].seen(r) {
			out[id] = true
		}
	}
	return out
}

// Invoke performs one operation on the named object at replica r and records
// the cross-object visibility edges of the composed history.
func (s *System) Invoke(object string, r clock.ReplicaID, method string, args ...core.Value) (*core.Label, error) {
	rt, ok := s.objects[object]
	if !ok {
		return nil, fmt.Errorf("compose: unknown object %q", object)
	}
	before := s.globalSeen(r)
	var l *core.Label
	var err error
	if rt.op != nil {
		l, err = rt.op.Invoke(r, method, args...)
	} else {
		l, err = rt.sb.Invoke(r, method, args...)
	}
	if err != nil {
		return nil, err
	}
	s.genSeq++
	g := l.Clone()
	g.GenSeq = s.genSeq
	if err := s.hist.Add(g); err != nil {
		return nil, err
	}
	// Descending identifier order inserts the most recent — most likely
	// vis-maximal — seen operations first, so the history's ancestor
	// index reduces every transitively implied edge to one bit probe (and
	// the recorded direct adjacency is deterministic).
	s.visScratch = runtime.AppendSeenDescending(s.visScratch[:0], before)
	for _, id := range s.visScratch {
		if err := s.hist.AddVis(id, g.ID); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustInvoke is Invoke for scripted scenarios.
func (s *System) MustInvoke(object string, r clock.ReplicaID, method string, args ...core.Value) *core.Label {
	l, err := s.Invoke(object, r, method, args...)
	if err != nil {
		panic(err)
	}
	return l
}

// Deliver delivers the effector of the operation with the given label to
// replica r (operation-based objects) — the label must belong to object.
func (s *System) Deliver(object string, r clock.ReplicaID, id uint64) error {
	rt, ok := s.objects[object]
	if !ok {
		return fmt.Errorf("compose: unknown object %q", object)
	}
	if rt.op == nil {
		return fmt.Errorf("compose: object %q is state-based; use Broadcast", object)
	}
	return rt.op.Deliver(r, id)
}

// Broadcast propagates the state of replica r of the named state-based object
// to every other replica.
func (s *System) Broadcast(object string, r clock.ReplicaID) error {
	rt, ok := s.objects[object]
	if !ok {
		return fmt.Errorf("compose: unknown object %q", object)
	}
	if rt.sb == nil {
		return fmt.Errorf("compose: object %q is operation-based; use Deliver", object)
	}
	return rt.sb.Broadcast(r)
}

// DeliverAll brings every object of the composition to a converged state.
func (s *System) DeliverAll() error {
	for _, name := range s.order {
		rt := s.objects[name]
		if rt.op != nil {
			if err := rt.op.DeliverAll(); err != nil {
				return err
			}
			continue
		}
		if err := rt.sb.DeliverAll(); err != nil {
			return err
		}
	}
	return nil
}

// DeliverRandom performs one random propagation step on a random object.
func (s *System) DeliverRandom(rng *rand.Rand) bool {
	names := append([]string(nil), s.order...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for _, name := range names {
		rt := s.objects[name]
		if rt.op != nil {
			if rt.op.DeliverRandom(rng) {
				return true
			}
			continue
		}
		if rt.sb.ExchangeRandom(rng) {
			return true
		}
	}
	return false
}

// RandomOp performs one random operation on a random object.
func (s *System) RandomOp(rng *rand.Rand, elems []string) (*core.Label, error) {
	name := s.order[rng.Intn(len(s.order))]
	rt := s.objects[name]
	inv := &composedInvoker{sys: s, object: name, rt: rt}
	return rt.desc.RandomOp(rng, inv, elems)
}

// composedInvoker adapts one object of the composition to the crdt.Invoker
// interface so the per-CRDT workload generators can be reused.
type composedInvoker struct {
	sys    *System
	object string
	rt     *objectRuntime
}

func (c *composedInvoker) Replicas() []clock.ReplicaID { return c.sys.Replicas() }

func (c *composedInvoker) ReplicaState(r clock.ReplicaID) runtime.State {
	if c.rt.op != nil {
		return c.rt.op.ReplicaState(r)
	}
	return c.rt.sb.ReplicaState(r)
}

func (c *composedInvoker) Invoke(r clock.ReplicaID, method string, args ...core.Value) (*core.Label, error) {
	return c.sys.Invoke(c.object, r, method, args...)
}

// History returns the composed history: all labels of all objects with the
// global visibility relation.
func (s *System) History() *core.History { return s.hist.Clone() }

// Converged reports whether every object of the composition has converged.
func (s *System) Converged() bool {
	for _, name := range s.order {
		rt := s.objects[name]
		if rt.op != nil {
			if !rt.op.Converged() {
				return false
			}
			continue
		}
		if !rt.sb.Converged() {
			return false
		}
	}
	return true
}

// Spec is the composed sequential specification Spec1 ⊗ Spec2 ⊗ …: a sequence
// is admitted when its projection onto each object's labels is admitted by
// that object's specification (Section 5.1). The abstract state is the tuple
// of per-object abstract states.
type Spec struct {
	names []string
	specs map[string]core.Spec
}

// NewSpec builds the composed specification of the given objects.
func NewSpec(objects ...Object) *Spec {
	s := &Spec{specs: map[string]core.Spec{}}
	for _, o := range objects {
		s.names = append(s.names, o.Name)
		s.specs[o.Name] = o.Descriptor.Spec
	}
	sort.Strings(s.names)
	return s
}

// SpecOf builds the composed specification of an existing composed system.
func SpecOf(sys *System) *Spec {
	s := &Spec{specs: map[string]core.Spec{}}
	for _, name := range sys.Objects() {
		s.names = append(s.names, name)
		s.specs[name] = sys.objects[name].desc.Spec
	}
	sort.Strings(s.names)
	return s
}

// Name identifies the composed specification.
func (s *Spec) Name() string {
	parts := make([]string, len(s.names))
	for i, n := range s.names {
		parts[i] = s.specs[n].Name()
	}
	return strings.Join(parts, " ⊗ ")
}

// ProductState is the composed abstract state: one component per object.
type ProductState map[string]core.AbsState

// CloneAbs deep-copies every component.
func (p ProductState) CloneAbs() core.AbsState {
	c := make(ProductState, len(p))
	for k, v := range p {
		c[k] = v.CloneAbs()
	}
	return c
}

// EqualAbs compares component-wise.
func (p ProductState) EqualAbs(o core.AbsState) bool {
	q, ok := o.(ProductState)
	if !ok || len(p) != len(q) {
		return false
	}
	for k, v := range p {
		w, ok := q[k]
		if !ok || !v.EqualAbs(w) {
			return false
		}
	}
	return true
}

// String renders the components in name order.
func (p ProductState) String() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%s", n, p[n])
	}
	return "⟨" + strings.Join(parts, " ") + "⟩"
}

// StateKey returns the canonical key (component keys in name order), enabling
// search memoization. A composition is keyable only when every component is.
func (p ProductState) StateKey() (string, bool) {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		keyer, ok := p[n].(core.StateKeyer)
		if !ok {
			return "", false
		}
		key, ok := keyer.StateKey()
		if !ok {
			return "", false
		}
		fmt.Fprintf(&b, "%s=%q;", n, key)
	}
	return b.String(), true
}

// Init returns the tuple of initial states.
func (s *Spec) Init() core.AbsState {
	p := ProductState{}
	for name, sub := range s.specs {
		p[name] = sub.Init()
	}
	return p
}

// StepAppend dispatches the label to its object's specification and appends
// the successors of phi under l to dst: the touched component's successors
// are stepped by its own specification directly into dst's tail and then
// wrapped into product states in place, so no intermediate slice is
// allocated per transition.
func (s *Spec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	p, ok := phi.(ProductState)
	if !ok {
		return dst
	}
	sub, ok := s.specs[l.Object]
	if !ok {
		return dst
	}
	base := len(dst)
	dst = sub.StepAppend(dst, p[l.Object], l)
	for i := base; i < len(dst); i++ {
		np := p.CloneAbs().(ProductState)
		np[l.Object] = dst[i]
		dst[i] = np
	}
	return dst
}

// composedRewriting rewrites each label by its own object's rewriting. It is
// a comparable value carrying the system it was built for — *not* a closure —
// so an engine session's history records can match on it without aliasing the
// rewritings of two different composed systems (same function body, different
// per-system object tables).
type composedRewriting struct {
	sys *System
}

// Rewrite implements core.Rewriting.
func (r composedRewriting) Rewrite(l *core.Label) ([]*core.Label, error) {
	var rw core.Rewriting
	if obj, ok := r.sys.objects[l.Object]; ok {
		rw = obj.desc.Rewriting
	}
	if rw == nil {
		rw = core.IdentityRewriting{}
	}
	return rw.Rewrite(l)
}

// RewritingOf is the composed query-update rewriting: each label is rewritten
// by its own object's rewriting.
func RewritingOf(sys *System) core.Rewriting {
	return composedRewriting{sys: sys}
}

// CheckOptions returns checker options for a composed system: the composed
// rewriting, both constructive strategies and a bounded exhaustive fallback.
func CheckOptions(sys *System) core.CheckOptions {
	return core.CheckOptions{
		Rewriting:     RewritingOf(sys),
		Strategies:    []core.Strategy{core.StrategyExecutionOrder, core.StrategyTimestampOrder},
		Exhaustive:    true,
		MaxExtensions: 200000,
	}
}

// CombinePerObject reports whether the given per-object linearizations can be
// combined into a global RA-linearization of the (already rewritten) history
// h: a linear extension of the visibility relation whose projection onto each
// object equals the given sequence and which satisfies Definition 3.5 for the
// composed specification. It is used to reproduce the Figure 9 discussion.
func CombinePerObject(h *core.History, perObject map[string][]*core.Label, spec core.Spec) (ok bool, witness []*core.Label, err error) {
	// Add the per-object orders as extra ordering constraints and enumerate
	// the linear extensions of the augmented relation; each candidate is then
	// validated against the original history.
	augmented := h.Clone()
	for obj, seq := range perObject {
		for i := 0; i+1 < len(seq); i++ {
			from, to := seq[i], seq[i+1]
			if augmented.Label(from.ID) == nil || augmented.Label(to.ID) == nil {
				return false, nil, fmt.Errorf("compose: per-object sequence of %q mentions a label not in the history", obj)
			}
			if augmented.Vis(from.ID, to.ID) {
				continue
			}
			if aerr := augmented.AddVis(from.ID, to.ID); aerr != nil {
				// The per-object order contradicts the visibility relation:
				// no combination exists.
				return false, nil, nil
			}
		}
	}
	found := false
	var lin []*core.Label
	core.LinearExtensions(augmented, 0, func(seq []*core.Label) bool {
		// Map back to the original history's labels.
		orig := make([]*core.Label, len(seq))
		for i, l := range seq {
			orig[i] = h.Label(l.ID)
		}
		if core.IsRALinearization(h, orig, spec) == nil {
			found = true
			lin = orig
			return false
		}
		return true
	})
	return found, lin, nil
}
