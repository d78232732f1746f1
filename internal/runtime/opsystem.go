package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// Config configures a simulated object deployment.
type Config struct {
	// Replicas is the number of replicas (identified 0..Replicas-1).
	Replicas int
	// Object is the object name recorded on labels (may be empty for
	// single-object histories).
	Object string
	// Clock is the timestamp generator; nil means a fresh private counter
	// (the unrestricted composition ⊗). Sharing one generator across several
	// systems implements the shared timestamp generator composition ⊗ts.
	Clock clock.Generator
	// RecordEvents enables the event log consumed by the verification
	// harness. Figure reproduction and benchmarks leave it off.
	RecordEvents bool
	// IDs is the label-identifier source; nil means a fresh private source.
	// Sharing one source across systems keeps identifiers unique in composed
	// histories.
	IDs *clock.IDSource
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Clock == nil {
		c.Clock = clock.NewCounter()
	}
	if c.IDs == nil {
		c.IDs = clock.NewIDSource()
	}
}

// opReplica is the local configuration (L, σ) of one replica.
type opReplica struct {
	state State
	seen  map[uint64]bool
}

// System simulates an operation-based CRDT object following the semantics of
// Figure 7: operations execute their generator (and effector) at the origin
// replica, and effectors are delivered to the other replicas under causal
// delivery.
type System struct {
	typ       OpType
	cfg       Config
	methods   map[string]MethodInfo
	replicas  map[clock.ReplicaID]*opReplica
	hist      *core.History
	effectors map[uint64]Effector
	genSeq    uint64
	events    []Event
	// visScratch buffers the seen-set of the invoking replica so the
	// visibility edges of each new label are inserted in descending
	// identifier order: the maximal seen operations go in first and the
	// history's ancestor index reduces every edge they imply to a single
	// bit probe (AddVis skips transitively implied edges). Sorting also makes
	// the recorded direct adjacency deterministic where map iteration order
	// is not.
	visScratch []uint64
}

// NewSystem creates a simulated deployment of the given operation-based CRDT.
func NewSystem(typ OpType, cfg Config) *System {
	cfg.fill()
	s := &System{
		typ:       typ,
		cfg:       cfg,
		methods:   MethodTable(typ.Methods()),
		replicas:  make(map[clock.ReplicaID]*opReplica, cfg.Replicas),
		hist:      core.NewHistory(),
		effectors: make(map[uint64]Effector),
	}
	for i := 0; i < cfg.Replicas; i++ {
		s.replicas[clock.ReplicaID(i)] = &opReplica{state: typ.Init(), seen: make(map[uint64]bool)}
	}
	return s
}

// Type returns the simulated CRDT type.
func (s *System) Type() OpType { return s.typ }

// Replicas returns the replica identifiers in increasing order.
func (s *System) Replicas() []clock.ReplicaID {
	out := make([]clock.ReplicaID, 0, len(s.replicas))
	for r := range s.replicas {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Invoke executes method with the given arguments at replica r: the OPERATION
// rule of Figure 7. It returns the operation label (already part of the
// history) or an error when the replica is unknown, the method is unknown, or
// the generator's precondition fails.
func (s *System) Invoke(r clock.ReplicaID, method string, args ...core.Value) (*core.Label, error) {
	rep, ok := s.replicas[r]
	if !ok {
		return nil, fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	info, ok := s.methods[method]
	if !ok {
		return nil, fmt.Errorf("%s: unknown method %q", s.typ.Name(), method)
	}
	ts := clock.Bottom
	if info.GeneratesTimestamp {
		ts = s.cfg.Clock.Next(r)
	}
	ret, eff, err := s.typ.Generate(rep.state, method, args, ts)
	if err != nil {
		return nil, fmt.Errorf("%s.%s at %s: %w", s.typ.Name(), method, r, err)
	}
	if info.Kind != core.KindQuery && eff == nil {
		return nil, fmt.Errorf("%s.%s: non-query method produced no effector", s.typ.Name(), method)
	}
	s.genSeq++
	l := &core.Label{
		ID:     s.cfg.IDs.Next(),
		Object: s.cfg.Object,
		Method: method,
		Args:   append([]core.Value(nil), args...),
		Ret:    ret,
		TS:     ts,
		Kind:   info.Kind,
		Origin: r,
		GenSeq: s.genSeq,
	}
	if err := s.hist.Add(l); err != nil {
		return nil, err
	}
	s.visScratch = AppendSeenDescending(s.visScratch[:0], rep.seen)
	for _, id := range s.visScratch {
		if err := s.hist.AddVis(id, l.ID); err != nil {
			return nil, err
		}
	}
	pre := rep.state
	if eff != nil {
		s.effectors[l.ID] = eff
		rep.state = eff.Apply(rep.state)
	}
	rep.seen[l.ID] = true
	if s.cfg.RecordEvents {
		s.events = append(s.events, Event{
			Kind:     EventGenerator,
			Replica:  r,
			Label:    l,
			Pre:      pre.CloneState(),
			Post:     rep.state.CloneState(),
			GenState: pre.CloneState(),
		})
	}
	return l, nil
}

// AppendSeenDescending appends the identifiers of seen to dst in descending
// order. Identifiers increase monotonically with generation, so descending
// order visits the latest — most likely vis-maximal — seen operations first:
// once their edges are in, History.AddVis disposes of every edge they imply
// with a single ancestor-row bit probe. Allocation-free given capacity in
// dst; shared with the composed-system runtime, which inserts seen-set
// edges the same way.
func AppendSeenDescending(dst []uint64, seen map[uint64]bool) []uint64 {
	for id := range seen {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	slices.Reverse(dst)
	return dst
}

// MustInvoke is Invoke for scripted scenarios where a precondition failure is
// a programming error.
func (s *System) MustInvoke(r clock.ReplicaID, method string, args ...core.Value) *core.Label {
	l, err := s.Invoke(r, method, args...)
	if err != nil {
		panic(err)
	}
	return l
}

// Pending returns the labels whose effectors have not yet been applied at
// replica r, in generation order. Queries have identity effectors and are
// never pending.
func (s *System) Pending(r clock.ReplicaID) []*core.Label {
	rep := s.replicas[r]
	if rep == nil {
		return nil
	}
	var out []*core.Label
	for _, l := range s.hist.Labels() {
		if l.IsQuery() || rep.seen[l.ID] {
			continue
		}
		out = append(out, l)
	}
	return out
}

// Deliverable reports whether the effector of label id can be delivered at
// replica r right now under causal delivery: it has not been applied yet and
// every non-query operation visible to it has already been applied at r.
func (s *System) Deliverable(r clock.ReplicaID, id uint64) bool {
	rep := s.replicas[r]
	l := s.hist.Label(id)
	if rep == nil || l == nil || l.IsQuery() || rep.seen[id] {
		return false
	}
	for _, p := range s.hist.VisibleTo(l) {
		if p.IsQuery() {
			continue
		}
		if !rep.seen[p.ID] {
			return false
		}
	}
	return true
}

// Deliver applies the effector of the operation with the given label
// identifier at replica r: the EFFECTOR rule of Figure 7. It fails when the
// delivery would violate causal delivery or the effector was already applied.
func (s *System) Deliver(r clock.ReplicaID, id uint64) error {
	rep, ok := s.replicas[r]
	if !ok {
		return fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	l := s.hist.Label(id)
	if l == nil {
		return fmt.Errorf("%s: unknown label %d", s.typ.Name(), id)
	}
	if l.IsQuery() {
		return fmt.Errorf("%s: label %v is a query and has no effector to deliver", s.typ.Name(), l)
	}
	if rep.seen[id] {
		return fmt.Errorf("%s: effector of %v already applied at %s", s.typ.Name(), l, r)
	}
	if !s.Deliverable(r, id) {
		return fmt.Errorf("%s: delivering %v at %s violates causal delivery", s.typ.Name(), l, r)
	}
	eff := s.effectors[id]
	pre := rep.state
	rep.state = eff.Apply(rep.state)
	rep.seen[id] = true
	if s.cfg.RecordEvents {
		s.events = append(s.events, Event{
			Kind:    EventEffector,
			Replica: r,
			Label:   l,
			Pre:     pre.CloneState(),
			Post:    rep.state.CloneState(),
		})
	}
	return nil
}

// DeliverAllTo delivers every pending effector to replica r in a causal
// order.
func (s *System) DeliverAllTo(r clock.ReplicaID) error {
	for {
		progressed := false
		for _, l := range s.Pending(r) {
			if s.Deliverable(r, l.ID) {
				if err := s.Deliver(r, l.ID); err != nil {
					return err
				}
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if rest := s.Pending(r); len(rest) > 0 {
		return fmt.Errorf("%s: %d effectors remain undeliverable at %s", s.typ.Name(), len(rest), r)
	}
	return nil
}

// DeliverAll delivers every pending effector to every replica.
func (s *System) DeliverAll() error {
	for _, r := range s.Replicas() {
		if err := s.DeliverAllTo(r); err != nil {
			return err
		}
	}
	return nil
}

// DeliverRandom delivers one randomly chosen deliverable effector to a
// randomly chosen replica, if any. It reports whether a delivery happened.
func (s *System) DeliverRandom(rng *rand.Rand) bool {
	type choice struct {
		r  clock.ReplicaID
		id uint64
	}
	var choices []choice
	for _, r := range s.Replicas() {
		for _, l := range s.Pending(r) {
			if s.Deliverable(r, l.ID) {
				choices = append(choices, choice{r: r, id: l.ID})
			}
		}
	}
	if len(choices) == 0 {
		return false
	}
	c := choices[rng.Intn(len(choices))]
	if err := s.Deliver(c.r, c.id); err != nil {
		panic(err) // Deliverable was just checked; this is a bug.
	}
	return true
}

// ReplicaState returns a copy of the current state of replica r.
func (s *System) ReplicaState(r clock.ReplicaID) State {
	rep := s.replicas[r]
	if rep == nil {
		return nil
	}
	return rep.state.CloneState()
}

// Seen returns the identifiers of the operations applied (or originated) at
// replica r — the L component of its local configuration.
func (s *System) Seen(r clock.ReplicaID) map[uint64]bool {
	rep := s.replicas[r]
	if rep == nil {
		return nil
	}
	out := make(map[uint64]bool, len(rep.seen))
	for id := range rep.seen {
		out[id] = true
	}
	return out
}

// History returns a copy of the history (L, vis) of the execution so far.
func (s *System) History() *core.History { return s.hist.Clone() }

// EffectorOf returns the effector produced by the operation with the given
// label identifier (nil for queries).
func (s *System) EffectorOf(id uint64) Effector { return s.effectors[id] }

// Events returns the recorded execution events (empty unless RecordEvents was
// set).
func (s *System) Events() []Event { return append([]Event(nil), s.events...) }

// Converged reports whether all replicas have applied all effectors and hold
// equal states — the convergence property of CRDTs after a quiescent period.
func (s *System) Converged() bool {
	var first State
	for _, r := range s.Replicas() {
		if len(s.Pending(r)) > 0 {
			return false
		}
		st := s.replicas[r].state
		if first == nil {
			first = st
			continue
		}
		if !first.EqualState(st) {
			return false
		}
	}
	return true
}
