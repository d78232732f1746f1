package runtime

import (
	"fmt"
	"math/rand"
	"sort"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// Message is a state-carrying message of a state-based CRDT: the local
// configuration (L, σ) of the sending replica at the time of sending
// (Appendix D). Messages may be delivered to any replica, any number of
// times, in any order, or not at all.
type Message struct {
	// ID identifies the message.
	ID uint64
	// From is the sending replica.
	From clock.ReplicaID
	// Labels are the identifiers of the operations the sender had seen.
	Labels map[uint64]bool
	// State is a snapshot of the sender's state.
	State State
}

// SBSystem simulates a state-based CRDT object following the semantics of
// Appendix D: methods execute locally, replicas exchange state snapshots, and
// received snapshots are merged with the local state.
type SBSystem struct {
	typ      SBType
	cfg      Config
	methods  map[string]MethodInfo
	replicas map[clock.ReplicaID]*opReplica
	hist     *core.History
	messages map[uint64]*Message
	genSeq   uint64
	nextMsg  uint64
	events   []Event
	// visScratch plays the same role as System.visScratch: seen-set edges are
	// inserted in descending identifier order so the ancestor index skips
	// the implied ones with one bit probe each.
	visScratch []uint64
}

// NewSBSystem creates a simulated deployment of the given state-based CRDT.
func NewSBSystem(typ SBType, cfg Config) *SBSystem {
	cfg.fill()
	s := &SBSystem{
		typ:      typ,
		cfg:      cfg,
		methods:  MethodTable(typ.Methods()),
		replicas: make(map[clock.ReplicaID]*opReplica, cfg.Replicas),
		hist:     core.NewHistory(),
		messages: make(map[uint64]*Message),
	}
	for i := 0; i < cfg.Replicas; i++ {
		s.replicas[clock.ReplicaID(i)] = &opReplica{state: typ.Init(), seen: make(map[uint64]bool)}
	}
	return s
}

// Type returns the simulated CRDT type.
func (s *SBSystem) Type() SBType { return s.typ }

// Replicas returns the replica identifiers in increasing order.
func (s *SBSystem) Replicas() []clock.ReplicaID {
	out := make([]clock.ReplicaID, 0, len(s.replicas))
	for r := range s.replicas {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Invoke executes method with the given arguments at replica r: the OPERATION
// rule of the state-based semantics.
func (s *SBSystem) Invoke(r clock.ReplicaID, method string, args ...core.Value) (*core.Label, error) {
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
	ret, next, err := s.typ.Apply(rep.state, method, args, ts, r)
	if err != nil {
		return nil, fmt.Errorf("%s.%s at %s: %w", s.typ.Name(), method, r, err)
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
	rep.state = next
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

// MustInvoke is Invoke for scripted scenarios.
func (s *SBSystem) MustInvoke(r clock.ReplicaID, method string, args ...core.Value) *core.Label {
	l, err := s.Invoke(r, method, args...)
	if err != nil {
		panic(err)
	}
	return l
}

// Send snapshots the local configuration of replica r into a new message
// (the GENERATE rule). The message stays available for delivery any number of
// times.
func (s *SBSystem) Send(r clock.ReplicaID) (*Message, error) {
	rep, ok := s.replicas[r]
	if !ok {
		return nil, fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	s.nextMsg++
	labels := make(map[uint64]bool, len(rep.seen))
	for id := range rep.seen {
		labels[id] = true
	}
	m := &Message{ID: s.nextMsg, From: r, Labels: labels, State: rep.state.CloneState()}
	s.messages[m.ID] = m
	return m, nil
}

// Receive merges the message with the given identifier into replica r (the
// APPLY rule). Receiving the same message several times is allowed; the merge
// must be idempotent.
func (s *SBSystem) Receive(r clock.ReplicaID, msgID uint64) error {
	rep, ok := s.replicas[r]
	if !ok {
		return fmt.Errorf("%s: unknown replica %s", s.typ.Name(), r)
	}
	m, ok := s.messages[msgID]
	if !ok {
		return fmt.Errorf("%s: unknown message %d", s.typ.Name(), msgID)
	}
	pre := rep.state
	rep.state = s.typ.Merge(rep.state, m.State.CloneState())
	for id := range m.Labels {
		rep.seen[id] = true
	}
	if s.cfg.RecordEvents {
		s.events = append(s.events, Event{
			Kind:     EventMerge,
			Replica:  r,
			Pre:      pre.CloneState(),
			Post:     rep.state.CloneState(),
			Incoming: m.State.CloneState(),
		})
	}
	return nil
}

// Messages returns the identifiers of all messages sent so far, in sending
// order.
func (s *SBSystem) Messages() []uint64 {
	out := make([]uint64, 0, len(s.messages))
	for id := range s.messages {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Message returns the message with the given identifier, or nil.
func (s *SBSystem) Message(id uint64) *Message { return s.messages[id] }

// Broadcast sends the state of replica r and delivers it to every other
// replica.
func (s *SBSystem) Broadcast(r clock.ReplicaID) error {
	m, err := s.Send(r)
	if err != nil {
		return err
	}
	for _, other := range s.Replicas() {
		if other == r {
			continue
		}
		if err := s.Receive(other, m.ID); err != nil {
			return err
		}
	}
	return nil
}

// DeliverAll repeatedly exchanges states between all replicas until no
// replica state changes, bringing the system to a converged configuration.
func (s *SBSystem) DeliverAll() error {
	for round := 0; round <= len(s.replicas); round++ {
		changed := false
		for _, r := range s.Replicas() {
			before := make(map[clock.ReplicaID]State)
			for _, other := range s.Replicas() {
				before[other] = s.replicas[other].state
			}
			if err := s.Broadcast(r); err != nil {
				return err
			}
			for _, other := range s.Replicas() {
				if !before[other].EqualState(s.replicas[other].state) {
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// ExchangeRandom performs one random communication step (a randomly chosen
// replica sends its state to another randomly chosen replica, possibly
// re-delivering an old message). It reports whether anything happened.
func (s *SBSystem) ExchangeRandom(rng *rand.Rand) bool {
	reps := s.Replicas()
	if len(reps) < 2 {
		return false
	}
	from := reps[rng.Intn(len(reps))]
	to := reps[rng.Intn(len(reps))]
	for to == from {
		to = reps[rng.Intn(len(reps))]
	}
	// With probability 1/4, re-deliver an old message instead of a fresh one
	// to exercise duplication and reordering tolerance.
	if ids := s.Messages(); len(ids) > 0 && rng.Intn(4) == 0 {
		if err := s.Receive(to, ids[rng.Intn(len(ids))]); err != nil {
			panic(err)
		}
		return true
	}
	m, err := s.Send(from)
	if err != nil {
		panic(err)
	}
	if err := s.Receive(to, m.ID); err != nil {
		panic(err)
	}
	return true
}

// ReplicaState returns a copy of the current state of replica r.
func (s *SBSystem) ReplicaState(r clock.ReplicaID) State {
	rep := s.replicas[r]
	if rep == nil {
		return nil
	}
	return rep.state.CloneState()
}

// Seen returns the identifiers of the operations visible at replica r.
func (s *SBSystem) Seen(r clock.ReplicaID) map[uint64]bool {
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
func (s *SBSystem) History() *core.History { return s.hist.Clone() }

// Events returns the recorded execution events (empty unless RecordEvents was
// set).
func (s *SBSystem) Events() []Event { return append([]Event(nil), s.events...) }

// Converged reports whether all replicas have seen every state-modifying
// operation and hold equal states. Queries are local and do not count against
// convergence.
func (s *SBSystem) Converged() bool {
	var updates []uint64
	for _, l := range s.hist.Labels() {
		if !l.IsQuery() {
			updates = append(updates, l.ID)
		}
	}
	var first State
	for _, r := range s.Replicas() {
		rep := s.replicas[r]
		for _, id := range updates {
			if !rep.seen[id] {
				return false
			}
		}
		if first == nil {
			first = rep.state
			continue
		}
		if !first.EqualState(rep.state) {
			return false
		}
	}
	return true
}
