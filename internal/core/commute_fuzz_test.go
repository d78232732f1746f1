package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// decodeCounterLabels turns bytes into a Spec(Counter) label sequence, one
// label per byte (at most 64): the low two bits pick inc, dec or read (two
// codes), and the high bit makes a read return a wrong value or an update
// use an unknown method.
func decodeCounterLabels(data []byte) []*core.Label {
	if len(data) > 64 {
		data = data[:64]
	}
	var value int64
	seq := make([]*core.Label, 0, len(data))
	for i, b := range data {
		wrong := b&0x80 != 0
		l := &core.Label{ID: uint64(i + 1), Kind: core.KindUpdate}
		switch b & 3 {
		case 0:
			value++
			l.Method = "inc"
		case 1:
			value--
			l.Method = "dec"
		default:
			ret := value
			if wrong {
				ret += 7
			}
			l.Method, l.Ret, l.Kind = "read", ret, core.KindQuery
		}
		if wrong && l.Kind == core.KindUpdate {
			l.Method = "reset"
		}
		seq = append(seq, l)
	}
	return seq
}

// commuters lists every core.Commuter specification with a decoder of its
// label sequences.
var commuters = []struct {
	spec   core.Spec
	decode func([]byte) []*core.Label
}{
	{spec.ORSet{}, decodeORSetLabels},
	{spec.Counter{}, decodeCounterLabels},
}

// successorKeys returns the sorted, deduplicated state keys StepAppend
// reaches from phi by applying seq in order; empty when some step admits
// nothing from every state.
func successorKeys(t *testing.T, sp core.Spec, phi core.AbsState, seq ...*core.Label) []string {
	t.Helper()
	cur := []core.AbsState{phi}
	for _, l := range seq {
		var next []core.AbsState
		for _, s := range cur {
			next = sp.StepAppend(next, s, l)
		}
		cur = next
	}
	keys := make([]string, 0, len(cur))
	for _, s := range cur {
		k, ok := s.(core.StateKeyer).StateKey()
		if !ok {
			t.Fatalf("%s: state %v has no key", sp.Name(), s)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// checkCommutes asserts the core.Commuter contract on seq: Commutes is
// symmetric, and for every pair of seq's labels it reports commuting, both
// orders reach equal successor-key sets from every state seq's admitted
// prefix passes through (the initial state included). Only the first 24
// labels are paired. It returns how many
// ordered pairs Commutes accepted and rejected.
func checkCommutes(t *testing.T, sp core.Spec, seq []*core.Label) (commuting, not int) {
	t.Helper()
	// Every ordered pair from every state: cap the quadratic work.
	seq = seq[:min(len(seq), 24)]
	cm := sp.(core.Commuter)
	states := []core.AbsState{sp.Init()}
	for _, l := range seq {
		next := sp.StepAppend(nil, states[len(states)-1], l)
		if len(next) == 0 {
			break
		}
		states = append(states, next[0])
	}
	for _, a := range seq {
		for _, b := range seq {
			c := cm.Commutes(a, b)
			if c != cm.Commutes(b, a) {
				t.Fatalf("%s: Commutes(%v, %v) = %v is not symmetric", sp.Name(), a, b, c)
			}
			if !c {
				not++
				continue
			}
			commuting++
			for _, phi := range states {
				ab, ba := successorKeys(t, sp, phi, a, b), successorKeys(t, sp, phi, b, a)
				if !slices.Equal(ab, ba) {
					t.Fatalf("%s: Commutes(%v, %v) but from %v the orders reach %q and %q",
						sp.Name(), a, b, phi, ab, ba)
				}
			}
		}
	}
	return commuting, not
}

// FuzzCommutes checks every core.Commuter against StepAppend: on decoded
// label sequences, a pair Commutes accepts must reach equal successor-key
// sets in both orders from every reachable state the sequence visits.
func FuzzCommutes(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 5, 3})
	f.Add([]byte{0, 0x80, 1, 0x81, 2})
	f.Add([]byte{0, 8, 2, 6, 0x82, 5, 9, 1, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range commuters {
			checkCommutes(t, c.spec, c.decode(data))
		}
	})
}

// TestCommutesMatchesStepAppend is FuzzCommutes' differential over fixed
// random sequences, and checks that each implementer both accepts and
// rejects some pair, so the property is not met vacuously.
func TestCommutesMatchesStepAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range commuters {
		commuting, not := 0, 0
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, 4+rng.Intn(20))
			rng.Read(data)
			yes, no := checkCommutes(t, c.spec, c.decode(data))
			commuting, not = commuting+yes, not+no
		}
		if commuting == 0 || not == 0 {
			t.Fatalf("%s: Commutes accepted %d and rejected %d pairs", c.spec.Name(), commuting, not)
		}
	}
}
