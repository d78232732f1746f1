package core_test

import (
	"fmt"
	"slices"
	"testing"

	"ralin/internal/compose"
	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/spec"
)

// countingSpec forwards a spec's StepAppend and counts the spec steps taken
// through it. It hides any OwnedStepper of the wrapped spec, so the folds
// over it step through StepAppend.
type countingSpec struct {
	core.Spec
	steps int
}

func (c *countingSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	c.steps++
	return c.Spec.StepAppend(dst, phi, l)
}

// Caps of the list decoder: the set fold a test compares against enumerates
// every insertion order, which grows factorially in the number of adds.
const (
	maxDecodedLabels = 16
	maxDecodedAdds   = 6
)

// listModel is one concrete run of a list specification: the decoder picks
// one admitted successor per add, so labels computed from it are admitted by
// at least that run, while other runs may reject them.
type listModel struct {
	elems []string
	tomb  map[string]bool
}

// visible is the read value of the model's run.
func (m *listModel) visible() []string {
	out := []string{}
	for _, e := range m.elems {
		if e != spec.Begin && e != spec.End && !m.tomb[e] {
			out = append(out, e)
		}
	}
	return out
}

// insert places elem at index i of the model's list.
func (m *listModel) insert(i int, elem string) {
	m.elems = append(m.elems[:i], append([]string{elem}, m.elems[i:]...)...)
}

// decodeListLabels turns bytes into a label sequence for Spec(Wooki) (addAt
// false) or Spec(addAt2) (addAt true), one label per byte, at most
// maxDecodedLabels of them and at most maxDecodedAdds adds (further adds
// become reads). The low two bits pick the method — 0 and 1 add, 2 removes,
// 3 reads — the middle bits pick positions, and the high bit corrupts the
// label: an add reuses a present value, a remove names an absent one, a read
// returns a wrong list.
func decodeListLabels(data []byte, addAt bool) []*core.Label {
	if len(data) > maxDecodedLabels {
		data = data[:maxDecodedLabels]
	}
	m := &listModel{tomb: map[string]bool{}}
	if !addAt {
		m.elems = []string{spec.Begin, spec.End}
	}
	adds := 0
	seq := make([]*core.Label, 0, len(data))
	for i, b := range data {
		id := uint64(i + 1)
		wrong := b&0x80 != 0
		method := b & 3
		if method <= 1 && adds == maxDecodedAdds {
			method = 3
		}
		l := &core.Label{ID: id, Kind: core.KindUpdate}
		switch {
		case method <= 1:
			adds++
			elem := fmt.Sprintf("e%d", id)
			if wrong && len(m.elems) > 0 {
				elem = m.elems[int(b>>2)%len(m.elems)]
			}
			if addAt {
				vis := len(m.visible())
				k := int(b>>2&7) % (vis + 2)
				pos := len(m.elems)
				if k <= vis {
					var cands []int
					for p := 0; p <= len(m.elems); p++ {
						if visibleBefore(m, p) == k {
							cands = append(cands, p)
						}
					}
					pos = cands[int(b>>5&3)%len(cands)]
				}
				if !wrong {
					m.insert(pos, elem)
				}
				l.Method, l.Args = "addAt", []core.Value{elem, k}
				break
			}
			ia := int(b>>2&3) % (len(m.elems) - 1)
			ic := ia + 1 + int(b>>4&3)%(len(m.elems)-1-ia)
			l.Method, l.Args = "addBetween", []core.Value{m.elems[ia], elem, m.elems[ic]}
			if !wrong {
				m.insert(ia+1+int(b>>6&1)%(ic-ia), elem)
			}
		case method == 2:
			var cands []string
			for _, e := range m.elems {
				if e != spec.Begin && e != spec.End {
					cands = append(cands, e)
				}
			}
			elem := "zz"
			if !wrong && len(cands) > 0 {
				elem = cands[int(b>>2)%len(cands)]
				m.tomb[elem] = true
			}
			l.Method, l.Args = "remove", []core.Value{elem}
		default:
			vals := m.visible()
			if wrong {
				vals = append(vals, "zz")
			}
			l.Method, l.Ret, l.Kind = "read", vals, core.KindQuery
		}
		seq = append(seq, l)
	}
	return seq
}

// visibleBefore counts the visible elements among the first p of the model.
func visibleBefore(m *listModel, p int) int {
	n := 0
	for _, e := range m.elems[:p] {
		if !m.tomb[e] {
			n++
		}
	}
	return n
}

// checkAdmitsIdentity asserts that Fold agrees with the breadth-first set
// fold on seq — the same rejection index and, on admission, a final state
// inside the set — in no more spec steps, and returns the two step counts.
func checkAdmitsIdentity(t *testing.T, sp core.Spec, seq []*core.Label) (depthFirst, setFold int) {
	t.Helper()
	c := &countingSpec{Spec: sp}
	phi, rejected := core.Fold(c, seq)
	depthFirst, c.steps = c.steps, 0
	states, want := core.SetFold(c, seq)
	setFold = c.steps
	if rejected != want || (phi != nil) != (rejected < 0) || phi != nil && !slices.ContainsFunc(states, phi.EqualAbs) {
		t.Fatalf("%s: Fold (%v, %d), set fold (%v, %d) on %s",
			sp.Name(), phi, rejected, states, want, core.FormatLabels(seq))
	}
	if depthFirst > setFold {
		t.Fatalf("%s: depth-first took %d steps, the set fold %d on %s",
			sp.Name(), depthFirst, setFold, core.FormatLabels(seq))
	}
	return depthFirst, setFold
}

// FuzzAdmitsDepthFirst checks Fold's depth-first walk against the set fold on
// the nondeterministic list specifications: over every decoded Wooki and
// addAt2 label sequence, both must reject at the same index, and an admitted
// sequence must end in a state of the set, in no more spec steps.
func FuzzAdmitsDepthFirst(f *testing.F) {
	f.Add([]byte{0, 0, 3})
	// The model puts the second value after the first; the read is admitted
	// only by the spec's second insertion point, so Fold must backtrack.
	f.Add([]byte{0, 0x50, 3})
	f.Add([]byte{0, 0, 0x10, 3, 2, 3})
	f.Add([]byte{0, 0x80, 3, 0x83})
	f.Add([]byte{1, 0x51, 2, 0x21, 0x42, 3, 0x61})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAdmitsIdentity(t, spec.Wooki{}, decodeListLabels(data, false))
		checkAdmitsIdentity(t, spec.AddAt2{}, decodeListLabels(data, true))
	})
}

// TestAdmitsDepthFirstComposedWooki checks the same identity and step bound
// on a composition of two Wooki objects, whose product states branch on
// either component, and that depth-first saves steps somewhere.
func TestAdmitsDepthFirstComposedWooki(t *testing.T) {
	d, err := registry.Lookup("Wooki")
	if err != nil {
		t.Fatal(err)
	}
	sp := compose.NewSpec(compose.Object{Name: "o1", Descriptor: d}, compose.Object{Name: "o2", Descriptor: d})
	saved := false
	for seed := 0; seed < 200; seed++ {
		data := make([]byte, maxDecodedLabels)
		x := uint32(seed*2654435761 + 1)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x) &^ 0x80 // uncorrupted: admitted by the model's run
		}
		var seq []*core.Label
		for i, obj := range []string{"o1", "o2"} {
			for _, l := range decodeListLabels(data[i*maxDecodedLabels/2:(i+1)*maxDecodedLabels/2], false) {
				l.Object = obj
				seq = append(seq, l)
			}
		}
		// Interleave the two objects' labels so branches of one component
		// carry the other's later steps.
		mixed := make([]*core.Label, 0, len(seq))
		half := len(seq) / 2
		for i := 0; i < half; i++ {
			mixed = append(mixed, seq[i], seq[half+i])
		}
		for i, l := range mixed {
			l.ID = uint64(i + 1)
		}
		depthFirst, setFold := checkAdmitsIdentity(t, sp, mixed)
		saved = saved || depthFirst < setFold
	}
	if !saved {
		t.Fatal("depth-first never took fewer steps than the set fold")
	}
}
