package core_test

import (
	"fmt"
	"slices"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/spec"
)

// decodeORSetLabels turns bytes into a Spec(OR-Set) label sequence, one label
// per byte (at most 64). The low two bits pick the method, the next two the
// element, and the high bit corrupts the label: an add reuses an earlier
// identifier, a query returns a wrong value. Uncorrupted labels are computed
// from a model of the state, so long admitted prefixes are common.
func decodeORSetLabels(data []byte) []*core.Label {
	if len(data) > 64 {
		data = data[:64]
	}
	elems := []string{"a", "b", "c"}
	model := map[core.Pair]bool{}
	withElem := func(elem string) []core.Pair {
		out := []core.Pair{}
		for p := range model {
			if p.Elem == elem {
				out = append(out, p)
			}
		}
		return core.SortPairs(out)
	}
	seq := make([]*core.Label, 0, len(data))
	for i, b := range data {
		id := uint64(i + 1)
		elem := elems[int(b>>2&3)%len(elems)]
		wrong := b&0x80 != 0
		l := &core.Label{ID: id, Kind: core.KindUpdate}
		switch b & 3 {
		case 0:
			pid := id
			if wrong {
				pid = uint64(b>>4&7)%id + 1
			}
			p := core.Pair{Elem: elem, ID: pid}
			model[p] = true
			l.Method, l.Args = "add", []core.Value{elem, pid}
		case 1:
			pairs := withElem(elem)
			for _, p := range pairs {
				delete(model, p)
			}
			l.Method, l.Args = "removeIds", []core.Value{pairs}
		case 2:
			want := withElem(elem)
			if wrong {
				want = append(want, core.Pair{Elem: elem, ID: 999})
			}
			l.Method, l.Args, l.Ret, l.Kind = "readIds", []core.Value{elem}, want, core.KindQuery
		default:
			var vals []string
			for p := range model {
				vals = append(vals, p.Elem)
			}
			vals = core.SortedSet(vals)
			if vals == nil {
				vals = []string{}
			}
			if wrong {
				vals = append(vals, "z")
			}
			l.Method, l.Ret, l.Kind = "read", vals, core.KindQuery
		}
		seq = append(seq, l)
	}
	return seq
}

// wrongRead corrupts a read return by one of four faults picked by k: an
// extra value, a nil return (even for an empty state), reversed order, or a
// duplicated first value.
func wrongRead(vals []string, k byte) []string {
	switch k & 3 {
	case 0:
		return append(vals, "zz")
	case 1:
		return nil
	case 2:
		if len(vals) >= 2 {
			out := slices.Clone(vals)
			slices.Reverse(out)
			return out
		}
		return append(vals, "zz")
	default:
		if len(vals) > 0 {
			return append([]string{vals[0]}, vals...)
		}
		return nil
	}
}

// decodeSetLabels turns bytes into a Spec(Set) label sequence, one label per
// byte (at most 64): the low two bits pick add, remove or read (two codes),
// the next two the element, and the high bit corrupts the label — an update
// with a non-string argument, a read with a wrongRead return.
func decodeSetLabels(data []byte) []*core.Label {
	if len(data) > 64 {
		data = data[:64]
	}
	elems := []string{"a", "b", "c"}
	model := map[string]bool{}
	seq := make([]*core.Label, 0, len(data))
	for i, b := range data {
		elem := elems[int(b>>2&3)%len(elems)]
		wrong := b&0x80 != 0
		l := &core.Label{ID: uint64(i + 1), Kind: core.KindUpdate}
		var arg core.Value = elem
		if wrong {
			arg = int64(1)
		}
		switch b & 3 {
		case 0:
			if !wrong {
				model[elem] = true
			}
			l.Method, l.Args = "add", []core.Value{arg}
		case 1:
			if !wrong {
				delete(model, elem)
			}
			l.Method, l.Args = "remove", []core.Value{arg}
		default:
			vals := []string{}
			for e := range model {
				vals = append(vals, e)
			}
			slices.Sort(vals)
			if wrong {
				vals = wrongRead(vals, b>>4)
			}
			l.Method, l.Ret, l.Kind = "read", vals, core.KindQuery
		}
		seq = append(seq, l)
	}
	return seq
}

// decodeMVRegLabels turns bytes into a Spec(MV-Reg) label sequence, one
// label per byte (at most 64). Three replicas keep version vectors: a write
// at replica r tags its value with r's incremented vector (never dominated
// by a held one, as only r raises component r), a sync merges every
// replica's vector into r's, and a read returns the held values. The high
// bit corrupts the label: a write reuses a held vector, a read returns a
// wrongRead value.
func decodeMVRegLabels(data []byte) []*core.Label {
	if len(data) > 64 {
		data = data[:64]
	}
	elems := []string{"a", "b", "c"}
	local := []clock.VersionVector{{}, {}, {}}
	type pair struct {
		elem string
		vv   clock.VersionVector
	}
	var held []pair
	seq := make([]*core.Label, 0, len(data))
	for i, b := range data {
		r := clock.ReplicaID(int(b>>2&3) % len(local))
		elem := elems[int(b>>4&3)%len(elems)]
		wrong := b&0x80 != 0
		l := &core.Label{ID: uint64(i + 1), Kind: core.KindUpdate}
		switch b & 3 {
		case 0, 1:
			if wrong && len(held) > 0 {
				l.Method, l.Args = "write", []core.Value{elem, held[0].vv.Copy()}
				break
			}
			vv := local[r].Increment(r).Copy()
			kept := held[:0]
			for _, p := range held {
				if !p.vv.Less(vv) {
					kept = append(kept, p)
				}
			}
			held = append(kept, pair{elem, vv})
			l.Method, l.Args = "write", []core.Value{elem, vv.Copy()}
		case 2:
			for _, o := range local {
				local[r] = local[r].Merge(o)
			}
			vals := []string{}
			for _, p := range held {
				vals = append(vals, p.elem)
			}
			l.Method, l.Ret, l.Kind = "read", core.SortedSet(vals), core.KindQuery
		default:
			vals := []string{}
			for _, p := range held {
				vals = append(vals, p.elem)
			}
			vals = core.SortedSet(vals)
			if wrong {
				vals = wrongRead(vals, b>>4)
			}
			l.Method, l.Ret, l.Kind = "read", vals, core.KindQuery
		}
		seq = append(seq, l)
	}
	return seq
}

// decodeRGALabels turns bytes into a Spec(RGA) label sequence, one label per
// byte (at most 64): the low two bits pick addAfter (two codes), remove or
// read, the middle bits positions. The high bit corrupts the label: an add
// reuses a present value or names an absent anchor, a remove names an absent
// value or the root, a read returns a wrongRead value.
func decodeRGALabels(data []byte) []*core.Label {
	if len(data) > 64 {
		data = data[:64]
	}
	m := &listModel{elems: []string{spec.Root}, tomb: map[string]bool{}}
	seq := make([]*core.Label, 0, len(data))
	for i, b := range data {
		id := uint64(i + 1)
		wrong := b&0x80 != 0
		l := &core.Label{ID: id, Kind: core.KindUpdate}
		switch b & 3 {
		case 0, 1:
			at := int(b>>2&15) % len(m.elems)
			after, elem := m.elems[at], fmt.Sprintf("e%d", id)
			switch {
			case wrong && b&0x40 != 0:
				after = "zz"
			case wrong:
				elem = m.elems[int(b>>3)%len(m.elems)]
			default:
				m.insert(at+1, elem)
			}
			l.Method, l.Args = "addAfter", []core.Value{after, elem}
		case 2:
			elem := spec.Root
			if !wrong && len(m.elems) > 1 {
				elem = m.elems[1+int(b>>2)%(len(m.elems)-1)]
				m.tomb[elem] = true
			} else if b&0x40 != 0 {
				elem = "zz"
			}
			l.Method, l.Args = "remove", []core.Value{elem}
		default:
			vals := []string{}
			for _, e := range m.elems[1:] {
				if !m.tomb[e] {
					vals = append(vals, e)
				}
			}
			if wrong {
				vals = wrongRead(vals, b>>4)
			}
			l.Method, l.Ret, l.Kind = "read", vals, core.KindQuery
		}
		seq = append(seq, l)
	}
	return seq
}

// FuzzAdmitsOwned checks the owned fold against the general ones: over every
// decoded label sequence of Spec(OR-Set), Spec(Set), Spec(MV-Reg) and
// Spec(RGA), Fold through the spec's in-place StepOwned path, Fold through
// countingSpec (which hides it) and the breadth-first set fold must reject
// at the same index, and on admission reach the same single state.
func FuzzAdmitsOwned(f *testing.F) {
	f.Add([]byte{0, 4, 3, 1, 2, 3})
	f.Add([]byte{0, 0x80, 3})
	f.Add([]byte{0, 8, 2, 6, 0x82, 5, 3, 0x83})
	f.Add([]byte{0, 5, 0x13, 2, 0x93, 4, 0xc2, 0x80, 0xb3})
	specs := []struct {
		spec   core.Spec
		decode func([]byte) []*core.Label
	}{
		{spec.ORSet{}, decodeORSetLabels},
		{spec.Set{}, decodeSetLabels},
		{spec.MVRegister{}, decodeMVRegLabels},
		{spec.RGA{}, decodeRGALabels},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sp := range specs {
			seq := sp.decode(data)
			owned, plain := sp.spec, &countingSpec{Spec: sp.spec}
			if _, ok := owned.(core.OwnedStepper); !ok {
				t.Fatalf("%s must implement core.OwnedStepper", owned.Name())
			}
			a, i := core.Fold(owned, seq)
			b, j := core.Fold(plain, seq)
			states, k := core.SetFold(plain, seq)
			if i != j || i != k {
				t.Fatalf("%s rejected at: owned %d, plain %d, set fold %d on %s", owned.Name(), i, j, k, core.FormatLabels(seq))
			}
			if i < 0 && (!a.EqualAbs(b) || len(states) != 1 || !a.EqualAbs(states[0])) {
				t.Fatalf("%s final state: owned %v, plain %v, set fold %v on %s", owned.Name(), a, b, states, core.FormatLabels(seq))
			}
		}
	})
}
