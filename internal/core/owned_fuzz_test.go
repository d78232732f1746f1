package core_test

import (
	"testing"

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

// FuzzAdmitsOwned checks the owned fold against the general one: over every
// decoded OR-Set label sequence, Admits, FirstRejected and StatesAfter must
// give the same answer through spec.ORSet's StepOwned path and through
// countingSpec, which hides it.
func FuzzAdmitsOwned(f *testing.F) {
	f.Add([]byte{0, 4, 3, 1, 2, 3})
	f.Add([]byte{0, 0x80, 3})
	f.Add([]byte{0, 8, 2, 6, 0x82, 5, 3, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := decodeORSetLabels(data)
		owned, plain := core.Spec(spec.ORSet{}), &countingSpec{Spec: spec.ORSet{}}
		if _, ok := owned.(core.OwnedStepper); !ok {
			t.Fatal("spec.ORSet must implement core.OwnedStepper")
		}
		if a, b := core.Admits(owned, seq), core.Admits(plain, seq); a != b {
			t.Fatalf("Admits: owned %v, plain %v on %s", a, b, core.FormatLabels(seq))
		}
		if a, b := core.FirstRejected(owned, seq), core.FirstRejected(plain, seq); a != b {
			t.Fatalf("FirstRejected: owned %d, plain %d on %s", a, b, core.FormatLabels(seq))
		}
		a, b := core.StatesAfter(owned, seq), core.StatesAfter(plain, seq)
		if len(a) != len(b) || len(a) == 1 && !a[0].EqualAbs(b[0]) {
			t.Fatalf("StatesAfter: owned %v, plain %v on %s", a, b, core.FormatLabels(seq))
		}
	})
}
