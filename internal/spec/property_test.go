package spec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ralin/internal/core"
)

// TestCounterSpecBalanceProperty: any sequence of incs and decs followed by a
// read of the running balance is admitted; a read of any other value is not.
func TestCounterSpecBalanceProperty(t *testing.T) {
	prop := func(flips []bool) bool {
		var seq []*core.Label
		balance := int64(0)
		for _, up := range flips {
			if up {
				seq = append(seq, upd("inc"))
				balance++
			} else {
				seq = append(seq, upd("dec"))
				balance--
			}
		}
		good := append(append([]*core.Label(nil), seq...), qry("read", balance))
		bad := append(append([]*core.Label(nil), seq...), qry("read", balance+1))
		return core.Admits(Counter{}, good) && !core.Admits(Counter{}, bad)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterSpecLastWriteProperty: a read after a sequence of writes must
// return the last written value.
func TestRegisterSpecLastWriteProperty(t *testing.T) {
	prop := func(values []string) bool {
		var seq []*core.Label
		last := ""
		for _, v := range values {
			seq = append(seq, upd("write", v))
			last = v
		}
		good := append(append([]*core.Label(nil), seq...), qry("read", last))
		return core.Admits(Register{}, good)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetSpecModelProperty: Spec(Set) agrees with a map-based model on random
// add/remove/read sequences.
func TestSetSpecModelProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := map[string]bool{}
		var seq []*core.Label
		elems := []string{"a", "b", "c"}
		for i := 0; i < 12; i++ {
			e := elems[rng.Intn(len(elems))]
			switch rng.Intn(3) {
			case 0:
				seq = append(seq, upd("add", e))
				model[e] = true
			case 1:
				seq = append(seq, upd("remove", e))
				delete(model, e)
			default:
				var want []string
				for k := range model {
					want = append(want, k)
				}
				seq = append(seq, qry("read", core.SortedSet(want)))
			}
		}
		return core.Admits(Set{}, seq)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRGASpecRandomInsertionsProperty: inserting fresh elements after random
// existing ones, interleaved with removals and exact reads, is always
// admitted, and the list keeps every inserted element (tombstoned or not).
func TestRGASpecRandomInsertionsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		state := core.AbsState(NewListState(Root))
		var inserted []string
		for i := 0; i < 10; i++ {
			ls := state.(ListState)
			var l *core.Label
			switch rng.Intn(4) {
			case 0, 1:
				after := Root
				if len(inserted) > 0 && rng.Intn(2) == 0 {
					after = inserted[rng.Intn(len(inserted))]
				}
				elem := fmt.Sprintf("e%d", i)
				inserted = append(inserted, elem)
				l = upd("addAfter", after, elem)
			case 2:
				if len(inserted) == 0 {
					l = qry("read", ls.Visible())
					break
				}
				victim := inserted[rng.Intn(len(inserted))]
				if ls.Tomb[victim] {
					l = qry("read", ls.Visible())
					break
				}
				l = upd("remove", victim)
			default:
				l = qry("read", ls.Visible())
			}
			next := (RGA{}).StepAppend(nil, state, l)
			if len(next) == 0 {
				return false
			}
			state = next[0]
		}
		final := state.(ListState)
		return len(final.Elems) == len(inserted)+1 // every insertion is retained (plus the root)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAddAt1MatchesSliceModel: Spec(addAt1) agrees with a plain slice model.
func TestAddAt1MatchesSliceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var model []string
		var seq []*core.Label
		for i := 0; i < 10; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				elem := fmt.Sprintf("x%d", i)
				k := rng.Intn(len(model) + 2)
				seq = append(seq, upd("addAt", elem, k))
				if k > len(model) {
					k = len(model)
				}
				model = append(model[:k:k], append([]string{elem}, model[k:]...)...)
			default:
				seq = append(seq, qry("read", append([]string{}, model...)))
			}
		}
		return core.Admits(AddAt1{}, seq)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecsRejectMalformedLabels(t *testing.T) {
	// Every specification rejects labels with wrong state types, malformed
	// arguments, or unknown methods rather than panicking.
	specs := []core.Spec{Counter{}, Register{}, MVRegister{}, Set{}, ORSet{}, RGA{}, Wooki{}, AddAt1{}, AddAt2{}, AddAt3{}}
	badLabels := []*core.Label{
		{Method: "definitely-not-a-method"},
		{Method: "add"},
		{Method: "addAfter", Args: []core.Value{1, 2}},
		{Method: "addAt", Args: []core.Value{"x", "not-an-int"}},
		{Method: "addBetween", Args: []core.Value{1, 2, 3}},
		{Method: "write", Args: []core.Value{42}},
		{Method: "remove"},
		{Method: "removeIds", Args: []core.Value{"not-pairs"}},
		{Method: "readIds"},
		{Method: "read", Ret: 42},
	}
	for _, s := range specs {
		// Wrong abstract state type.
		if got := s.StepAppend(nil, CounterState(0), &core.Label{Method: "read"}); s.Name() != "Spec(Counter)" && len(got) != 0 {
			t.Errorf("%s accepted a foreign state type", s.Name())
		}
		for _, l := range badLabels {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panicked on %v: %v", s.Name(), l, r)
					}
				}()
				s.StepAppend(nil, s.Init(), l)
			}()
		}
	}
}

func TestListSpecsRejectWrongIndexTypes(t *testing.T) {
	if core.Admits(AddAt2{}, []*core.Label{upd("addAt", "a", -2)}) {
		t.Fatal("negative index admitted by addAt2")
	}
	if core.Admits(AddAt3{}, []*core.Label{{Method: "addAt", Args: []core.Value{"a", 0}, Kind: core.KindUpdate}}) {
		t.Fatal("addAt3 must reject labels without a returned local view")
	}
	if core.Admits(AddAt3{}, []*core.Label{{Method: "remove", Args: []core.Value{"a"}, Ret: []string{}, Kind: core.KindUpdate}}) {
		t.Fatal("addAt3 must reject removing an absent element")
	}
	if core.Admits(AddAt3{}, []*core.Label{
		{Method: "addAt", Args: []core.Value{"a", 0}, Ret: []string{"a"}, Kind: core.KindUpdate},
		{Method: "remove", Args: []core.Value{"a"}, Kind: core.KindUpdate},
	}) {
		t.Fatal("addAt3 remove must carry a returned local view")
	}
}

func TestWookiSpecReadTypeMismatch(t *testing.T) {
	if core.Admits(Wooki{}, []*core.Label{qry("read", "not-a-slice")}) {
		t.Fatal("mistyped read admitted")
	}
	if core.Admits(RGA{}, []*core.Label{qry("read", 42)}) {
		t.Fatal("mistyped read admitted")
	}
	if core.Admits(MVRegister{}, []*core.Label{qry("read", 42)}) {
		t.Fatal("mistyped read admitted")
	}
}
