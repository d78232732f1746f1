package spec

import (
	"fmt"
	"math/rand"
	"testing"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// stepAppendDriver describes how to fuzz one specification: randomLabel
// crafts a label — admitted, rejected or malformed — from the current state,
// so the contract is exercised on both polarities of every method.
type stepAppendDriver struct {
	spec        core.Spec
	randomLabel func(rng *rand.Rand, step int, phi core.AbsState) *core.Label
}

// sentinel is a state no specification under test can produce; its presence
// (by interface identity) proves StepAppend left the dst prefix untouched.
var sentinel = core.AbsState(CounterState(424242))

// checkStepAppendContract checks core.Spec's StepAppend contract on one
// transition: the step into a nil dst and the step into a sentinel-prefixed
// dst yield the same successors in the same order, the prefix is untouched,
// and phi is not mutated by either call. It returns the successors.
func checkStepAppendContract(t *testing.T, s core.Spec, phi core.AbsState, l *core.Label) []core.AbsState {
	t.Helper()
	before := phi.CloneAbs()
	want := s.StepAppend(nil, phi, l)
	dst := s.StepAppend([]core.AbsState{sentinel}, phi, l)
	if len(dst) != len(want)+1 || dst[0] != sentinel {
		t.Fatalf("%s %v: StepAppend clobbered the dst prefix (len %d, head %v)", s.Name(), l, len(dst), dst[0])
	}
	for i, w := range want {
		if !dst[i+1].EqualAbs(w) {
			t.Fatalf("%s %v: successor %d differs: into nil=%v, into dst=%v", s.Name(), l, i, w, dst[i+1])
		}
	}
	if !phi.EqualAbs(before) {
		t.Fatalf("%s %v: StepAppend mutated phi: %v, was %v", s.Name(), l, phi, before)
	}
	return want
}

// checkStepOwnedEquivalence compares StepOwned on a private copy of phi with
// StepAppend on phi itself: same admission, an equal successor, and phi left
// untouched by both. Specs without core.OwnedStepper are skipped.
func checkStepOwnedEquivalence(t *testing.T, s core.Spec, phi core.AbsState, l *core.Label) {
	t.Helper()
	stepper, ok := s.(core.OwnedStepper)
	if !ok {
		return
	}
	before := phi.CloneAbs()
	want := s.StepAppend(nil, phi, l)
	if len(want) > 1 {
		t.Fatalf("%s %v: an OwnedStepper must be deterministic, StepAppend returned %d states", s.Name(), l, len(want))
	}
	got, admitted := stepper.StepOwned(phi.CloneAbs(), l)
	if admitted != (len(want) == 1) {
		t.Fatalf("%s %v: StepOwned admitted=%v, StepAppend returned %d states", s.Name(), l, admitted, len(want))
	}
	if admitted && !got.EqualAbs(want[0]) {
		t.Fatalf("%s %v: StepOwned=%v, StepAppend=%v", s.Name(), l, got, want[0])
	}
	if !phi.EqualAbs(before) {
		t.Fatalf("%s %v: stepping a copy mutated phi: %v, was %v", s.Name(), l, phi, before)
	}
}

// TestStepAppendMatchesStepEverySpec fuzzes every specification in this
// package with randomized (valid and invalid) labels and requires every
// transition to keep the StepAppend contract (checkStepAppendContract: the
// step into a prefixed dst matches the plain step into nil, and phi stays
// untouched), and StepOwned (where implemented) to agree with StepAppend.
func TestStepAppendMatchesStepEverySpec(t *testing.T) {
	elems := []string{"a", "b", "c"}
	fresh := func(step int) string { return fmt.Sprintf("e%d", step) }
	pick := func(rng *rand.Rand, ss []string) string {
		if len(ss) == 0 {
			return "absent"
		}
		return ss[rng.Intn(len(ss))]
	}
	// maybeWrong perturbs a correct read return value half the time so
	// rejected reads are exercised too.
	maybeWrong := func(rng *rand.Rand, v []string) []string {
		if rng.Intn(2) == 0 {
			return append(append([]string{}, v...), "bogus")
		}
		return v
	}
	listLabel := func(addMethod string) func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
		return func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			s := phi.(ListState)
			switch rng.Intn(4) {
			case 0:
				switch addMethod {
				case "addAfter":
					return upd("addAfter", pick(rng, s.Elems), fresh(step))
				case "addBetween":
					return upd("addBetween", pick(rng, s.Elems), fresh(step), End)
				default: // addAt
					return upd("addAt", fresh(step), rng.Intn(len(s.Elems)+2))
				}
			case 1:
				return upd("remove", pick(rng, s.Elems))
			case 2:
				return qry("read", maybeWrong(rng, s.Visible()))
			default:
				return upd(addMethod, 7) // malformed arguments
			}
		}
	}
	drivers := []stepAppendDriver{
		{Counter{}, func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			v := int64(phi.(CounterState))
			switch rng.Intn(4) {
			case 0:
				return upd("inc")
			case 1:
				return upd("dec")
			case 2:
				return qry("read", v)
			default:
				return qry("read", v+int64(rng.Intn(3))-1)
			}
		}},
		{Register{}, func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			switch rng.Intn(3) {
			case 0:
				return upd("write", pick(rng, elems))
			case 1:
				return qry("read", string(phi.(RegisterState)))
			default:
				return qry("read", pick(rng, elems))
			}
		}},
		{MVRegister{}, func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			s := phi.(MVRegState)
			switch rng.Intn(3) {
			case 0:
				// A vector dominating everything present (admitted) or a
				// possibly-dominated one (often rejected).
				vv := clock.NewVersionVector()
				for _, p := range s {
					vv = vv.Merge(p.VV)
				}
				if rng.Intn(2) == 0 {
					vv = vv.Increment(clock.ReplicaID(rng.Intn(2)))
				}
				return upd("write", pick(rng, elems), vv)
			case 1:
				return qry("read", s.Values())
			default:
				return qry("read", maybeWrong(rng, s.Values()))
			}
		}},
		{Set{}, func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			s := phi.(SetState)
			switch rng.Intn(4) {
			case 0:
				return upd("add", pick(rng, elems))
			case 1:
				return upd("remove", pick(rng, elems))
			case 2:
				return qry("read", s.Values())
			default:
				return qry("read", maybeWrong(rng, s.Values()))
			}
		}},
		{ORSet{}, func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			s := phi.(ORSetState)
			switch rng.Intn(4) {
			case 0:
				return upd("add", pick(rng, elems), uint64(step+1))
			case 1:
				pairs := s.Pairs()
				if len(pairs) > 1 {
					pairs = pairs[:1+rng.Intn(len(pairs))]
				}
				return upd("removeIds", pairs)
			case 2:
				e := pick(rng, elems)
				var want []core.Pair
				for p := range s {
					if p.Elem == e {
						want = append(want, p)
					}
				}
				want = core.SortPairs(want)
				if len(want) == 0 {
					want = []core.Pair{}
				}
				return qry("readIds", e, want)
			default:
				return qry("read", maybeWrong(rng, s.Values()))
			}
		}},
		{RGA{}, listLabel("addAfter")},
		{Wooki{}, listLabel("addBetween")},
		{AddAt1{}, listLabel("addAt")},
		{AddAt2{}, listLabel("addAt")},
		{AddAt3{}, func(rng *rand.Rand, step int, phi core.AbsState) *core.Label {
			s := phi.(ListState)
			visible := s.Visible()
			switch rng.Intn(4) {
			case 0:
				// Craft the inserting replica's local view: the fresh element
				// at min(k, |view|) within the current visible subsequence.
				elem := fresh(step)
				k := rng.Intn(len(visible) + 2)
				pos := k
				if pos > len(visible) {
					pos = len(visible)
				}
				ret := make([]string, 0, len(visible)+1)
				ret = append(ret, visible[:pos]...)
				ret = append(ret, elem)
				ret = append(ret, visible[pos:]...)
				l := upd("addAt", elem, k)
				l.Ret = ret
				return l
			case 1:
				victim := pick(rng, s.Elems)
				var view []string
				for _, e := range visible {
					if e != victim {
						view = append(view, e)
					}
				}
				l := upd("remove", victim)
				l.Ret = view
				return l
			case 2:
				return qry("read", maybeWrong(rng, visible))
			default:
				return upd("addAt", fresh(step), -1) // malformed index
			}
		}},
	}

	owned := 0
	for _, drv := range drivers {
		if _, ok := drv.spec.(core.OwnedStepper); ok {
			owned++
		}
		t.Run(drv.spec.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				phi := drv.spec.Init()
				admitted := 0
				for step := 0; step < 30; step++ {
					l := drv.randomLabel(rng, step, phi)
					succs := checkStepAppendContract(t, drv.spec, phi, l)
					checkStepOwnedEquivalence(t, drv.spec, phi, l)
					if len(succs) > 0 {
						admitted++
						phi = succs[rng.Intn(len(succs))]
					}
				}
				if admitted == 0 {
					t.Fatalf("seed %d: no admitted transitions — the generator is too weak", seed)
				}
			}
		})
	}
	if owned == 0 {
		t.Fatal("no specification implements core.OwnedStepper; the StepOwned comparison ran on nothing")
	}
}
