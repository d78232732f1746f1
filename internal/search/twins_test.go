package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// twinRichHistory builds a random counter or register history in which
// twins are likely: k ≤ 7 updates drawn from a two-value alphabet, optional
// deliveries between them, and one to three reads that each see a random
// subset of the updates and return a right value or a wrong one.
func twinRichHistory(rng *rand.Rand, register, deliveries bool) *core.History {
	h := core.NewHistory()
	k := 2 + rng.Intn(6)
	for i := 1; i <= k; i++ {
		l := mkUpdate(uint64(i), "inc")
		switch {
		case register:
			l = mkUpdate(uint64(i), "write", fmt.Sprint(1+rng.Intn(2)))
		case rng.Intn(3) == 0:
			l = mkUpdate(uint64(i), "dec")
		}
		h.MustAdd(l)
		if deliveries && i > 1 && rng.Intn(3) == 0 {
			h.MustAddVis(uint64(1+rng.Intn(i-1)), uint64(i))
		}
	}
	// At most eight labels in all, so the legacy enumerator stays quick.
	reads := min(1+rng.Intn(3), 8-k)
	for j := 1; j <= reads; j++ {
		id := uint64(k + j)
		sum := int64(0)
		var seen []uint64
		for i := 1; i <= k; i++ {
			if rng.Intn(4) != 0 {
				seen = append(seen, uint64(i))
			}
		}
		var ret core.Value
		if register {
			ret = fmt.Sprint(rng.Intn(3))
		} else {
			for _, u := range seen {
				if h.Label(u).Method == "inc" {
					sum++
				} else {
					sum--
				}
			}
			ret = sum + int64(rng.Intn(3)) - 1
		}
		h.MustAdd(mkRead(id, ret))
		for _, u := range seen {
			h.MustAddVis(u, id)
		}
	}
	return h
}

// twinPlan builds the plan of h on s and arms s for a check of it under sp,
// which numbers the plan's label contents in s's table and links its twin
// classes.
func twinPlan(t *testing.T, s *searcher, h *core.History, sp core.Spec, strong bool) *prepared {
	t.Helper()
	if err := s.plan.build(h, strong); err != nil {
		t.Fatal(err)
	}
	s.start(h, nil, sp, strong, core.CheckOptions{})
	return &s.plan
}

// hasTwins reports whether the plan of h links any twins.
func hasTwins(t *testing.T, h *core.History, sp core.Spec, strong bool) bool {
	t.Helper()
	for _, nx := range twinPlan(t, &searcher{}, h, sp, strong).twinNext {
		if nx >= 0 {
			return true
		}
	}
	return false
}

// twinsByDefinition is the twin predicate by definition: equal content
// (sameContent) and equal predecessor and successor rows.
func twinsByDefinition(p *prepared, a, b int) bool {
	return sameContent(p.labels[a], p.labels[b]) && slices.Equal(p.preds[a], p.preds[b]) && slices.Equal(p.succs[a], p.succs[b])
}

// definedTwinNext is the twin chaining by definition, in O(n²): each label,
// in candidate order, follows the last earlier label it is a twin of.
func definedTwinNext(p *prepared) []int {
	next := make([]int, len(p.labels))
	for k, i := range p.order {
		next[i] = -1
		for _, j := range slices.Backward(p.order[:k]) {
			if twinsByDefinition(p, i, j) {
				next[j] = i
				break
			}
		}
	}
	return next
}

// opaqueTwinHistory is two concurrent incs seen by three reads returning
// opaque values: reads of distinct values agree on their rows and hash
// equal (mixValue's shared tag), so they share a twin bucket and only the
// content IDs tell them apart.
func opaqueTwinHistory(rng *rand.Rand) *core.History {
	h := core.NewHistory()
	h.MustAdd(mkUpdate(1, "inc"))
	h.MustAdd(mkUpdate(2, "inc"))
	for id := uint64(3); id <= 5; id++ {
		h.MustAdd(mkRead(id, opaque{int64(rng.Intn(2))}))
		h.MustAddVis(1, id)
		h.MustAddVis(2, id)
	}
	return h
}

// TestTwinClassesMatchDefinition checks the twin classes buildTwins links
// from content IDs and row hashes against their definition, on twin-rich
// counter and register histories and on reads whose distinct contents hash
// equal, in RA and strong mode: the predicate must agree with
// twinsByDefinition on every pair, and the chains with definedTwinNext. One
// searcher per spec checks every history, so its table numbers contents in
// the order the histories bring them, not per history. listCounter, which
// gets content IDs but no transitions, must link the same chains as
// Counter.
func TestTwinClassesMatchDefinition(t *testing.T) {
	linked := 0
	for _, sp := range []core.Spec{spec.Counter{}, listCounter{tags: []string{"x"}}, spec.Register{}} {
		_, register := sp.(spec.Register)
		s := &searcher{}
		for _, deliveries := range []bool{false, true} {
			for seed := int64(0); seed < 60; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for _, h := range []*core.History{twinRichHistory(rng, register, deliveries), opaqueTwinHistory(rng)} {
					for _, strong := range []bool{false, true} {
						p := twinPlan(t, s, h, sp, strong)
						ctx := fmt.Sprintf("%T deliveries=%v seed %d strong=%v", sp, deliveries, seed, strong)
						for a := range p.labels {
							for b := range p.labels {
								if got, want := p.twins(a, b), twinsByDefinition(p, a, b); got != want {
									t.Fatalf("%s: twins(%v, %v) = %v, by definition %v\n%s", ctx, p.labels[a], p.labels[b], got, want, h)
								}
							}
						}
						want := definedTwinNext(p)
						if !slices.Equal(p.twinNext, want) {
							t.Fatalf("%s: twin chains %v, by definition %v\n%s", ctx, p.twinNext, want, h)
						}
						if slices.ContainsFunc(want, func(nx int) bool { return nx >= 0 }) {
							linked++
						}
						s.release()
					}
				}
			}
		}
	}
	if linked < 400 {
		t.Fatalf("generator too weak: %d plans with twins", linked)
	}
}

// TestTwinDifferentialAgainstLegacy checks the twin reduction against the
// legacy enumerator, which knows nothing of twins: on twin-rich counter and
// register histories, with and without deliveries, the pruned engine must
// return the legacy verdict in RA and strong mode alike, and every pruned
// witness must pass the independent validator.
func TestTwinDifferentialAgainstLegacy(t *testing.T) {
	var linked, valid, invalid int
	for _, register := range []bool{false, true} {
		sp := core.Spec(spec.Counter{})
		if register {
			sp = spec.Register{}
		}
		for _, deliveries := range []bool{false, true} {
			for seed := int64(0); seed < 60; seed++ {
				rng := rand.New(rand.NewSource(seed))
				h := twinRichHistory(rng, register, deliveries)
				ctx := fmt.Sprintf("%s deliveries=%v seed %d", sp.Name(), deliveries, seed)
				if hasTwins(t, h, sp, false) {
					linked++
				}
				base := core.CheckOptions{Exhaustive: true, DebugMemo: true}
				legacyOpts := base
				legacyOpts.Engine = core.EngineLegacy
				legacy := core.CheckRA(h, sp, legacyOpts)
				pruned := core.CheckRA(h, sp, base)
				if legacy.Verdict != pruned.Verdict {
					t.Fatalf("%s: RA verdicts differ: legacy %v, pruned %v\n%s", ctx, legacy.Verdict, pruned.Verdict, h)
				}
				if pruned.Verdict == core.VerdictValid {
					valid++
					if err := core.IsRALinearization(pruned.Rewritten, pruned.Linearization, sp); err != nil {
						t.Fatalf("%s: pruned witness rejected: %v", ctx, err)
					}
				} else {
					invalid++
				}
				legacyStrong := core.CheckStrongLinearizable(h, sp, legacyOpts)
				prunedStrong := core.CheckStrongLinearizable(h, sp, base)
				if legacyStrong.Verdict != prunedStrong.Verdict {
					t.Fatalf("%s: strong verdicts differ: legacy %v, pruned %v\n%s", ctx, legacyStrong.Verdict, prunedStrong.Verdict, h)
				}
			}
		}
	}
	if linked < 100 || valid < 20 || invalid < 20 {
		t.Fatalf("generator too weak: %d histories with twins, %d valid, %d invalid", linked, valid, invalid)
	}
}

// TestTwinPredicateReadsArgs: write("1") and write("2") are concurrent and
// seen by a read returning "1", which holds in the order write("2"),
// write("1"). A twin predicate blind to Args would chain write("1") first and
// refute the history.
func TestTwinPredicateReadsArgs(t *testing.T) {
	h := core.NewHistory()
	h.MustAdd(mkUpdate(1, "write", "1"))
	h.MustAdd(mkUpdate(2, "write", "2"))
	h.MustAdd(mkRead(3, "1"))
	h.MustAddVis(1, 3)
	h.MustAddVis(2, 3)
	if hasTwins(t, h, spec.Register{}, false) {
		t.Fatal("writes of different values must not be twins")
	}
	res := core.CheckRA(h, spec.Register{}, core.CheckOptions{Exhaustive: true})
	if res.Verdict != core.VerdictValid {
		t.Fatalf("verdict %v, want Valid: %v", res.Verdict, res.LastErr)
	}
}

// TestTwinPredicateReadsRet: in strong mode, two concurrent reads that see
// nothing and an inc linearize as read⇒0, inc, read⇒1. A twin predicate
// blind to Ret would chain read⇒1 before read⇒0, which no order admits.
func TestTwinPredicateReadsRet(t *testing.T) {
	h := core.NewHistory()
	h.MustAdd(mkUpdate(1, "inc"))
	h.MustAdd(mkRead(2, int64(1)))
	h.MustAdd(mkRead(3, int64(0)))
	if hasTwins(t, h, spec.Counter{}, true) {
		t.Fatal("reads with different returns must not be twins")
	}
	res := core.CheckStrongLinearizable(h, spec.Counter{}, core.CheckOptions{Exhaustive: true})
	if res.Verdict != core.VerdictValid {
		t.Fatalf("verdict %v, want Valid: %v", res.Verdict, res.LastErr)
	}
}

// TestExtendSplitsTwins grows a history through Session.Extend until two
// old twins stop being twins: write("a") ×2 are twins until a new write("b")
// sees only the second and a new read sees the first and the write("b")
// and returns "a" — which needs the second twin placed before the first. The
// certificate fails there, so the fallback search runs over a plan built
// from the grown rewriting, whose twin chains must reflect the split; the
// verdict must be the from-scratch Valid.
func TestExtendSplitsTwins(t *testing.T) {
	sess := NewSession()
	opts := extOpts(sess)
	h := core.NewHistory()
	u1, u2, x := mkUpdate(1, "write", "a"), mkUpdate(2, "write", "a"), mkUpdate(3, "write", "b")
	for _, l := range []*core.Label{u1, u2, x} {
		h.MustAdd(l)
	}
	if res := sess.Extend(h, spec.Register{}, []*core.Label{u1, u2, x}, opts); res.Verdict != core.VerdictValid {
		t.Fatalf("three concurrent writes: verdict %v", res.Verdict)
	}
	// A read of "a" after all three refutes the certificate's write order
	// (a, a, b) and searches a plan in which u1 and u2 are twins.
	r0 := mkRead(4, "a")
	h.MustAdd(r0)
	for _, u := range []uint64{1, 2, 3} {
		h.MustAddVis(u, 4)
	}
	if res := sess.Extend(h, spec.Register{}, []*core.Label{r0}, opts); res.Verdict != core.VerdictValid || res.WitnessReplayed {
		t.Fatalf("read after all writes: verdict %v, replayed %v", res.Verdict, res.WitnessReplayed)
	}
	w3 := mkUpdate(5, "write", "b")
	r := mkRead(6, "a")
	h.MustAdd(w3)
	h.MustAddVis(2, 5)
	h.MustAdd(r)
	h.MustAddVis(1, 6)
	h.MustAddVis(5, 6)
	res := sess.Extend(h, spec.Register{}, []*core.Label{w3, r}, opts)
	if !res.Extended || res.WitnessReplayed {
		t.Fatalf("the split must go through the extension's fallback search: %+v", res)
	}
	if fresh := scratchVerdict(h, spec.Register{}, opts); res.Verdict != fresh.Verdict || res.Verdict != core.VerdictValid {
		t.Fatalf("incremental verdict %v, from scratch %v, want Valid: %v", res.Verdict, fresh.Verdict, res.LastErr)
	}
	if err := core.IsRALinearization(res.Rewritten, res.Linearization, spec.Register{}); err != nil {
		t.Fatalf("witness rejected: %v", err)
	}
}
