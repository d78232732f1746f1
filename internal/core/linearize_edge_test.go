package core

import (
	"testing"
)

// Edge cases of the linear-extension enumerator and the checker entry points:
// empty histories, singletons, cyclic visibility relations and MaxExtensions
// truncation.

func TestLinearExtensionsEmptyHistory(t *testing.T) {
	h := NewHistory()
	var seqs [][]*Label
	produced, truncated := LinearExtensions(h, 0, func(seq []*Label) bool {
		seqs = append(seqs, seq)
		return true
	})
	if produced != 1 || truncated {
		t.Fatalf("empty history has exactly the empty extension: produced=%d truncated=%v", produced, truncated)
	}
	if len(seqs) != 1 || len(seqs[0]) != 0 {
		t.Fatalf("expected one empty sequence, got %v", seqs)
	}
	res := CheckRA(h, counterSpec{}, CheckOptions{Exhaustive: true})
	if res.Verdict != VerdictValid || len(res.Linearization) != 0 {
		t.Fatalf("empty history must be RA-linearizable with the empty witness: %+v", res)
	}
}

func TestLinearExtensionsSingleLabel(t *testing.T) {
	h := NewHistory()
	h.MustAdd(mkLabel(1, "inc", KindUpdate))
	produced, truncated := LinearExtensions(h, 0, func(seq []*Label) bool {
		if len(seq) != 1 || seq[0].ID != 1 {
			t.Fatalf("unexpected extension %v", seq)
		}
		return true
	})
	if produced != 1 || truncated {
		t.Fatalf("singleton history has exactly one extension: produced=%d truncated=%v", produced, truncated)
	}
	res := CheckRA(h, counterSpec{}, CheckOptions{Exhaustive: true})
	if res.Verdict != VerdictValid {
		t.Fatalf("single inc must be RA-linearizable: %+v", res)
	}
}

// plantVisUnchecked inserts a visibility edge directly into the history's
// adjacency and the target's ancestor row, bypassing AddVis's cycle check
// and closure propagation. Test-only: it lets tests build the cyclic
// relations AddVis rejects.
func plantVisUnchecked(h *History, from, to uint64) {
	f, _ := h.lookup(from)
	t, _ := h.lookup(to)
	rf, rt := f.rank, t.rank
	h.adjOut[rf] = append(h.adjOut[rf], rt)
	h.adjIn[rt] = append(h.adjIn[rt], rf)
	h.pred[rt].set(int(rf))
}

// cyclicHistory builds a two-label history whose visibility relation is a
// cycle. AddVis rejects cycles, so the relation is planted directly — the
// checker must still reject such histories (they can in principle arise from
// object compositions, Section 5.1).
func cyclicHistory() *History {
	h := NewHistory()
	h.MustAdd(mkLabel(1, "inc", KindUpdate))
	h.MustAdd(mkLabel(2, "inc", KindUpdate))
	plantVisUnchecked(h, 1, 2)
	plantVisUnchecked(h, 2, 1)
	return h
}

func TestCyclicVisibilityRejected(t *testing.T) {
	h := cyclicHistory()
	if h.IsAcyclic() {
		t.Fatal("test history must be cyclic")
	}
	produced, truncated := LinearExtensions(h, 0, func([]*Label) bool { return true })
	if produced != 0 || truncated {
		t.Fatalf("a cyclic relation has no linear extensions: produced=%d truncated=%v", produced, truncated)
	}
	res := CheckRA(h, counterSpec{}, DefaultCheckOptions())
	if res.Verdict != VerdictInvalid || res.LastErr == nil {
		t.Fatalf("cyclic history must be rejected definitively: %+v", res)
	}
	strong := CheckStrongLinearizable(h, counterSpec{}, CheckOptions{Exhaustive: true})
	if strong.Verdict != VerdictInvalid || strong.LastErr == nil {
		t.Fatalf("cyclic history must fail the strong check definitively: %+v", strong)
	}
}

func TestMaxExtensionsTruncationIncomplete(t *testing.T) {
	// Three concurrent updates none of which the spec admits: every one of
	// the 3! extensions is rejected, so capping the enumeration below 6 must
	// report an incomplete (non-definitive) verdict.
	h := NewHistory()
	for id := uint64(1); id <= 3; id++ {
		h.MustAdd(mkLabel(id, "bogus", KindUpdate))
	}
	res := CheckRA(h, counterSpec{}, CheckOptions{Exhaustive: true, MaxExtensions: 2, Engine: EngineLegacy})
	if res.Verdict == VerdictValid {
		t.Fatalf("bogus updates must not linearize: %+v", res)
	}
	if res.Verdict != VerdictUnknown {
		t.Fatal("a truncated search must report Complete == false")
	}
	if res.Tried != 2 {
		t.Fatalf("MaxExtensions=2 must try exactly 2 candidates, tried %d", res.Tried)
	}
	// Without the cap the same verdict becomes definitive.
	full := CheckRA(h, counterSpec{}, CheckOptions{Exhaustive: true, Engine: EngineLegacy})
	if full.Verdict != VerdictInvalid {
		t.Fatalf("uncapped search must be complete: %+v", full)
	}
	produced, truncated := LinearExtensions(h, 4, func([]*Label) bool { return true })
	if produced != 4 || !truncated {
		t.Fatalf("limit=4 of 6 extensions: produced=%d truncated=%v", produced, truncated)
	}
}
