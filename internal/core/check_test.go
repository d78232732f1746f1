package core

import (
	"strings"
	"testing"

	"ralin/internal/clock"
)

// counterHistory builds a small concurrent counter history:
//
//	r1: inc (1) · read ⇒ 1 (3)
//	r2: inc (2)
//
// where the read sees only r1's inc.
func counterHistory() *History {
	h := NewHistory()
	inc1 := h.MustAdd(&Label{ID: 1, Method: "inc", Kind: KindUpdate, Origin: 1, GenSeq: 1})
	h.MustAdd(&Label{ID: 2, Method: "inc", Kind: KindUpdate, Origin: 2, GenSeq: 2})
	read := h.MustAdd(&Label{ID: 3, Method: "read", Ret: int64(1), Kind: KindQuery, Origin: 1, GenSeq: 3})
	h.MustAddVis(inc1.ID, read.ID)
	return h
}

func TestIsRALinearizationCounter(t *testing.T) {
	h := counterHistory()
	spec := counterSpec{}
	seq := []*Label{h.Label(1), h.Label(2), h.Label(3)}
	if err := IsRALinearization(h, seq, spec); err != nil {
		t.Fatalf("valid RA-linearization rejected: %v", err)
	}
	// The read ignores the concurrent inc (it is not visible), so ordering
	// the second inc before the read is still fine; ordering the read before
	// its visible inc is not consistent with visibility.
	bad := []*Label{h.Label(3), h.Label(1), h.Label(2)}
	if err := IsRALinearization(h, bad, spec); err == nil {
		t.Fatal("sequence against visibility must be rejected")
	}
}

func TestIsRALinearizationRejectsWrongQuery(t *testing.T) {
	h := counterHistory()
	h.Label(3).Ret = int64(2) // the read saw only one inc, so 2 is unjustifiable
	spec := counterSpec{}
	seq := []*Label{h.Label(1), h.Label(2), h.Label(3)}
	if err := IsRALinearization(h, seq, spec); err == nil {
		t.Fatal("unjustifiable query must be rejected")
	}
}

// TestIsRALinearizationRejectsForgedWitness checks that the validator steps
// the history's own labels: a witness that swaps in an edited copy of a
// label under the same identifier describes a different history and must be
// rejected, and a nil label is an error, not a panic.
func TestIsRALinearizationRejectsForgedWitness(t *testing.T) {
	h := NewHistory()
	inc := h.MustAdd(&Label{ID: 1, Method: "inc", Kind: KindUpdate, Origin: 1, GenSeq: 1})
	read := h.MustAdd(&Label{ID: 2, Method: "read", Ret: int64(5), Kind: KindQuery, Origin: 1, GenSeq: 2})
	h.MustAddVis(inc.ID, read.ID)
	if err := IsRALinearization(h, []*Label{inc, read}, counterSpec{}); err == nil {
		t.Fatal("read => 5 after one inc must be rejected")
	}
	forged := read.Clone()
	forged.Ret = int64(1)
	err := IsRALinearization(h, []*Label{inc, forged}, counterSpec{})
	if err == nil || !strings.Contains(err.Error(), "condition (i)") {
		t.Fatalf("a witness carrying an edited copy of the read must fail condition (i), got %v", err)
	}
	if err := IsRALinearization(h, []*Label{inc, nil}, counterSpec{}); err == nil {
		t.Fatal("a nil witness label must be rejected")
	}
}

func TestIsRALinearizationRejectsQueryUpdates(t *testing.T) {
	h := NewHistory()
	h.MustAdd(&Label{ID: 1, Method: "remove", Kind: KindQueryUpdate})
	if err := IsRALinearization(h, h.Labels(), setSpec{}); err == nil {
		t.Fatal("query-update labels must be rejected before rewriting")
	}
}

func TestCheckRACounter(t *testing.T) {
	h := counterHistory()
	res := CheckRA(h, counterSpec{}, DefaultCheckOptions())
	if res.Verdict != VerdictValid {
		t.Fatalf("history must be RA-linearizable: %v", res.LastErr)
	}
	if res.Strategy == nil || *res.Strategy != StrategyExecutionOrder {
		t.Fatalf("expected execution-order witness, got %v", res.Strategy)
	}
	if len(res.Linearization) != 3 {
		t.Fatalf("witness has %d labels", len(res.Linearization))
	}
}

func TestCheckRAExhaustiveFallback(t *testing.T) {
	// A history where the execution order is NOT a valid linearization but
	// some other order is: a read that does not see an earlier-generated
	// concurrent inc, and whose value requires the inc to come later.
	h := NewHistory()
	h.MustAdd(&Label{ID: 1, Method: "inc", Kind: KindUpdate, Origin: 2, GenSeq: 1})
	h.MustAdd(&Label{ID: 2, Method: "read", Ret: int64(0), Kind: KindQuery, Origin: 1, GenSeq: 2})
	// No visibility: the read saw nothing.
	opts := CheckOptions{Exhaustive: true}
	res := CheckRA(h, counterSpec{}, opts)
	if res.Verdict != VerdictValid {
		t.Fatalf("history must be RA-linearizable by some extension: %v", res.LastErr)
	}
	// With only the execution-order strategy and no exhaustive search the
	// verdict must be inconclusive (read⇒0 is fine actually: the read does not
	// see the inc, so even execution order works). Make the read see the inc
	// to force a genuine failure.
	h2 := NewHistory()
	inc := h2.MustAdd(&Label{ID: 1, Method: "inc", Kind: KindUpdate, Origin: 2, GenSeq: 1})
	read := h2.MustAdd(&Label{ID: 2, Method: "read", Ret: int64(0), Kind: KindQuery, Origin: 1, GenSeq: 2})
	h2.MustAddVis(inc.ID, read.ID)
	res2 := CheckRA(h2, counterSpec{}, DefaultCheckOptions())
	if res2.Verdict == VerdictValid {
		t.Fatal("read⇒0 seeing an inc must not be RA-linearizable")
	}
	if res2.Verdict == VerdictUnknown {
		t.Fatal("small search space must be exhausted")
	}
}

func TestCheckRANotLinearizableIsComplete(t *testing.T) {
	h := NewHistory()
	inc := h.MustAdd(&Label{ID: 1, Method: "inc", Kind: KindUpdate, Origin: 1, GenSeq: 1})
	read := h.MustAdd(&Label{ID: 2, Method: "read", Ret: int64(5), Kind: KindQuery, Origin: 1, GenSeq: 2})
	h.MustAddVis(inc.ID, read.ID)
	res := CheckRA(h, counterSpec{}, DefaultCheckOptions())
	if res.Verdict != VerdictInvalid {
		t.Fatalf("expected complete negative verdict, got %+v", res)
	}
	if res.LastErr == nil {
		t.Fatal("negative verdict must carry an explanation")
	}
}

func TestCheckRATruncatedSearchIsIncomplete(t *testing.T) {
	// Many concurrent unjustifiable reads: with a tiny extension cap the
	// search must report an incomplete verdict.
	h := NewHistory()
	var id uint64
	for i := 0; i < 6; i++ {
		id++
		h.MustAdd(&Label{ID: id, Method: "inc", Kind: KindUpdate, Origin: clock.ReplicaID(i), GenSeq: id})
	}
	id++
	bad := h.MustAdd(&Label{ID: id, Method: "read", Ret: int64(99), Kind: KindQuery, Origin: 0, GenSeq: id})
	for i := uint64(1); i <= 6; i++ {
		h.MustAddVis(i, bad.ID)
	}
	res := CheckRA(h, counterSpec{}, CheckOptions{Exhaustive: true, MaxExtensions: 3})
	if res.Verdict == VerdictValid {
		t.Fatal("unjustifiable read cannot be linearized")
	}
	if res.Verdict != VerdictUnknown {
		t.Fatal("truncated search must be reported as incomplete")
	}
}

func TestCheckRAWithQueryUpdateRewriting(t *testing.T) {
	// OR-Set style scenario on the naive set spec via rewriting: the remove
	// observed only the first add, the concurrent add survives.
	h := NewHistory()
	add1 := h.MustAdd(&Label{ID: 1, Method: "add", Args: []Value{"a"}, Kind: KindUpdate, Origin: 1, GenSeq: 1})
	add2 := h.MustAdd(&Label{ID: 2, Method: "add", Args: []Value{"a"}, Kind: KindUpdate, Origin: 2, GenSeq: 2})
	rem := h.MustAdd(&Label{ID: 3, Method: "remove", Args: []Value{"a"}, Ret: []Pair{{Elem: "a", ID: 1}}, Kind: KindQueryUpdate, Origin: 1, GenSeq: 3})
	read := h.MustAdd(&Label{ID: 4, Method: "read", Ret: []string{"a"}, Kind: KindQuery, Origin: 2, GenSeq: 4})
	h.MustAddVis(add1.ID, rem.ID)
	h.MustAddVis(add1.ID, read.ID)
	h.MustAddVis(add2.ID, read.ID)
	h.MustAddVis(rem.ID, read.ID)

	// Specification over pairs: add(a) with identifier, removeIds(R), read.
	spec := pairSetSpec{}
	opts := DefaultCheckOptions()
	opts.Rewriting = pairSetRewriting
	res := CheckRA(h, spec, opts)
	if res.Verdict != VerdictValid {
		t.Fatalf("rewritten OR-Set style history must be RA-linearizable: %v", res.LastErr)
	}
	if res.Rewritten.Len() != 5 {
		t.Fatalf("rewritten history must have 5 labels, got %d", res.Rewritten.Len())
	}
}

func TestCheckStrongLinearizable(t *testing.T) {
	// The same counter history is strongly linearizable…
	res := CheckStrongLinearizable(counterHistory(), counterSpec{}, CheckOptions{})
	if res.Verdict != VerdictValid {
		t.Fatalf("counter history must be strongly linearizable: %v", res.LastErr)
	}
	// …but a read that sees both incs yet returns 1 is not.
	h := NewHistory()
	a := h.MustAdd(&Label{ID: 1, Method: "inc", Kind: KindUpdate, Origin: 1, GenSeq: 1})
	b := h.MustAdd(&Label{ID: 2, Method: "inc", Kind: KindUpdate, Origin: 2, GenSeq: 2})
	r := h.MustAdd(&Label{ID: 3, Method: "read", Ret: int64(1), Kind: KindQuery, Origin: 1, GenSeq: 3})
	h.MustAddVis(a.ID, r.ID)
	h.MustAddVis(b.ID, r.ID)
	res2 := CheckStrongLinearizable(h, counterSpec{}, CheckOptions{})
	if res2.Verdict != VerdictInvalid {
		t.Fatal("read⇒1 seeing two incs must not be strongly linearizable")
	}
	// RA-linearizability is weaker only through the sub-sequence relaxation
	// for queries; here the read sees both updates so it must fail too.
	res3 := CheckRA(h, counterSpec{}, DefaultCheckOptions())
	if res3.Verdict == VerdictValid {
		t.Fatal("read⇒1 seeing two incs must not be RA-linearizable either")
	}
}

func TestLinearExtensionsCountAndOrder(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(mkLabel(1, "a", KindUpdate))
	b := h.MustAdd(mkLabel(2, "b", KindUpdate))
	c := h.MustAdd(mkLabel(3, "c", KindUpdate))
	h.MustAddVis(a.ID, b.ID)
	_ = c

	var seen [][]uint64
	n, truncated := LinearExtensions(h, 0, func(seq []*Label) bool {
		ids := make([]uint64, len(seq))
		for i, l := range seq {
			ids[i] = l.ID
		}
		seen = append(seen, ids)
		return true
	})
	if truncated {
		t.Fatal("unbounded enumeration must not truncate")
	}
	// Three labels with one order constraint: 3!/2 = 3 extensions.
	if n != 3 || len(seen) != 3 {
		t.Fatalf("expected 3 extensions, got %d", n)
	}
	for _, ids := range seen {
		posA, posB := -1, -1
		for i, id := range ids {
			if id == 1 {
				posA = i
			}
			if id == 2 {
				posB = i
			}
		}
		if posA > posB {
			t.Fatalf("extension %v violates visibility", ids)
		}
	}
	// Early stop.
	n2, _ := LinearExtensions(h, 0, func(seq []*Label) bool { return false })
	if n2 != 1 {
		t.Fatalf("early stop must produce exactly one extension, got %d", n2)
	}
	// Limit.
	n3, truncated3 := LinearExtensions(h, 2, func(seq []*Label) bool { return true })
	if n3 != 2 || !truncated3 {
		t.Fatalf("limit must truncate at 2, got %d truncated=%v", n3, truncated3)
	}
}

func TestExecutionAndTimestampOrderLinearizations(t *testing.T) {
	h := NewHistory()
	// Generated later but with a smaller timestamp.
	b := h.MustAdd(&Label{ID: 1, Method: "addAfter", Kind: KindUpdate, GenSeq: 1, TS: clock.Timestamp{Time: 2, Replica: 1}})
	a := h.MustAdd(&Label{ID: 2, Method: "addAfter", Kind: KindUpdate, GenSeq: 2, TS: clock.Timestamp{Time: 1, Replica: 2}})
	r := h.MustAdd(&Label{ID: 3, Method: "read", Kind: KindQuery, GenSeq: 3})
	h.MustAddVis(a.ID, r.ID)
	h.MustAddVis(b.ID, r.ID)

	eo := ExecutionOrderLinearization(h)
	if eo[0] != b || eo[1] != a || eo[2] != r {
		t.Fatalf("execution order wrong: %s", FormatLabels(eo))
	}
	to := TimestampOrderLinearization(h)
	// a has the smaller timestamp; the read's virtual timestamp equals b's
	// timestamp (the maximum it sees) and the read was generated after b.
	if to[0] != a || to[1] != b || to[2] != r {
		t.Fatalf("timestamp order wrong: %s", FormatLabels(to))
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyExecutionOrder.String() != "execution-order" ||
		StrategyTimestampOrder.String() != "timestamp-order" {
		t.Fatal("strategy rendering wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy must still render")
	}
}
