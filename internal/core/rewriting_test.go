package core

import (
	"fmt"
	"testing"
)

// orSetLikeRewriting splits remove(a) ⇒ R into readIds(a) ⇒ R · remove(R),
// mirroring Example 3.6.
var orSetLikeRewriting = RewriteFunc(func(l *Label) ([]*Label, error) {
	if l.Method != "remove" {
		return []*Label{l.Clone()}, nil
	}
	q := l.Clone()
	q.Method = "readIds"
	q.Kind = KindQuery
	u := l.Clone()
	u.Method = "removeIds"
	u.Args = []Value{l.Ret}
	u.Ret = nil
	u.Kind = KindUpdate
	return []*Label{q, u}, nil
})

func TestIdentityRewriting(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(&Label{ID: 10, Method: "add", Kind: KindUpdate, GenSeq: 1})
	b := h.MustAdd(&Label{ID: 20, Method: "read", Kind: KindQuery, GenSeq: 2})
	h.MustAddVis(a.ID, b.ID)

	rew, err := RewriteHistory(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rew.History.Len() != 2 {
		t.Fatalf("expected 2 labels, got %d", rew.History.Len())
	}
	qa, ua := rew.QueryPart(a.ID), rew.UpdatePart(a.ID)
	if qa != ua {
		t.Fatal("singleton image must have equal query and update parts")
	}
	if !rew.History.Vis(rew.UpdatePart(a.ID).ID, rew.QueryPart(b.ID).ID) {
		t.Fatal("visibility must be transported")
	}
}

func TestIdentityRewritingRejectsQueryUpdates(t *testing.T) {
	h := NewHistory()
	h.MustAdd(&Label{ID: 1, Method: "remove", Kind: KindQueryUpdate})
	if _, err := RewriteHistory(h, nil); err == nil {
		t.Fatal("identity rewriting must reject query-update labels")
	}
}

func TestQueryUpdateRewriting(t *testing.T) {
	h := NewHistory()
	add := h.MustAdd(&Label{ID: 1, Method: "add", Args: []Value{"a"}, Kind: KindUpdate, GenSeq: 1, Origin: 1})
	rem := h.MustAdd(&Label{ID: 2, Method: "remove", Args: []Value{"a"}, Ret: []Pair{{Elem: "a", ID: 1}}, Kind: KindQueryUpdate, GenSeq: 2, Origin: 1})
	read := h.MustAdd(&Label{ID: 3, Method: "read", Ret: []string{}, Kind: KindQuery, GenSeq: 3, Origin: 2})
	h.MustAddVis(add.ID, rem.ID)
	h.MustAddVis(rem.ID, read.ID)

	rew, err := RewriteHistory(h, orSetLikeRewriting)
	if err != nil {
		t.Fatal(err)
	}
	if rew.History.Len() != 4 {
		t.Fatalf("expected 4 labels after splitting, got %d", rew.History.Len())
	}
	q, u := rew.QueryPart(rem.ID), rew.UpdatePart(rem.ID)
	if q.Method != "readIds" || u.Method != "removeIds" {
		t.Fatalf("unexpected split methods %q, %q", q.Method, u.Method)
	}
	if !rew.History.Vis(q.ID, u.ID) {
		t.Fatal("query part must be visible to update part")
	}
	// The query part sees what the original saw; anything that saw the
	// original must see the update part.
	if !rew.History.Vis(rew.UpdatePart(add.ID).ID, q.ID) {
		t.Fatal("add must be visible to the query part of remove")
	}
	if !rew.History.Vis(u.ID, rew.QueryPart(read.ID).ID) {
		t.Fatal("update part of remove must be visible to the read")
	}
	// Origins are preserved and generator order keeps the split adjacent.
	if q.Origin != rem.Origin || u.Origin != rem.Origin {
		t.Fatal("origins must be preserved")
	}
	if q.GenSeq >= u.GenSeq {
		t.Fatal("query part must precede update part in generation order")
	}
}

// TestNilRewritingAliasesWithoutTies pins the aliasing fast path's positive
// cases: distinct GenSeqs — monotone or not in insertion order — keep the
// input history aliased instead of cloned.
func TestNilRewritingAliasesWithoutTies(t *testing.T) {
	monotone := NewHistory()
	monotone.MustAdd(&Label{ID: 7, Method: "add", Args: []Value{"a"}, Kind: KindUpdate, GenSeq: 1})
	monotone.MustAdd(&Label{ID: 3, Method: "add", Args: []Value{"b"}, Kind: KindUpdate, GenSeq: 2})
	rew, err := RewriteHistory(monotone, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rew.History != monotone {
		t.Fatal("distinct monotone GenSeqs must alias the input history")
	}

	shuffled := NewHistory()
	shuffled.MustAdd(&Label{ID: 7, Method: "add", Args: []Value{"a"}, Kind: KindUpdate, GenSeq: 5})
	shuffled.MustAdd(&Label{ID: 3, Method: "add", Args: []Value{"b"}, Kind: KindUpdate, GenSeq: 2})
	shuffled.MustAdd(&Label{ID: 9, Method: "add", Args: []Value{"c"}, Kind: KindUpdate, GenSeq: 4})
	rew, err = RewriteHistory(shuffled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rew.History != shuffled {
		t.Fatal("distinct out-of-order GenSeqs must still alias the input history")
	}
}

// TestNilRewritingFallsBackOnGenSeqTies is the aliasing/cloning divergence
// regression test: candidate orders break GenSeq ties on label ID, which
// under aliasing is the original ID (here deliberately ordered against
// insertion order) while cloning assigns fresh insertion-order IDs. A tied
// history must therefore take the cloning path, making a nil rewriting
// byte-identical to an explicit IdentityRewriting on every input.
func TestNilRewritingFallsBackOnGenSeqTies(t *testing.T) {
	build := func() *History {
		h := NewHistory()
		// Insertion order "first", "second"; ID order the other way around.
		h.MustAdd(&Label{ID: 50, Method: "add", Args: []Value{"first"}, Kind: KindUpdate, GenSeq: 1, Origin: 1})
		h.MustAdd(&Label{ID: 10, Method: "add", Args: []Value{"second"}, Kind: KindUpdate, GenSeq: 1, Origin: 2})
		return h
	}
	rew, err := RewriteHistory(build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	aliased := build()
	if rew.History.Len() != aliased.Len() {
		t.Fatalf("fallback must preserve the labels: %d vs %d", rew.History.Len(), aliased.Len())
	}

	opts := CheckOptions{Strategies: []Strategy{StrategyExecutionOrder}, Exhaustive: true}
	viaNil := CheckRA(build(), setSpec{}, opts)
	identOpts := opts
	identOpts.Rewriting = IdentityRewriting{}
	viaIdentity := CheckRA(build(), setSpec{}, identOpts)
	if viaNil.Verdict != VerdictValid || viaIdentity.Verdict != VerdictValid {
		t.Fatalf("two concurrent adds must linearize: nil=%+v identity=%+v", viaNil, viaIdentity)
	}
	if len(viaNil.Linearization) != len(viaIdentity.Linearization) {
		t.Fatalf("witness lengths differ: %d vs %d", len(viaNil.Linearization), len(viaIdentity.Linearization))
	}
	for i := range viaNil.Linearization {
		a, b := viaNil.Linearization[i], viaIdentity.Linearization[i]
		if a.Method != b.Method || !ValueEqual(a.Args, b.Args) || a.Origin != b.Origin {
			t.Fatalf("witness position %d diverged between nil rewriting and IdentityRewriting: %v vs %v", i, a, b)
		}
	}
}

// TestRewriteVisTransportMatchesAllPairs pins the edge-set visibility
// transport against the all-pairs definition it replaced: for every ordered
// label pair, (ℓ, ℓ') ∈ vis iff (upd(γ(ℓ)), qry(γ(ℓ'))) ∈ vis'.
func TestRewriteVisTransportMatchesAllPairs(t *testing.T) {
	h := NewHistory()
	n := 9
	for i := 1; i <= n; i++ {
		kind := KindUpdate
		method := "add"
		if i%3 == 0 {
			kind = KindQueryUpdate
			method = "remove"
		}
		h.MustAdd(&Label{ID: uint64(i * 11), Method: method, Args: []Value{"a"}, Ret: []Pair{}, Kind: kind, GenSeq: uint64(i)})
	}
	// A sparse relation: a chain over every third label plus two cross edges.
	h.MustAddVis(11, 44)
	h.MustAddVis(44, 77)
	h.MustAddVis(22, 77)
	h.MustAddVis(55, 99)

	rew, err := RewriteHistory(h, orSetLikeRewriting)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range h.Labels() {
		for _, to := range h.Labels() {
			if from.ID == to.ID {
				continue
			}
			want := h.Vis(from.ID, to.ID)
			got := rew.History.Vis(rew.UpdatePart(from.ID).ID, rew.QueryPart(to.ID).ID)
			if want != got {
				t.Errorf("vis(%d, %d) = %v not transported faithfully (got %v)", from.ID, to.ID, want, got)
			}
		}
	}
}

func TestRewriteHistoryValidatesKinds(t *testing.T) {
	badKind := RewriteFunc(func(l *Label) ([]*Label, error) {
		c := l.Clone()
		c.Kind = KindQuery
		return []*Label{c}, nil
	})
	h := NewHistory()
	h.MustAdd(&Label{ID: 1, Method: "add", Kind: KindUpdate})
	if _, err := RewriteHistory(h, badKind); err == nil {
		t.Fatal("kind-changing rewriting must be rejected")
	}

	badPair := RewriteFunc(func(l *Label) ([]*Label, error) {
		return []*Label{l.Clone(), l.Clone()}, nil
	})
	h2 := NewHistory()
	h2.MustAdd(&Label{ID: 1, Method: "add", Kind: KindUpdate})
	if _, err := RewriteHistory(h2, badPair); err == nil {
		t.Fatal("pair image of an update must be rejected")
	}

	badSplit := RewriteFunc(func(l *Label) ([]*Label, error) {
		q := l.Clone()
		q.Kind = KindUpdate
		u := l.Clone()
		u.Kind = KindUpdate
		return []*Label{q, u}, nil
	})
	h3 := NewHistory()
	h3.MustAdd(&Label{ID: 1, Method: "remove", Kind: KindQueryUpdate})
	if _, err := RewriteHistory(h3, badSplit); err == nil {
		t.Fatal("(update, update) split must be rejected")
	}

	erroring := RewriteFunc(func(l *Label) ([]*Label, error) {
		return nil, fmt.Errorf("boom")
	})
	h4 := NewHistory()
	h4.MustAdd(&Label{ID: 1, Method: "add", Kind: KindUpdate})
	if _, err := RewriteHistory(h4, erroring); err == nil {
		t.Fatal("rewriting errors must propagate")
	}
}
