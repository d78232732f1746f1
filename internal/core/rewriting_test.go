package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ralin/internal/clock"
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

	// The image is the label itself; the transport stores a copy, so the
	// rewritten history aliases no source label.
	if imgs, err := (IdentityRewriting{}).Rewrite(a); err != nil || len(imgs) != 1 || imgs[0] != a {
		t.Fatalf("identity image must be the label itself: %v, %v", imgs, err)
	}
	rew, err = transport(h, IdentityRewriting{})
	if err != nil {
		t.Fatal(err)
	}
	if img := rew.UpdatePart(a.ID); img == a || a.ID != 10 || a.GenSeq != 1 {
		t.Fatalf("transport must copy the image and leave the source label alone: image %p of %p, source %+v", img, a, a)
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
// regression test: a nil rewriting aliases a GenSeq-tied history, keeping
// its original IDs (here deliberately ordered against insertion order),
// while an explicit IdentityRewriting clones it with fresh insertion-order
// IDs. Candidate orders break GenSeq ties by rank, never by ID, so both must
// reach the same witness.
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

// oracleRewriting is the construction RewriteHistory used before the rank
// transport, kept as its test oracle: every image is cloned and added one by
// one with identifiers in insertion order, a pair's q → u edge is inserted as
// the pair arrives, and h's direct edges are inserted through AddVis in
// source-rank order with sorted targets, the rewritten history's own index
// re-deriving the closure. images maps each source identifier to the
// identifiers of its query and update parts.
type oracleRewriting struct {
	h      *History
	images map[uint64][2]uint64
}

func oracleRewrite(h *History, g Rewriting) (*oracleRewriting, error) {
	out := &oracleRewriting{h: NewHistory(), images: make(map[uint64][2]uint64, h.Len())}
	next := uint64(0)
	for _, l := range h.seq {
		imgs, err := g.Rewrite(l)
		if err != nil {
			return nil, fmt.Errorf("rewrite %v: %w", l, err)
		}
		switch len(imgs) {
		case 1:
			img := imgs[0].Clone()
			if l.IsQueryUpdate() {
				return nil, fmt.Errorf("rewrite %v: query-update must map to a (query, update) pair", l)
			}
			if img.Kind != l.Kind {
				return nil, fmt.Errorf("rewrite %v: image kind %v differs from original kind %v", l, img.Kind, l.Kind)
			}
			next++
			img.ID, img.Origin, img.GenSeq = next, l.Origin, l.GenSeq*2
			out.h.MustAdd(img)
			out.images[l.ID] = [2]uint64{img.ID, img.ID}
		case 2:
			if !l.IsQueryUpdate() {
				return nil, fmt.Errorf("rewrite %v: only query-updates may map to pairs", l)
			}
			q, u := imgs[0].Clone(), imgs[1].Clone()
			if !q.IsQuery() || !u.IsUpdate() {
				return nil, fmt.Errorf("rewrite %v: pair must be (query, update), got (%v, %v)", l, q.Kind, u.Kind)
			}
			q.ID, q.Origin, q.GenSeq = next+1, l.Origin, l.GenSeq*2
			u.ID, u.Origin, u.GenSeq = next+2, l.Origin, l.GenSeq*2+1
			next += 2
			out.h.MustAdd(q)
			out.h.MustAdd(u)
			out.h.MustAddVis(q.ID, u.ID)
			out.images[l.ID] = [2]uint64{q.ID, u.ID}
		default:
			return nil, fmt.Errorf("rewrite %v: image must have one or two labels, got %d", l, len(imgs))
		}
	}
	for rf, outs := range h.adjOut {
		tos := slices.Clone(outs)
		slices.Sort(tos)
		from := h.seq[rf]
		for _, rt := range tos {
			to := h.seq[rt]
			if err := out.h.AddVis(out.images[from.ID][1], out.images[to.ID][0]); err != nil {
				return nil, fmt.Errorf("rewrite visibility %v -> %v: %w", from, to, err)
			}
		}
	}
	return out, nil
}

// checkTransport compares rew — RewriteHistory(h, g)'s result and err, or an
// extension of it to h — with the oracle's construction of γ(h): the same
// error text, or label-for-label equal histories (every field, and the
// lookups by identifier), the same image pairs, and equal ancestor rows at
// every rank.
func checkTransport(h *History, g Rewriting, rew *RewrittenHistory, err error) error {
	want, wantErr := oracleRewrite(h, g)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		return fmt.Errorf("error %v, oracle error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	got, exp := rew.History, want.h
	if got.Len() != exp.Len() {
		return fmt.Errorf("%d labels, oracle %d", got.Len(), exp.Len())
	}
	row := func(h *History, r int) []int {
		var out []int
		h.PredRow(r, func(s int) { out = append(out, s) })
		return out
	}
	for r := 0; r < exp.Len(); r++ {
		l := got.LabelAt(r)
		if !reflect.DeepEqual(*l, *exp.LabelAt(r)) {
			return fmt.Errorf("rank %d: label %+v, oracle %+v", r, *l, *exp.LabelAt(r))
		}
		if k, ok := got.RankOf(l.ID); !ok || k != r || got.Label(l.ID) != l {
			return fmt.Errorf("rank %d: identifier %d resolves to rank %d (%v)", r, l.ID, k, ok)
		}
		if a, b := row(got, r), row(exp, r); !slices.Equal(a, b) {
			return fmt.Errorf("rank %d: row %v, oracle %v", r, a, b)
		}
	}
	for _, l := range h.seq {
		q, u := rew.QueryPart(l.ID), rew.UpdatePart(l.ID)
		if q == nil || u == nil || [2]uint64{q.ID, u.ID} != want.images[l.ID] {
			return fmt.Errorf("label %d: image parts %v, %v, oracle %v", l.ID, q, u, want.images[l.ID])
		}
	}
	return nil
}

// tieHistory is a history whose GenSeqs tie, with label IDs against
// insertion order.
func tieHistory() *History {
	h := NewHistory()
	a := h.MustAdd(&Label{ID: 50, Method: "add", Args: []Value{"first"}, Kind: KindUpdate, GenSeq: 1, Origin: 1})
	b := h.MustAdd(&Label{ID: 10, Method: "add", Args: []Value{"second"}, Kind: KindUpdate, GenSeq: 1, Origin: 2})
	c := h.MustAdd(&Label{ID: 30, Method: "read", Ret: []string{"first", "second"}, Kind: KindQuery, GenSeq: 3, Origin: 1})
	h.MustAddVis(a.ID, c.ID)
	h.MustAddVis(b.ID, c.ID)
	return h
}

// TestRewriteTransportMatchesOracle pins the rank transport against the
// construction it replaced on the fixed histories of this file, a GenSeq-tie
// history, and the four bad rewritings (same error text).
func TestRewriteTransportMatchesOracle(t *testing.T) {
	h := NewHistory()
	for i := 1; i <= 70; i++ {
		kind, method := KindUpdate, "add"
		switch i % 5 {
		case 0:
			kind, method = KindQueryUpdate, "remove"
		case 3:
			kind, method = KindQuery, "read"
		}
		h.MustAdd(&Label{ID: uint64(1000 - i), Method: method, Args: []Value{"a", int64(i)}, Ret: []Pair{}, Kind: kind, GenSeq: uint64(i), Origin: clock.ReplicaID(i % 3)})
		// Edges from a few earlier labels, some implied by others.
		for _, back := range []int{1, 2, 7, 66} {
			if j := i - back; j >= 1 && (i+back)%3 != 0 {
				h.MustAddVis(uint64(1000-j), uint64(1000-i))
			}
		}
	}
	rew, err := RewriteHistory(h, orSetLikeRewriting)
	if err := checkTransport(h, orSetLikeRewriting, rew, err); err != nil {
		t.Fatalf("70-label history with pairs: %v", err)
	}
	sparse := sparseHistory(130)
	rew, err = RewriteHistory(sparse, IdentityRewriting{})
	if err := checkTransport(sparse, IdentityRewriting{}, rew, err); err != nil {
		t.Fatalf("sparse history: %v", err)
	}
	tie := tieHistory()
	rew, err = RewriteHistory(tie, IdentityRewriting{})
	if err := checkTransport(tie, IdentityRewriting{}, rew, err); err != nil {
		t.Fatalf("GenSeq-tie history: %v", err)
	}
	for name, g := range badRewritings() {
		for _, kind := range []Kind{KindUpdate, KindQuery, KindQueryUpdate} {
			h := NewHistory()
			h.MustAdd(&Label{ID: 1, Method: "add", Kind: KindUpdate, GenSeq: 1})
			h.MustAdd(&Label{ID: 2, Method: "op", Kind: kind, GenSeq: 2})
			rew, err := RewriteHistory(h, g)
			if err := checkTransport(h, g, rew, err); err != nil {
				t.Fatalf("%s on a %v label: %v", name, kind, err)
			}
		}
	}
}

// badRewritings returns the rewritings RewriteHistory must reject: a kind
// change, a pair for a label that is not a query-update, an (update, update)
// split, a rewriting error, and images of the wrong size — each only for
// labels with Method "op", so the labels before it rewrite fine.
func badRewritings() map[string]Rewriting {
	only := func(f func(l *Label) ([]*Label, error)) Rewriting {
		return RewriteFunc(func(l *Label) ([]*Label, error) {
			if l.Method != "op" {
				return orSetLikeRewriting(l)
			}
			return f(l)
		})
	}
	return map[string]Rewriting{
		"kind": only(func(l *Label) ([]*Label, error) {
			c := l.Clone()
			c.Kind = KindQuery
			return []*Label{c}, nil
		}),
		"pair": only(func(l *Label) ([]*Label, error) {
			return []*Label{l.Clone(), l.Clone()}, nil
		}),
		"split": only(func(l *Label) ([]*Label, error) {
			q, u := l.Clone(), l.Clone()
			q.Kind, u.Kind = KindUpdate, KindUpdate
			return []*Label{q, u}, nil
		}),
		"error": only(func(l *Label) ([]*Label, error) {
			return nil, fmt.Errorf("boom")
		}),
		"size": only(func(l *Label) ([]*Label, error) {
			return []*Label{l.Clone(), l.Clone(), l.Clone()}, nil
		}),
	}
}

// TestExtendRewritingMatchesTransport grows a history one label at a time,
// each arriving with edges from earlier labels, and extends a transported
// rewriting of its first labels through ExtendRewriting: after every step
// the extension must equal both a from-scratch transport and the oracle.
func TestExtendRewritingMatchesTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := NewHistory()
		var rew *RewrittenHistory
		start := rng.Intn(6)
		for i := 0; i < 40; i++ {
			if i == start {
				var err error
				if rew, err = RewriteHistory(h, orSetLikeRewriting); err != nil {
					t.Fatal(err)
				}
			}
			growRandom(rng, h)
			if rew == nil {
				continue
			}
			if err := ExtendRewriting(rew, h, h.Len()-1, orSetLikeRewriting); err != nil {
				t.Fatal(err)
			}
			if err := checkTransport(h, orSetLikeRewriting, rew, nil); err != nil {
				t.Fatalf("trial %d, %d labels, extended: %v", trial, h.Len(), err)
			}
			fresh, err := RewriteHistory(h, orSetLikeRewriting)
			if err := checkTransport(h, orSetLikeRewriting, fresh, err); err != nil {
				t.Fatalf("trial %d, %d labels, from scratch: %v", trial, h.Len(), err)
			}
		}
	}
}

// growRandom appends one random label (update, query or query-update, GenSeq
// possibly tied) with edges from a random subset of the earlier labels.
func growRandom(rng *rand.Rand, h *History) {
	n := h.Len()
	kind, method := KindUpdate, "add"
	switch rng.Intn(4) {
	case 0:
		kind, method = KindQuery, "read"
	case 1:
		kind, method = KindQueryUpdate, "remove"
	}
	l := h.MustAdd(&Label{ID: uint64(3*n + 5), Method: method, Args: []Value{"a"}, Kind: kind, GenSeq: uint64(n - rng.Intn(2)), Origin: clock.ReplicaID(rng.Intn(3))})
	for r := 0; r < n; r++ {
		if rng.Intn(4) == 0 {
			h.MustAddVis(h.LabelAt(r).ID, l.ID)
		}
	}
}

// FuzzRewriteTransport is the fuzz face of the transport oracle: the bytes
// decode into a history grown label by label (kinds, GenSeq ties, edges from
// earlier labels) and a rewriting — the pair-splitting one, the nil one, or
// one of the bad ones — and the transport of every prefix, plus its op-by-op
// extension under a valid rewriting, must match the oracle exactly.
func FuzzRewriteTransport(f *testing.F) {
	f.Add(byte(0), []byte{1, 2, 3, 0x41, 5, 0x16, 7, 0x88})
	f.Add(byte(1), []byte{0, 0, 4, 4, 8, 8})
	f.Add(byte(3), []byte{2, 9, 0x33, 0x60, 0x17})
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		bad := badRewritings()
		names := slices.Sorted(maps.Keys(bad))
		var g Rewriting = orSetLikeRewriting
		k := int(mode) % (len(names) + 2)
		switch {
		case k == 1:
			g = nil
		case k >= 2:
			g = bad[names[k-2]]
		}
		h := NewHistory()
		var rew *RewrittenHistory
		for i, b := range data {
			kind, method := KindUpdate, "add"
			switch b & 3 {
			case 1:
				kind, method = KindQuery, "read"
			case 2:
				kind, method = KindQueryUpdate, "remove"
			case 3:
				method = "op"
			}
			l := h.MustAdd(&Label{ID: uint64(100 - i), Method: method, Args: []Value{"a"}, Kind: kind, GenSeq: uint64(b >> 5), Origin: clock.ReplicaID(b >> 6)})
			for r := 0; r < i; r++ {
				if (uint(b)>>2+uint(r))%5 == 0 {
					h.MustAddVis(h.LabelAt(r).ID, l.ID)
				}
			}
			fresh, err := RewriteHistory(h, g)
			oracle := g
			if oracle == nil {
				oracle = IdentityRewriting{}
			}
			if err == nil && fresh.Aliased() {
				continue
			}
			if err := checkTransport(h, oracle, fresh, err); err != nil {
				t.Fatalf("%d labels: %v", h.Len(), err)
			}
			if k != 0 {
				continue
			}
			if rew == nil {
				rew = fresh
				continue
			}
			if err := ExtendRewriting(rew, h, h.Len()-1, g); err != nil {
				t.Fatal(err)
			}
			if err := checkTransport(h, g, rew, nil); err != nil {
				t.Fatalf("%d labels, extended: %v", h.Len(), err)
			}
		}
	})
}
