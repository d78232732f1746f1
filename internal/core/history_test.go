package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ralin/internal/clock"
)

func mkLabel(id uint64, method string, kind Kind) *Label {
	return &Label{ID: id, Method: method, Kind: kind, GenSeq: id}
}

func TestHistoryAddAndLookup(t *testing.T) {
	h := NewHistory()
	a := mkLabel(1, "add", KindUpdate)
	if err := h.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Add(a); err == nil {
		t.Fatal("duplicate identifier must be rejected")
	}
	if err := h.Add(nil); err == nil {
		t.Fatal("nil label must be rejected")
	}
	if h.Label(1) != a || h.Label(2) != nil {
		t.Fatal("Label lookup wrong")
	}
	if h.Len() != 1 {
		t.Fatal("Len wrong")
	}
}

func TestHistoryVisibilityClosure(t *testing.T) {
	h := NewHistory()
	for i := uint64(1); i <= 4; i++ {
		h.MustAdd(mkLabel(i, "op", KindUpdate))
	}
	h.MustAddVis(1, 2)
	h.MustAddVis(2, 3)
	// Transitive closure: 1 must be visible to 3.
	if !h.Vis(1, 3) {
		t.Fatal("visibility must be transitively closed")
	}
	if h.Vis(3, 1) || h.Vis(1, 4) {
		t.Fatal("unexpected visibility edges")
	}
	if !h.Concurrent(3, 4) || h.Concurrent(1, 3) || h.Concurrent(2, 2) {
		t.Fatal("Concurrent wrong")
	}
	if !h.IsAcyclic() {
		t.Fatal("history must be acyclic")
	}
	// Edges that would create cycles are rejected.
	if err := h.AddVis(3, 1); err == nil {
		t.Fatal("cycle must be rejected")
	}
	if err := h.AddVis(1, 1); err == nil {
		t.Fatal("reflexive edge must be rejected")
	}
	if err := h.AddVis(1, 99); err == nil {
		t.Fatal("unknown label must be rejected")
	}
}

func TestHistoryVisibleToAndSeenBy(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(mkLabel(1, "a", KindUpdate))
	b := h.MustAdd(mkLabel(2, "b", KindUpdate))
	c := h.MustAdd(mkLabel(3, "c", KindQuery))
	h.MustAddVis(a.ID, c.ID)
	h.MustAddVis(b.ID, c.ID)
	vt := h.VisibleTo(c)
	if len(vt) != 2 || vt[0] != a || vt[1] != b {
		t.Fatalf("VisibleTo wrong: %v", vt)
	}
	sb := h.SeenBy(a)
	if len(sb) != 1 || sb[0] != c {
		t.Fatalf("SeenBy wrong: %v", sb)
	}
}

func TestHistoryClone(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(&Label{ID: 1, Method: "add", Kind: KindUpdate})
	b := h.MustAdd(&Label{ID: 2, Method: "add", Kind: KindUpdate})
	c := h.MustAdd(&Label{ID: 3, Method: "read", Kind: KindQuery})
	h.MustAddVis(a.ID, c.ID)
	h.MustAddVis(b.ID, c.ID)

	clone := h.Clone()
	if clone.Len() != 3 || !clone.Vis(1, 3) || !clone.Vis(2, 3) {
		t.Fatal("clone lost structure")
	}
	clone.Label(1).Method = "mutated"
	if h.Label(1).Method != "add" {
		t.Fatal("clone must not alias the original labels")
	}
}

func TestHistoryTimestamp(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(&Label{ID: 1, Method: "addAfter", Kind: KindUpdate, TS: clock.Timestamp{Time: 1, Replica: 1}})
	b := h.MustAdd(&Label{ID: 2, Method: "addAfter", Kind: KindUpdate, TS: clock.Timestamp{Time: 2, Replica: 2}})
	r := h.MustAdd(&Label{ID: 3, Method: "read", Kind: KindQuery})
	lonely := h.MustAdd(&Label{ID: 4, Method: "read", Kind: KindQuery})
	h.MustAddVis(a.ID, r.ID)
	h.MustAddVis(b.ID, r.ID)

	if got := h.HistoryTimestamp(a); got != a.TS {
		t.Fatalf("own timestamp must win, got %v", got)
	}
	if got := h.HistoryTimestamp(r); got != b.TS {
		t.Fatalf("virtual timestamp must be the maximal visible one, got %v", got)
	}
	if got := h.HistoryTimestamp(lonely); !got.IsBottom() {
		t.Fatalf("virtual timestamp with empty past must be ⊥, got %v", got)
	}
}

func TestConsistentWithVis(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(mkLabel(1, "a", KindUpdate))
	b := h.MustAdd(mkLabel(2, "b", KindUpdate))
	c := h.MustAdd(mkLabel(3, "c", KindUpdate))
	h.MustAddVis(a.ID, b.ID)

	if err := h.ConsistentWithVis([]*Label{a, b, c}); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
	if err := h.ConsistentWithVis([]*Label{c, a, b}); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
	if err := h.ConsistentWithVis([]*Label{b, a, c}); err == nil {
		t.Fatal("order against visibility must be rejected")
	}
	if err := h.ConsistentWithVis([]*Label{a, b}); err == nil {
		t.Fatal("short sequence must be rejected")
	}
	if err := h.ConsistentWithVis([]*Label{a, a, b}); err == nil {
		t.Fatal("repeated label must be rejected")
	}
	other := mkLabel(9, "x", KindUpdate)
	if err := h.ConsistentWithVis([]*Label{a, b, other}); err == nil {
		t.Fatal("foreign label must be rejected")
	}
	if err := h.ConsistentWithVis([]*Label{a, b, c.Clone()}); err == nil {
		t.Fatal("a copy of a history label must be rejected")
	}
	if err := h.ConsistentWithVis([]*Label{a, nil, c}); err == nil {
		t.Fatal("nil label must be rejected")
	}
}

// TestConsistentWithVisReportsLeastPair pins condition (i)'s message when a
// sequence breaks visibility more than once: it names the least violating
// pair (f, t) — f visible to t, placed after it — in (f, t) rank order,
// however the index rows are swept. The literal message is pinned, and the
// random histories compare against a direct scan of that order over Vis.
func TestConsistentWithVisReportsLeastPair(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(mkLabel(1, "a", KindUpdate))
	b := h.MustAdd(mkLabel(2, "b", KindUpdate))
	c := h.MustAdd(mkLabel(3, "c", KindUpdate))
	d := h.MustAdd(mkLabel(4, "d", KindUpdate))
	h.MustAddVis(1, 4)
	h.MustAddVis(2, 3)
	h.MustAddVis(2, 4)
	// Both orders break a -> d, b -> c and b -> d; c's ancestor row (b) is
	// swept before d's (a, b), yet (a, d) is the least pair.
	const want = "sequence orders d() before a() against visibility"
	for _, seq := range [][]*Label{{d, c, a, b}, {c, d, b, a}} {
		if err := h.ConsistentWithVis(seq); err == nil || err.Error() != want {
			t.Fatalf("ConsistentWithVis(%v) = %v, want %q", seq, err, want)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		h := NewHistory()
		for id := 1; id <= n; id++ {
			h.MustAdd(mkLabel(uint64(id), fmt.Sprintf("op%d", id), KindUpdate))
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			f, to := 1+rng.Intn(n), 1+rng.Intn(n)
			if f < to {
				h.MustAddVis(uint64(f), uint64(to))
			}
		}
		seq := h.Labels()
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		pos := make(map[uint64]int, n)
		for i, l := range seq {
			pos[l.ID] = i
		}
		want := ""
	scan:
		for _, r := range h.Labels() {
			for _, s := range h.Labels() {
				if h.Vis(r.ID, s.ID) && pos[r.ID] > pos[s.ID] {
					want = fmt.Sprintf("sequence orders %v before %v against visibility", s, r)
					break scan
				}
			}
		}
		err := h.ConsistentWithVis(seq)
		if got := fmt.Sprint(err); want == "" && err != nil || want != "" && got != want {
			t.Fatalf("trial %d: ConsistentWithVis = %v, want %q\n%s", trial, err, want, h)
		}
	}
}

// TestAppendTouchesOneRow proves the append cost with a counter: appending
// a label as a sink with its incoming edges (the monitor's growth pattern)
// visits exactly one ancestor row per recorded edge — the new label's — and
// none for an implied edge, however large the causal past of the source.
func TestAppendTouchesOneRow(t *testing.T) {
	const n = 1024
	srcs := appendSources(n, 1)
	h := NewHistory()
	for id := 1; id <= n; id++ {
		h.MustAdd(mkLabel(uint64(id), "add", KindUpdate))
		for _, from := range srcs[id] {
			edges := h.DirectEdgeCount()
			rows := VisitedRows(h, func() { h.MustAddVis(from, uint64(id)) })
			if want := h.DirectEdgeCount() - edges; rows != want {
				t.Fatalf("edge %d -> %d visited %d rows, want %d (its recorded edges)", from, id, rows, want)
			}
		}
	}
	// The sources' causal pasts are most of the history, so a walk over
	// them would visit hundreds of rows per edge.
	if past := len(h.VisibleTo(h.Label(n))); past < n/2 {
		t.Fatalf("last label sees %d labels; the history must be deep enough to tell", past)
	}
}

// legacyVisOracle is the History representation this package used before the
// rank/bitset closure index: labels in insertion order plus the
// visibility relation stored eagerly transitively closed as map-of-maps,
// with AddVis rescanning the full relation per inserted edge. It is kept
// verbatim — same closure maintenance, same error messages — as the
// differential oracle for the closure-free representation, and lives only in
// the test binary.
type legacyVisOracle struct {
	labels map[uint64]*Label
	order  []uint64
	vis    map[uint64]map[uint64]bool
}

func newLegacyVisOracle() *legacyVisOracle {
	return &legacyVisOracle{
		labels: make(map[uint64]*Label),
		vis:    make(map[uint64]map[uint64]bool),
	}
}

func (o *legacyVisOracle) add(l *Label) error {
	if l == nil {
		return fmt.Errorf("history: nil label")
	}
	if _, ok := o.labels[l.ID]; ok {
		return fmt.Errorf("history: duplicate label id %d", l.ID)
	}
	o.labels[l.ID] = l
	o.order = append(o.order, l.ID)
	return nil
}

func (o *legacyVisOracle) addVis(from, to uint64) error {
	if from == to {
		return fmt.Errorf("history: visibility edge %d -> %d is reflexive", from, to)
	}
	if _, ok := o.labels[from]; !ok {
		return fmt.Errorf("history: unknown label %d in visibility edge", from)
	}
	if _, ok := o.labels[to]; !ok {
		return fmt.Errorf("history: unknown label %d in visibility edge", to)
	}
	if o.visible(to, from) {
		return fmt.Errorf("history: visibility edge %d -> %d creates a cycle", from, to)
	}
	preds := append(o.predecessorIDs(from), from)
	succs := append(o.successorIDs(to), to)
	for _, p := range preds {
		for _, s := range succs {
			if p == s {
				continue
			}
			if o.vis[p] == nil {
				o.vis[p] = make(map[uint64]bool)
			}
			o.vis[p][s] = true
		}
	}
	return nil
}

func (o *legacyVisOracle) predecessorIDs(id uint64) []uint64 {
	var out []uint64
	for from, tos := range o.vis {
		if tos[id] {
			out = append(out, from)
		}
	}
	return out
}

func (o *legacyVisOracle) successorIDs(id uint64) []uint64 {
	var out []uint64
	for to := range o.vis[id] {
		out = append(out, to)
	}
	return out
}

func (o *legacyVisOracle) visible(from, to uint64) bool { return o.vis[from][to] }

func (o *legacyVisOracle) concurrent(a, b uint64) bool {
	return a != b && !o.visible(a, b) && !o.visible(b, a)
}

// visibleTo returns vis⁻¹(id) in insertion order, seenBy vis(id) likewise —
// the identifier projections of the History methods they mirror.
func (o *legacyVisOracle) visibleTo(id uint64) []uint64 {
	var out []uint64
	for _, from := range o.order {
		if o.visible(from, id) {
			out = append(out, from)
		}
	}
	return out
}

func (o *legacyVisOracle) seenBy(id uint64) []uint64 {
	var out []uint64
	for _, to := range o.order {
		if o.visible(id, to) {
			out = append(out, to)
		}
	}
	return out
}

// assertMatchesOracle compares every visibility query of h against the
// map-closure oracle: Vis and Concurrent over all ordered pairs (including
// identifiers outside the history, so the closure edge set is compared
// pair by pair), VisibleTo/SeenBy sequences per label, and IsAcyclic.
func assertMatchesOracle(t *testing.T, h *History, o *legacyVisOracle) {
	t.Helper()
	if h.Len() != len(o.order) {
		t.Fatalf("label count diverged: %d vs %d", h.Len(), len(o.order))
	}
	probe := append(append([]uint64(nil), o.order...), 0, ^uint64(0))
	for _, a := range probe {
		for _, b := range probe {
			if got, want := h.Vis(a, b), o.visible(a, b); got != want {
				t.Fatalf("Vis(%d, %d) = %v, oracle %v\n%s", a, b, got, want, h)
			}
			if got, want := h.Concurrent(a, b), o.concurrent(a, b); got != want {
				t.Fatalf("Concurrent(%d, %d) = %v, oracle %v", a, b, got, want)
			}
		}
	}
	for _, id := range o.order {
		l := h.Label(id)
		if l == nil {
			t.Fatalf("label %d missing", id)
		}
		if got, want := labelIDs(h.VisibleTo(l)), o.visibleTo(id); !equalIDs(got, want) {
			t.Fatalf("VisibleTo(%d) = %v, oracle %v", id, got, want)
		}
		if got, want := labelIDs(h.SeenBy(l)), o.seenBy(id); !equalIDs(got, want) {
			t.Fatalf("SeenBy(%d) = %v, oracle %v", id, got, want)
		}
	}
	if !h.IsAcyclic() {
		t.Fatal("AddVis-built history must be acyclic")
	}
}

func labelIDs(ls []*Label) []uint64 {
	out := make([]uint64, len(ls))
	for i, l := range ls {
		out[i] = l.ID
	}
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyEdgeDifferential feeds one AddVis to both representations and asserts
// they return the same verdict (nil, or the identical error message).
func applyEdgeDifferential(t *testing.T, h *History, o *legacyVisOracle, from, to uint64) {
	t.Helper()
	errNew := h.AddVis(from, to)
	errOld := o.addVis(from, to)
	switch {
	case errNew == nil && errOld == nil:
	case errNew != nil && errOld != nil && errNew.Error() == errOld.Error():
	default:
		t.Fatalf("AddVis(%d, %d) verdicts diverged: bitset %v, oracle %v", from, to, errNew, errOld)
	}
}

// TestHistoryBitsetMatchesLegacyOracle drives the rank/bitset index and the
// map-closure oracle through random DAG edge sequences of characteristic
// shapes — dense layered DAGs, sparse pairs, chains, fan-in, fan-out, and
// unrestricted random pairs that also exercise reflexive, unknown-label and
// cycle errors — asserting every query agrees after every insertion round.
func TestHistoryBitsetMatchesLegacyOracle(t *testing.T) {
	type shape struct {
		name  string
		edges func(rng *rand.Rand, n int) [][2]uint64
	}
	shapes := []shape{
		{"dense", func(rng *rand.Rand, n int) [][2]uint64 {
			var es [][2]uint64
			for i := 2; i <= n; i++ {
				for j := 1; j < i; j++ {
					if rng.Intn(2) == 0 {
						es = append(es, [2]uint64{uint64(j), uint64(i)})
					}
				}
			}
			return es
		}},
		{"sparse", func(rng *rand.Rand, n int) [][2]uint64 {
			var es [][2]uint64
			for i := 1; i+1 <= n; i += 2 {
				es = append(es, [2]uint64{uint64(i), uint64(i + 1)})
			}
			return es
		}},
		{"chain", func(rng *rand.Rand, n int) [][2]uint64 {
			var es [][2]uint64
			for i := 1; i < n; i++ {
				es = append(es, [2]uint64{uint64(i), uint64(i + 1)})
			}
			return es
		}},
		{"fan-in", func(rng *rand.Rand, n int) [][2]uint64 {
			var es [][2]uint64
			for i := 1; i < n; i++ {
				es = append(es, [2]uint64{uint64(i), uint64(n)})
			}
			return es
		}},
		{"fan-out", func(rng *rand.Rand, n int) [][2]uint64 {
			var es [][2]uint64
			for i := 2; i <= n; i++ {
				es = append(es, [2]uint64{1, uint64(i)})
			}
			return es
		}},
		{"random", func(rng *rand.Rand, n int) [][2]uint64 {
			var es [][2]uint64
			for k := 0; k < 4*n; k++ {
				// Ids beyond n exercise unknown-label errors; unordered pairs
				// exercise the cycle check from both sides.
				es = append(es, [2]uint64{uint64(rng.Intn(n + 2)), uint64(rng.Intn(n + 2))})
			}
			return es
		}},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 3 + rng.Intn(14)
				h := NewHistory()
				o := newLegacyVisOracle()
				for i := 1; i <= n; i++ {
					l := mkLabel(uint64(i), "op", KindUpdate)
					h.MustAdd(l)
					if err := o.add(l); err != nil {
						t.Fatal(err)
					}
				}
				edges := s.edges(rng, n)
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				for k, e := range edges {
					applyEdgeDifferential(t, h, o, e[0], e[1])
					// Full-query comparison every few edges and at the end —
					// per-edge on the last one so divergence is caught at the
					// smallest counterexample.
					if k%5 == 4 || k == len(edges)-1 {
						assertMatchesOracle(t, h, o)
					}
				}
				assertMatchesOracle(t, h, o)
			}
		})
	}
}

// TestHistoryCloneMatchesOracle checks that clones preserve the exact
// closure of random DAGs.
func TestHistoryCloneMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		h := NewHistory()
		o := newLegacyVisOracle()
		for i := 1; i <= n; i++ {
			l := &Label{ID: uint64(i), Method: "op", Kind: KindUpdate, GenSeq: uint64(i)}
			h.MustAdd(l)
			if err := o.add(l); err != nil {
				t.Fatal(err)
			}
		}
		for i := 2; i <= n; i++ {
			for j := 1; j < i; j++ {
				if rng.Intn(3) == 0 {
					applyEdgeDifferential(t, h, o, uint64(j), uint64(i))
				}
			}
		}
		assertMatchesOracle(t, h.Clone(), o)
	}
}

func TestHistoryString(t *testing.T) {
	h := NewHistory()
	a := h.MustAdd(&Label{ID: 1, Method: "add", Args: []Value{"x"}, Kind: KindUpdate, Origin: 1})
	b := h.MustAdd(&Label{ID: 2, Method: "read", Ret: []string{"x"}, Kind: KindQuery, Origin: 2})
	h.MustAddVis(a.ID, b.ID)
	s := h.String()
	if !strings.Contains(s, "add(x)") || !strings.Contains(s, "sees 1") {
		t.Fatalf("unexpected rendering:\n%s", s)
	}
}

// TestDenseHistoryLookups pins the identifier index of a dense history —
// the rewriting's, whose label at rank r has identifier r+1 and which keeps
// no map: lookups, duplicate detection and Clone work without one, an Add
// that continues the numbering keeps the history dense, and the first Add
// that breaks it builds the map over every earlier label.
func TestDenseHistoryLookups(t *testing.T) {
	h := NewHistory()
	for i := uint64(1); i <= 3; i++ {
		h.MustAdd(&Label{ID: 10 * i, Method: "add", Kind: KindUpdate, GenSeq: i})
	}
	h.MustAddVis(10, 30)
	rew, err := RewriteHistory(h, IdentityRewriting{})
	if err != nil {
		t.Fatal(err)
	}
	d := rew.History
	check := func(d *History, dense bool) {
		t.Helper()
		if (d.byID == nil) != dense {
			t.Fatalf("dense = %v, want %v", d.byID == nil, dense)
		}
		for r := 0; r < d.Len(); r++ {
			l := d.LabelAt(r)
			if k, ok := d.RankOf(l.ID); !ok || k != r || d.Label(l.ID) != l {
				t.Fatalf("identifier %d resolves to rank %d (%v), want %d", l.ID, k, ok, r)
			}
		}
		for _, id := range []uint64{0, uint64(d.Len()) + 7} {
			if _, ok := d.RankOf(id); ok || d.Label(id) != nil || d.Vis(id, 1) {
				t.Fatalf("unknown identifier %d resolved", id)
			}
		}
		if !d.Vis(1, 3) || d.Vis(3, 1) || !d.Concurrent(1, 2) {
			t.Fatal("visibility lookups by identifier disagree with the source")
		}
	}
	check(d, true)
	check(d.Clone(), true)
	if err := d.Add(&Label{ID: 2, Method: "add", Kind: KindUpdate}); err == nil {
		t.Fatal("a duplicate identifier must be rejected")
	}
	d.MustAdd(&Label{ID: 4, Method: "add", Kind: KindUpdate, GenSeq: 8})
	check(d, true)
	d.MustAdd(&Label{ID: 100, Method: "add", Kind: KindUpdate, GenSeq: 9})
	check(d, false)
	d.MustAddVis(4, 100)
	if !d.Vis(4, 100) || !d.Vis(1, 3) {
		t.Fatal("edges after the index was built must resolve")
	}
	check(d.Clone(), false)
}
