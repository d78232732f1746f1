package core

import (
	"fmt"
	"strings"

	"ralin/internal/clock"
)

// labelAt pairs a label with its dense rank (insertion index); the value type
// of the identifier index.
type labelAt struct {
	label *Label
	rank  int32
}

// History is a pair (L, vis): a set of operation labels together with an
// acyclic visibility relation between them (Section 3.1). Labels are keyed by
// a dense rank (their insertion index); the relation is stored closure-free as
// the directly inserted edges (adjacency slices per rank, in edge insertion
// order) plus an explicit reachability index: one successor bitset per rank,
// maintained incrementally by AddVis, mirrored by one predecessor bitset per
// rank so both directions are row sweeps. Vis and Concurrent are single bit
// probes, VisEdges/SeenBy iterate the successor rows and VisibleTo/indegree
// setup the predecessor rows in rank order (deterministic for a given
// history), and cycle detection is one bit probe — where the previous
// representation kept the whole transitive closure as map-of-maps entries and
// rescanned the full relation per inserted edge. Adjacency and index rows are
// carved from chunked per-history arenas (arena.go), so edge insertion
// allocates only when a chunk fills.
//
// Queries (Vis, Concurrent, VisEdges, VisibleTo, SeenBy, Label, Labels, ...)
// are read-only and safe for concurrent use; Add and AddVis mutate and
// require external synchronization.
type History struct {
	// byID indexes the labels by identifier. It is nil while the history is
	// dense — the label at rank r has identifier r+1, the numbering the
	// γ-rewriting assigns — so lookups are rank arithmetic and the index
	// costs no map; the first Add that breaks the numbering builds the map.
	byID map[uint64]labelAt
	// seq holds the labels by rank, i.e. in insertion order.
	seq []*Label
	// adjOut[r] / adjIn[r] are the direct visibility edges inserted by AddVis
	// (successor and predecessor ranks), in edge insertion order. Edges whose
	// endpoints were already related transitively are not recorded — the
	// adjacency is a generating set of the relation, not its closure.
	adjOut [][]int32
	adjIn  [][]int32
	// nedges counts the recorded direct edges (the generating set, not the
	// closure) so incremental consumers can detect edge growth in O(1).
	nedges int
	// reach[r] is the reachability row of rank r: bit s is set iff seq[r] is
	// (transitively) visible to seq[s].
	reach []bitset
	// pred[r] is the mirrored predecessor row: bit s is set iff seq[s] is
	// (transitively) visible to seq[r] — the transpose of reach, maintained in
	// lockstep so predecessor queries (VisibleTo, HistoryTimestamp, indegree
	// setup during plan build) are row sweeps instead of column scans, at 2×
	// index memory.
	pred []bitset
	// mark/epoch/stack are the propagation walks' scratch: epoch-stamped
	// visited marks so propagating an edge allocates nothing.
	mark  []uint64
	epoch uint64
	stack []int32
	// words/edgeMem are the chunked arenas the index and adjacency rows are
	// carved from.
	words   wordArena
	edgeMem int32Arena
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{}
}

// lookup returns the label with identifier id and its rank.
func (h *History) lookup(id uint64) (labelAt, bool) {
	if h.byID != nil {
		e, ok := h.byID[id]
		return e, ok
	}
	if r := id - 1; r < uint64(len(h.seq)) {
		return labelAt{label: h.seq[r], rank: int32(r)}, true
	}
	return labelAt{}, false
}

// Add inserts a label into the history. Adding a label with a duplicate
// identifier is an error.
func (h *History) Add(l *Label) error {
	if l == nil {
		return fmt.Errorf("history: nil label")
	}
	if _, ok := h.lookup(l.ID); ok {
		return fmt.Errorf("history: duplicate label id %d", l.ID)
	}
	if h.byID == nil && l.ID != uint64(len(h.seq))+1 {
		h.byID = make(map[uint64]labelAt, len(h.seq)+1)
		for r, x := range h.seq {
			h.byID[x.ID] = labelAt{label: x, rank: int32(r)}
		}
	}
	if h.byID != nil {
		h.byID[l.ID] = labelAt{label: l, rank: int32(len(h.seq))}
	}
	h.seq = append(h.seq, l)
	h.adjOut = append(h.adjOut, nil)
	h.adjIn = append(h.adjIn, nil)
	h.reach = append(h.reach, nil)
	h.pred = append(h.pred, nil)
	h.mark = append(h.mark, 0)
	return nil
}

// MustAdd is Add for construction code where a duplicate identifier is a
// programming error.
func (h *History) MustAdd(l *Label) *Label {
	if err := h.Add(l); err != nil {
		panic(err)
	}
	return l
}

// Label returns the label with the given identifier, or nil.
func (h *History) Label(id uint64) *Label {
	e, _ := h.lookup(id)
	return e.label
}

// RankOf returns the insertion rank of the label with the given identifier
// and whether the history contains it. Incremental consumers use it to verify
// that claimed-new labels really are the history's tail.
func (h *History) RankOf(id uint64) (int, bool) {
	e, ok := h.lookup(id)
	return int(e.rank), ok
}

// LabelAt returns the label at the given insertion rank (0 ≤ rank < Len).
func (h *History) LabelAt(rank int) *Label { return h.seq[rank] }

// Len returns the number of labels.
func (h *History) Len() int { return len(h.seq) }

// Labels returns the labels in insertion order.
func (h *History) Labels() []*Label {
	return append([]*Label(nil), h.seq...)
}

// AppendLabels appends the labels in insertion order to dst and returns the
// extended slice. It is Labels for callers that recycle the destination
// buffer across histories (the search engine's pooled prepare plans).
func (h *History) AppendLabels(dst []*Label) []*Label {
	return append(dst, h.seq...)
}

// VisEdges calls fn once for every edge (from, to) of the transitively closed
// visibility relation, in rank order on both endpoints (deterministic for a
// given history). Iterating the reachability rows is O(|vis| + n²/64), where
// the equivalent all-pairs scan over Vis is O(n²) probes regardless of how
// sparse the relation is.
func (h *History) VisEdges(fn func(from, to uint64)) {
	for r, row := range h.reach {
		from := h.seq[r].ID
		row.forEach(func(s int) {
			fn(from, h.seq[s].ID)
		})
	}
}

// DirectVisEdges calls fn once for every directly inserted edge — the
// generating set AddVis recorded, without its transitive consequences — in
// rank order per source and edge insertion order within one source.
func (h *History) DirectVisEdges(fn func(from, to uint64)) {
	for r, outs := range h.adjOut {
		from := h.seq[r].ID
		for _, s := range outs {
			fn(from, h.seq[s].ID)
		}
	}
}

// touchRow re-carves an index row from the word arena when its capacity
// cannot hold words words: capacity for the whole current history (or double
// the old capacity, whichever is larger), so a row re-carves O(log n) times
// under interleaved Add/AddVis and bitset.grow then always extends in place —
// the propagation walks allocate nothing per row.
func (h *History) touchRow(row *bitset, words int) {
	if cap(*row) >= words {
		return
	}
	want := (len(h.seq) + 63) >> 6
	if c := 2 * cap(*row); c > want {
		want = c
	}
	if want < words {
		want = words
	}
	fresh := bitset(h.words.carve(want))[:len(*row)]
	copy(fresh, *row)
	*row = fresh
}

// recordEdge appends the direct edge rf -> rt to both adjacency mirrors,
// carving row growth from the edge arena.
func (h *History) recordEdge(rf, rt int) {
	h.adjOut[rf] = h.edgeMem.appendEdge(h.adjOut[rf], int32(rt))
	h.adjIn[rt] = h.edgeMem.appendEdge(h.adjIn[rt], int32(rf))
	h.nedges++
}

// DirectEdgeCount returns the number of directly recorded visibility edges —
// the generating set AddVis kept, not the closure. Incremental extension uses
// it to detect, in O(1), whether edges appeared between two snapshots beyond
// the ones counted into the appended suffix.
func (h *History) DirectEdgeCount() int { return h.nedges }

// DirectInDegree returns the number of directly recorded edges whose target
// is rank t (the length of the adjIn row, not the closed predecessor set).
func (h *History) DirectInDegree(t int) int { return len(h.adjIn[t]) }

// AddVis records that the label with identifier from is visible to the label
// with identifier to, and maintains the reachability index and its
// predecessor mirror. Adding an edge that would create a cycle is an error;
// adding an edge already implied by the relation is a no-op.
func (h *History) AddVis(from, to uint64) error {
	if from == to {
		return fmt.Errorf("history: visibility edge %d -> %d is reflexive", from, to)
	}
	fa, ok := h.lookup(from)
	if !ok {
		return fmt.Errorf("history: unknown label %d in visibility edge", from)
	}
	ta, ok := h.lookup(to)
	if !ok {
		return fmt.Errorf("history: unknown label %d in visibility edge", to)
	}
	rf, rt := int(fa.rank), int(ta.rank)
	if h.reach[rt].test(rf) {
		return fmt.Errorf("history: visibility edge %d -> %d creates a cycle", from, to)
	}
	if h.reach[rf].test(rt) {
		// Already implied transitively: the closure cannot change, so the
		// edge is not even recorded (the adjacency stays a generating set).
		return nil
	}
	h.recordEdge(rf, rt)
	h.propagateReach(rf, rt)
	h.propagatePred(rf, rt)
	return nil
}

// propagateReach folds the new edge rf -> rt into the reachability index: the
// target's successor row (plus the target itself) is OR-ed into the source's
// row and into every rank that reaches the source, found by walking the
// reverse adjacency — not by scanning the whole relation. A rank whose row
// already absorbed the delta stops the walk early: its own predecessors' rows
// are supersets of it by the index invariant.
func (h *History) propagateReach(rf, rt int) {
	delta := h.reach[rt]
	need := (rt >> 6) + 1
	if len(delta) > need {
		need = len(delta)
	}
	h.epoch++
	stack := append(h.stack[:0], int32(rf))
	h.mark[rf] = h.epoch
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := &h.reach[r]
		h.touchRow(row, need)
		changed := row.set(rt)
		if row.orInto(delta) {
			changed = true
		}
		if !changed {
			continue
		}
		for _, p := range h.adjIn[r] {
			if h.mark[p] != h.epoch {
				h.mark[p] = h.epoch
				stack = append(stack, p)
			}
		}
	}
	h.stack = stack[:0]
}

// propagatePred is propagateReach's mirror image for the predecessor index:
// the source's predecessor row (plus the source itself) is OR-ed into the
// target's row and into every rank the target reaches, walking the forward
// adjacency. The early stop is the transposed invariant: a successor's
// predecessor row is a superset of each of its parents'.
func (h *History) propagatePred(rf, rt int) {
	delta := h.pred[rf]
	need := (rf >> 6) + 1
	if len(delta) > need {
		need = len(delta)
	}
	h.epoch++
	stack := append(h.stack[:0], int32(rt))
	h.mark[rt] = h.epoch
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := &h.pred[r]
		h.touchRow(row, need)
		changed := row.set(rf)
		if row.orInto(delta) {
			changed = true
		}
		if !changed {
			continue
		}
		for _, s := range h.adjOut[r] {
			if h.mark[s] != h.epoch {
				h.mark[s] = h.epoch
				stack = append(stack, s)
			}
		}
	}
	h.stack = stack[:0]
}

// MustAddVis is AddVis for construction code.
func (h *History) MustAddVis(from, to uint64) {
	if err := h.AddVis(from, to); err != nil {
		panic(err)
	}
}

// VisEdge is one directed visibility edge by label identifier: the unit in
// which incremental consumers (monitors, op-by-op corpus replays) record the
// edges that arrive with each appended operation before applying them through
// AddVis.
type VisEdge struct {
	// From is the label that becomes visible to To.
	From uint64
	// To is the observing label.
	To uint64
}

// Vis reports whether the label with identifier from is visible to the label
// with identifier to: one bit probe of the reachability index.
func (h *History) Vis(from, to uint64) bool {
	fa, ok := h.lookup(from)
	if !ok {
		return false
	}
	ta, ok := h.lookup(to)
	if !ok {
		return false
	}
	return h.reach[fa.rank].test(int(ta.rank))
}

// Concurrent reports whether the two labels are concurrent (neither is
// visible to the other), the relation ▷◁ of Section 4.1.
func (h *History) Concurrent(a, b uint64) bool {
	return a != b && !h.Vis(a, b) && !h.Vis(b, a)
}

// VisibleTo returns the labels visible to l (vis⁻¹(l)), in insertion order:
// one row sweep of the predecessor mirror (the pre-mirror version scanned the
// reachability column, probing every rank's row).
func (h *History) VisibleTo(l *Label) []*Label {
	la, ok := h.lookup(l.ID)
	if !ok {
		return nil
	}
	var out []*Label
	h.pred[la.rank].forEach(func(s int) {
		out = append(out, h.seq[s])
	})
	return out
}

// SeenBy returns the labels that see l (vis(l)), in insertion order.
func (h *History) SeenBy(l *Label) []*Label {
	la, ok := h.lookup(l.ID)
	if !ok {
		return nil
	}
	var out []*Label
	h.reach[la.rank].forEach(func(s int) {
		out = append(out, h.seq[s])
	})
	return out
}

// PredRow calls fn for every rank whose label is visible to the label at
// rank t, in ascending rank order: the raw predecessor-mirror sweep, exported
// within the module for the search plan builder's indegree setup.
func (h *History) PredRow(t int, fn func(s int)) {
	h.pred[t].forEach(fn)
}

// SuccRow calls fn for every rank the label at rank f is visible to, in
// ascending rank order: the successor-row counterpart of PredRow. Together the
// two let the search plan builder fill its predecessor and successor index
// lists with one row sweep per label instead of a map-keyed pass over the
// whole closure edge set.
func (h *History) SuccRow(f int, fn func(s int)) {
	h.reach[f].forEach(fn)
}

// IsAcyclic reports whether the visibility relation is acyclic. Histories
// produced by the operational semantics are always acyclic — AddVis rejects
// cycles — but histories of object compositions (Section 5.1) may in
// principle contain cycles (tests plant them directly), and the checker
// rejects them.
func (h *History) IsAcyclic() bool {
	for r, row := range h.reach {
		if row.test(r) {
			return false
		}
		acyclic := true
		row.forEach(func(s int) {
			if h.reach[s].test(r) {
				acyclic = false
			}
		})
		if !acyclic {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the history (labels are cloned). The copy's
// adjacency and index rows are carved from its own fresh arenas, so cloning
// allocates per chunk, not per row.
func (h *History) Clone() *History {
	c := &History{
		nedges: h.nedges,
		seq:    make([]*Label, len(h.seq)),
		adjOut: make([][]int32, len(h.adjOut)),
		adjIn:  make([][]int32, len(h.adjIn)),
		reach:  make([]bitset, len(h.reach)),
		pred:   make([]bitset, len(h.pred)),
		mark:   make([]uint64, len(h.mark)),
	}
	if h.byID != nil {
		c.byID = make(map[uint64]labelAt, len(h.byID))
	}
	for r, l := range h.seq {
		cl := l.Clone()
		c.seq[r] = cl
		if c.byID != nil {
			c.byID[cl.ID] = labelAt{label: cl, rank: int32(r)}
		}
	}
	for r := range h.adjOut {
		if n := len(h.adjOut[r]); n > 0 {
			row := c.edgeMem.carve(n)[:n]
			copy(row, h.adjOut[r])
			c.adjOut[r] = row
		}
		if n := len(h.adjIn[r]); n > 0 {
			row := c.edgeMem.carve(n)[:n]
			copy(row, h.adjIn[r])
			c.adjIn[r] = row
		}
		if n := len(h.reach[r]); n > 0 {
			row := bitset(c.words.carve(n))[:n]
			copy(row, h.reach[r])
			c.reach[r] = row
		}
		if n := len(h.pred[r]); n > 0 {
			row := bitset(c.words.carve(n))[:n]
			copy(row, h.pred[r])
			c.pred[r] = row
		}
	}
	return c
}

// HistoryTimestamp returns ts_h(l): the label's own timestamp if it generated
// one, and otherwise the maximal timestamp among the operations visible to it
// (⊥ if none). This is the "virtual timestamp" of Section 4.2.
func (h *History) HistoryTimestamp(l *Label) clock.Timestamp {
	if !l.TS.IsBottom() {
		return l.TS
	}
	// The predecessor mirror is transitively closed, so the maximum over one
	// row sweep is the maximum over the whole past.
	max := clock.Bottom
	la, ok := h.lookup(l.ID)
	if !ok {
		return max
	}
	h.pred[la.rank].forEach(func(s int) {
		max = max.Max(h.seq[s].TS)
	})
	return max
}

// ConsistentWithVis reports whether the sequence seq (which must contain
// exactly the labels of h) is consistent with the visibility relation:
// vis ∪ seq is acyclic, which for a total order seq means no label is
// ordered before one of its visibility predecessors.
func (h *History) ConsistentWithVis(seq []*Label) error {
	_, err := h.seqRanks(seq)
	return err
}

// seqRanks validates seq as ConsistentWithVis does and returns the rank of
// every element of seq, in seq order. Each element must be the history's own
// label object for its identifier: a different object carrying a history
// identifier (a forged or edited copy) is rejected, so conditions (ii) and
// (iii) of Definition 3.5 step exactly the labels of h.
func (h *History) seqRanks(seq []*Label) ([]int32, error) {
	if len(seq) != h.Len() {
		return nil, fmt.Errorf("sequence has %d labels, history has %d", len(seq), h.Len())
	}
	// ranks[i] is seq[i]'s rank; pos[r] is one past rank r's sequence
	// position (0 while unplaced).
	buf := make([]int32, 2*len(seq))
	ranks, pos := buf[:len(seq)], buf[len(seq):]
	for i, l := range seq {
		if l == nil {
			return nil, fmt.Errorf("sequence label %d is nil", i)
		}
		e, ok := h.lookup(l.ID)
		if !ok {
			return nil, fmt.Errorf("sequence label %v not in history", l)
		}
		if e.label != l {
			return nil, fmt.Errorf("sequence label %v is not the history's label %v", l, e.label)
		}
		if pos[e.rank] != 0 {
			return nil, fmt.Errorf("sequence repeats label %v", l)
		}
		ranks[i], pos[e.rank] = e.rank, int32(i+1)
	}
	for r, row := range h.reach {
		bad := -1
		row.forEach(func(s int) {
			if bad < 0 && pos[r] > pos[s] {
				bad = s
			}
		})
		if bad >= 0 {
			return nil, fmt.Errorf("sequence orders %v before %v against visibility", h.seq[bad], h.seq[r])
		}
	}
	return ranks, nil
}

// String renders the history: one line per label with its visibility
// predecessors, in insertion order.
func (h *History) String() string {
	var b strings.Builder
	for _, l := range h.seq {
		fmt.Fprintf(&b, "%-4d %s  (origin %s", l.ID, l, l.Origin)
		preds := h.VisibleTo(l)
		if len(preds) > 0 {
			ids := make([]string, len(preds))
			for i, p := range preds {
				ids[i] = fmt.Sprintf("%d", p.ID)
			}
			fmt.Fprintf(&b, "; sees %s", strings.Join(ids, ","))
		}
		b.WriteString(")\n")
	}
	return b.String()
}
