package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
)

// Rewriting is a query-update rewriting γ (Definition 3.7). It maps every
// label to either one label (queries and updates, whose kind must be
// preserved) or a pair of labels (query-updates, split into a query followed
// by an update). Returned labels need not carry unique identifiers or
// generator sequence numbers; RewriteHistory assigns fresh ones.
type Rewriting interface {
	// Rewrite maps a label to its γ-image: a slice of length one or two.
	Rewrite(l *Label) ([]*Label, error)
}

// RewritingIdentity returns a comparable value identifying the semantics of a
// rewriting, or ok=false when the rewriting has none. Two rewritings with
// equal identities produce the same γ(h) for every h, so an engine session
// may serve one the rewriting it derived under the other. The nil rewriting
// is its own identity, and a rewriting of a comparable type is identified by
// its value (the descriptor rewritings are zero-size named types, composed
// rewritings carry their *System). Function-typed rewritings (RewriteFunc)
// have no usable identity: a code pointer would alias closures over the same
// body whose captured state differs, so a session derives their γ(h) afresh
// on every check.
func RewritingIdentity(g Rewriting) (any, bool) {
	if g == nil {
		return nil, true
	}
	if reflect.TypeOf(g).Comparable() {
		return g, true
	}
	return nil, false
}

// IdentityRewriting leaves every label unchanged. It is only applicable to
// histories without query-update labels.
type IdentityRewriting struct{}

// Rewrite returns the label itself. Callers that store an image copy it:
// transport by value, appendImage by Clone.
func (IdentityRewriting) Rewrite(l *Label) ([]*Label, error) {
	return []*Label{l}, nil
}

// RewriteFunc adapts a function to the Rewriting interface.
type RewriteFunc func(l *Label) ([]*Label, error)

// Rewrite calls the function.
func (f RewriteFunc) Rewrite(l *Label) ([]*Label, error) { return f(l) }

// RewrittenHistory is the γ-rewriting γ(h) of a history together with the
// mapping from original labels to their images.
type RewrittenHistory struct {
	// History is the rewritten history (L', vis'). For the identity fast
	// path (nil rewriting, no query-updates) it aliases the input history.
	History *History
	// src is the history γ(h) was derived from (grown with it by
	// ExtendRewriting); QueryPart and UpdatePart resolve original
	// identifiers through it.
	src *History
	// off maps source ranks to image ranks: the image of the label at source
	// rank r occupies ranks off[r] .. off[r+1]-1 of History — one rank, or
	// two for a query-update's (query, update) pair. Image identifiers are
	// ranks plus one. nil means the identity rewriting, whose images are the
	// labels themselves.
	off []int32
}

// Aliased reports whether the rewriting took the identity fast path: History
// aliases the checked input instead of being a rewritten clone.
func (r *RewrittenHistory) Aliased() bool { return r.off == nil }

// QueryPart returns the rewritten label playing the role qry(γ(ℓ)) for the
// original label identifier id.
func (r *RewrittenHistory) QueryPart(id uint64) *Label {
	if r.off == nil {
		return r.History.Label(id)
	}
	rank, ok := r.src.RankOf(id)
	if !ok {
		return nil
	}
	return r.History.LabelAt(int(r.off[rank]))
}

// UpdatePart returns the rewritten label playing the role upd(γ(ℓ)) for the
// original label identifier id.
func (r *RewrittenHistory) UpdatePart(id uint64) *Label {
	if r.off == nil {
		return r.History.Label(id)
	}
	rank, ok := r.src.RankOf(id)
	if !ok {
		return nil
	}
	return r.History.LabelAt(int(r.off[rank+1]) - 1)
}

// RewriteHistory builds the γ-rewriting of h following Definition 3.7:
//
//   - every label ℓ is replaced by γ(ℓ) (one or two labels);
//   - for pairs (ℓ1, ℓ2), the query ℓ1 is ordered before the update ℓ2;
//   - whenever (ℓ, ℓ') ∈ vis, (upd(γ(ℓ)), qry(γ(ℓ'))) ∈ vis'.
//
// Kinds are validated: queries map to queries, updates to updates, and
// query-updates to a (query, update) pair. γ(h) is built by rank transport:
// its adjacency and its one closure index, the ancestor rows, are the
// images of h's rows, so no edge is re-propagated.
//
// A nil rewriting declares γ = id. On a history without query-update labels
// the identity rewriting only relabels (fresh IDs rank+1, doubled GenSeqs)
// without changing ranks, structure, kinds, the GenSeq order or the
// visibility relation, so the result aliases h instead of cloning it — the
// whole per-history rewrite cost of an identity-rewritten batch check.
// Candidate orders break GenSeq ties by rank, never by label ID, so aliased
// and cloned runs are byte-identical on every input. Query-updates are still
// rejected exactly like IdentityRewriting would: the error names the first
// one in insertion order.
func RewriteHistory(h *History, g Rewriting) (*RewrittenHistory, error) {
	if g == nil {
		// The scan reads the internal rank slice directly: h.Labels() would
		// copy the whole label slice on a path whose point is paying nothing
		// per history.
		for _, l := range h.seq {
			if l.IsQueryUpdate() {
				return nil, fmt.Errorf("rewrite %v: query-update must map to a (query, update) pair", l)
			}
		}
		return &RewrittenHistory{History: h}, nil
	}
	return transport(h, g)
}

// transport builds γ(h) by rank arithmetic. The images of the label at
// source rank r take ranks off[r] .. off[r+1]-1 — two for a query-update,
// one otherwise, a prefix sum over the kinds — and identifier rank+1, so
// the rewritten history is dense (History.byID stays nil). One pass calls γ
// on every label in rank order and validates the images (rewriteLabel), so
// the first invalid label names the error. Labels, their Args, the
// adjacency rows and the closure rows are then carved from slabs sized
// exactly for γ(h), and every row is the image of h's row: bit s of a
// source ancestor row becomes the bits of s's images, an edge ℓ → ℓ'
// becomes upd(γ(ℓ)) → qry(γ(ℓ')), and a (query, update) pair adds its own
// q → u edge. The closures agree with inserting those edges one by
// one, because every source path ℓ → ℓ₁ → … → ℓ' transports to a path
// through the pairs' q → u edges. h's index must be closed, as AddVis keeps
// it; the adjacency transported is h's whole generating set, whether or not
// an edge is implied by the others in γ(h).
func transport(h *History, g Rewriting) (*RewrittenHistory, error) {
	n := len(h.seq)
	edges := 0
	for _, outs := range h.adjOut {
		edges += len(outs)
	}
	pairs := 0
	for _, l := range h.seq {
		if l.IsQueryUpdate() {
			pairs++
		}
	}
	m := n + pairs
	// One int32 slab holds off (capped, so ExtendRewriting's appends move
	// it out) and every adjacency row.
	ints := make([]int32, n+1+2*(edges+pairs))
	off := ints[: n+1 : n+1]
	ints = ints[n+1:]
	for r, l := range h.seq {
		off[r+1] = off[r] + 1
		if l.IsQueryUpdate() {
			off[r+1]++
		}
	}

	labels := make([]Label, m)
	nargs := 0
	for r, l := range h.seq {
		imgs, err := rewriteLabel(l, g)
		if err != nil {
			return nil, err
		}
		for part, img := range imgs {
			k := off[r] + int32(part)
			labels[k] = *img
			setImage(&labels[k], k, l, uint64(part))
			nargs += len(img.Args)
		}
	}
	// The images are copies, so each takes its own Args from one slab (an
	// empty list becomes nil, as Label.Clone leaves it).
	args := make([]Value, nargs)
	seq := make([]*Label, m)
	for k := range labels {
		img := &labels[k]
		seq[k] = img
		if a := len(img.Args); a > 0 {
			img.Args = args[:copy(args[:a:a], img.Args):a]
			args = args[a:]
		} else {
			img.Args = nil
		}
	}

	adj := make([][]int32, 2*m)
	adjOut, adjIn := adj[:m:m], adj[m:]
	carve := func(k int) []int32 {
		row := ints[:k:k]
		ints = ints[k:]
		return row
	}
	for r := range h.seq {
		q, u := off[r], off[r+1]-1
		if outs := h.adjOut[r]; len(outs) > 0 {
			row := carve(len(outs))
			for i, t := range outs {
				row[i] = off[t]
			}
			adjOut[u] = row
		}
		if ins := h.adjIn[r]; len(ins) > 0 {
			row := carve(len(ins))
			for i, f := range ins {
				row[i] = off[f+1] - 1
			}
			adjIn[q] = row
		}
		if q != u {
			adjOut[q] = append(carve(1)[:0], u)
			adjIn[u] = append(carve(1)[:0], q)
		}
	}

	// Row sizes first, so one word slab holds every closure row and the
	// propagation marks.
	words := m
	for r := range h.seq {
		predW := imageWords(h.pred[r], off)
		words += predW
		if q := int(off[r]); q != int(off[r+1]-1) {
			words += max(predW, q>>6+1)
		}
	}
	slab := make([]uint64, words)
	mark := slab[:m:m]
	slab = slab[m:]
	pred := make([]bitset, m)
	row := func(src bitset, extra int) bitset {
		k := imageWords(src, off)
		if extra >= 0 {
			k = max(k, extra>>6+1)
		}
		if k == 0 {
			return nil
		}
		b := bitset(slab[:k:k])
		slab = slab[k:]
		if pairs == 0 {
			copy(b, src)
		} else {
			imageBits(b, src, off)
		}
		if extra >= 0 {
			b[extra>>6] |= 1 << (uint(extra) & 63)
		}
		return b
	}
	for r := range h.seq {
		q, u := int(off[r]), int(off[r+1]-1)
		pred[q] = row(h.pred[r], -1)
		if q != u {
			pred[u] = row(h.pred[r], q)
		}
	}

	return &RewrittenHistory{
		History: &History{
			seq:    seq,
			adjOut: adjOut,
			adjIn:  adjIn,
			nedges: edges + pairs,
			pred:   pred,
			mark:   mark,
		},
		src: h,
		off: off,
	}, nil
}

// setImage gives the image at rank k of l its identifier, l's origin and its
// GenSeq: twice l's, plus one for a pair's update part, so the pair stays
// adjacent in generation order.
func setImage(img *Label, k int32, l *Label, part uint64) {
	img.ID = uint64(k) + 1
	img.Origin = l.Origin
	img.GenSeq = l.GenSeq*2 + part
}

// imageWords returns the number of words the image of row src needs: up to
// the word holding the last image bit of its highest set bit.
func imageWords(src bitset, off []int32) int {
	for w := len(src) - 1; w >= 0; w-- {
		if word := src[w]; word != 0 {
			top := w<<6 + bits.Len64(word) - 1
			return int(off[top+1]-1)>>6 + 1
		}
	}
	return 0
}

// imageBits sets in dst, sized by imageWords, the images of src's bits: bit
// s becomes bits off[s] .. off[s+1]-1.
func imageBits(dst, src bitset, off []int32) {
	for w, word := range src {
		for word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for k := off[s]; k < off[s+1]; k++ {
				dst[k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
}

// rewriteLabel calls γ on l and validates its image: one label of l's kind,
// or a (query, update) pair exactly when l is a query-update.
func rewriteLabel(l *Label, g Rewriting) ([]*Label, error) {
	imgs, err := g.Rewrite(l)
	if err != nil {
		return nil, fmt.Errorf("rewrite %v: %w", l, err)
	}
	switch len(imgs) {
	case 1:
		if l.IsQueryUpdate() {
			return nil, fmt.Errorf("rewrite %v: query-update must map to a (query, update) pair", l)
		}
		if imgs[0].Kind != l.Kind {
			return nil, fmt.Errorf("rewrite %v: image kind %v differs from original kind %v", l, imgs[0].Kind, l.Kind)
		}
	case 2:
		if !l.IsQueryUpdate() {
			return nil, fmt.Errorf("rewrite %v: only query-updates may map to pairs", l)
		}
		if q, u := imgs[0], imgs[1]; !q.IsQuery() || !u.IsUpdate() {
			return nil, fmt.Errorf("rewrite %v: pair must be (query, update), got (%v, %v)", l, q.Kind, u.Kind)
		}
	default:
		return nil, fmt.Errorf("rewrite %v: image must have one or two labels, got %d", l, len(imgs))
	}
	return imgs, nil
}

// appendImage clones l's γ-image onto the end of the rewritten history (the
// incremental path), assigning the next identifier(s), the doubled GenSeqs
// and l's origin, and extends off. Identifiers depend only on the images
// appended before, so appending through ExtendRewriting reproduces exactly
// the labels a transport of the longer history builds.
func (r *RewrittenHistory) appendImage(l *Label, g Rewriting) error {
	imgs, err := rewriteLabel(l, g)
	if err != nil {
		return err
	}
	k := int32(r.History.Len())
	for part, img := range imgs {
		img = img.Clone()
		setImage(img, k+int32(part), l, uint64(part))
		if err := r.History.Add(img); err != nil {
			return err
		}
	}
	if len(imgs) == 2 {
		if err := r.History.AddVis(uint64(k)+1, uint64(k)+2); err != nil {
			return err
		}
	}
	r.off = append(r.off, int32(r.History.Len()))
	return nil
}

// ExtendRewriting appends the γ-images of h's labels from rank oldLen onward
// to rew — which must be the (cloning-path) rewriting of h's first oldLen
// labels under g — and transports the direct visibility edges targeting the
// new labels. The caller guarantees the incremental edge discipline: every
// direct edge recorded in h since rew was built has its target among the new
// ranks (old→new or new→new). Under that precondition the extended rew is
// label-for-label and closure-identical to RewriteHistory(h, g); on any error
// rew may hold a partial extension and must be discarded and rebuilt.
func ExtendRewriting(rew *RewrittenHistory, h *History, oldLen int, g Rewriting) error {
	if rew.off == nil {
		return fmt.Errorf("rewrite: cannot extend an aliased identity rewriting")
	}
	if g == nil {
		g = IdentityRewriting{}
	}
	rew.src = h
	for _, l := range h.seq[oldLen:] {
		if err := rew.appendImage(l, g); err != nil {
			return err
		}
	}
	// Transport the new direct edges, found per target (sorted sources) —
	// they generate the same closure, whatever order the transport took.
	var froms []int32
	for rt := oldLen; rt < len(h.seq); rt++ {
		ins := h.adjIn[rt]
		if len(ins) == 0 {
			continue
		}
		froms = append(froms[:0], ins...)
		slices.Sort(froms)
		qryTo := uint64(rew.off[rt]) + 1
		for _, rf := range froms {
			if err := rew.History.AddVis(uint64(rew.off[rf+1]), qryTo); err != nil {
				return fmt.Errorf("rewrite visibility %v -> %v: %w", h.seq[rf], h.seq[rt], err)
			}
		}
	}
	return nil
}
