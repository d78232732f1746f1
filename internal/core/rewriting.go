package core

import (
	"fmt"
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

// Rewrite returns the label itself.
func (IdentityRewriting) Rewrite(l *Label) ([]*Label, error) {
	return []*Label{l.Clone()}, nil
}

// RewriteFunc adapts a function to the Rewriting interface.
type RewriteFunc func(l *Label) ([]*Label, error)

// Rewrite calls the function.
func (f RewriteFunc) Rewrite(l *Label) ([]*Label, error) { return f(l) }

// rewrittenPair records the γ-image of a label inside a rewritten history:
// the query part and the update part (equal for singleton images).
type rewrittenPair struct {
	qry uint64
	upd uint64
}

// RewrittenHistory is the γ-rewriting γ(h) of a history together with the
// mapping from original label identifiers to the identifiers of their images.
type RewrittenHistory struct {
	// History is the rewritten history (L', vis'). For the identity fast
	// path (nil rewriting, no query-updates) it aliases the input history.
	History *History
	// images maps each original label identifier to its query/update parts;
	// nil means the identity rewriting, whose images are the labels
	// themselves.
	images map[uint64]rewrittenPair
	// nextID is the last image identifier assigned on the cloning path, kept
	// so ExtendRewriting continues the sequence exactly where a from-scratch
	// rewrite of the longer history would.
	nextID uint64
}

// Aliased reports whether the rewriting took the identity fast path: History
// aliases the checked input instead of being a rewritten clone.
func (r *RewrittenHistory) Aliased() bool { return r.images == nil }

// QueryPart returns the rewritten label playing the role qry(γ(ℓ)) for the
// original label identifier id.
func (r *RewrittenHistory) QueryPart(id uint64) *Label {
	if r.images == nil {
		return r.History.Label(id)
	}
	return r.History.Label(r.images[id].qry)
}

// UpdatePart returns the rewritten label playing the role upd(γ(ℓ)) for the
// original label identifier id.
func (r *RewrittenHistory) UpdatePart(id uint64) *Label {
	if r.images == nil {
		return r.History.Label(id)
	}
	return r.History.Label(r.images[id].upd)
}

// RewriteHistory builds the γ-rewriting of h following Definition 3.7:
//
//   - every label ℓ is replaced by γ(ℓ) (one or two labels);
//   - for pairs (ℓ1, ℓ2), the query ℓ1 is ordered before the update ℓ2;
//   - whenever (ℓ, ℓ') ∈ vis, (upd(γ(ℓ)), qry(γ(ℓ'))) ∈ vis'.
//
// Kinds are validated: queries map to queries, updates to updates, and
// query-updates to a (query, update) pair.
func RewriteHistory(h *History, g Rewriting) (*RewrittenHistory, error) {
	if g == nil {
		// A nil rewriting declares γ = id. On a history without query-update
		// labels the identity rewriting only relabels (fresh IDs, doubled
		// GenSeq) without changing structure, kinds, the GenSeq order or the
		// visibility relation, so alias the input instead of cloning it —
		// this is the whole per-history rewrite cost of an identity-
		// rewritten batch check. Query-updates are still rejected exactly
		// like IdentityRewriting would, walking insertion order so the error
		// deterministically names the first offending label. The scan uses
		// the internal rank slice directly — h.Labels() would copy the
		// whole label slice on a path whose point is paying nothing per
		// history.
		//
		// Aliasing is only taken when the GenSeqs are pairwise distinct:
		// candidate orders break GenSeq *ties* on label ID, which under
		// aliasing is the original ID rather than the fresh insertion-order
		// ID cloning would assign, so a tied history could linearize its tied
		// labels in a different order than the cloned run. The same scan
		// watches for ties — GenSeqs issued by the runtimes increase along
		// insertion order, so the common case stays a single allocation-free
		// pass, and only an out-of-order history pays for a duplicate check —
		// and a tie falls back to the cloning path below, keeping aliased and
		// cloned runs byte-identical on every input.
		monotone := true
		var prev uint64
		for k, l := range h.seq {
			if l.IsQueryUpdate() {
				return nil, fmt.Errorf("rewrite %v: query-update must map to a (query, update) pair", l)
			}
			if k > 0 && l.GenSeq <= prev {
				monotone = false
			}
			prev = l.GenSeq
		}
		if !monotone && hasGenSeqTie(h) {
			g = IdentityRewriting{}
		} else {
			return &RewrittenHistory{History: h}, nil
		}
	}
	out := &RewrittenHistory{History: NewHistory(), images: make(map[uint64]rewrittenPair, len(h.seq))}
	out.History.reserve(2 * len(h.seq))
	for _, l := range h.seq {
		if err := out.appendImage(l, g); err != nil {
			return nil, err
		}
	}
	// Transport the visibility relation: only the DIRECT edges move — for
	// (ℓ, ℓ') directly inserted, (upd(γ(ℓ)), qry(γ(ℓ'))) is inserted into
	// vis', whose own reachability index re-derives the closure. Transporting
	// the closure edge by edge (the previous representation's only option —
	// it stored nothing else) made the transport itself Θ(|vis⁺|) AddVis
	// calls; the generating set is what the original construction actually
	// inserted, typically Θ(n). The closures agree because every transitive
	// source path ℓ → ℓ₁ → … → ℓ' transports to a vis' path through the
	// per-pair qry→upd edges added above. Target ranks are sorted per source
	// so the transport (and any error it surfaces) is deterministic for a
	// given history.
	var tos []int32
	for rf, outs := range h.adjOut {
		if len(outs) == 0 {
			continue
		}
		tos = append(tos[:0], outs...)
		slices.Sort(tos)
		from := h.seq[rf]
		updFrom := out.images[from.ID].upd
		for _, rt := range tos {
			to := h.seq[rt]
			if err := out.History.AddVis(updFrom, out.images[to.ID].qry); err != nil {
				return nil, fmt.Errorf("rewrite visibility %v -> %v: %w", from, to, err)
			}
		}
	}
	return out, nil
}

// appendImage clones l's γ-image into the rewritten history on the cloning
// path, assigning the next fresh identifier(s) and the doubled GenSeqs, and
// records the image pair. Identifier assignment depends only on the labels
// appended before this one, so appending through ExtendRewriting reproduces
// exactly the labels a from-scratch rewrite of the longer history would
// build.
func (r *RewrittenHistory) appendImage(l *Label, g Rewriting) error {
	imgs, err := g.Rewrite(l)
	if err != nil {
		return fmt.Errorf("rewrite %v: %w", l, err)
	}
	switch len(imgs) {
	case 1:
		img := imgs[0].Clone()
		if l.IsQueryUpdate() {
			return fmt.Errorf("rewrite %v: query-update must map to a (query, update) pair", l)
		}
		if img.Kind != l.Kind {
			return fmt.Errorf("rewrite %v: image kind %v differs from original kind %v", l, img.Kind, l.Kind)
		}
		r.nextID++
		img.ID = r.nextID
		img.Origin = l.Origin
		img.GenSeq = l.GenSeq * 2
		if err := r.History.Add(img); err != nil {
			return err
		}
		r.images[l.ID] = rewrittenPair{qry: img.ID, upd: img.ID}
	case 2:
		if !l.IsQueryUpdate() {
			return fmt.Errorf("rewrite %v: only query-updates may map to pairs", l)
		}
		q, u := imgs[0].Clone(), imgs[1].Clone()
		if !q.IsQuery() || !u.IsUpdate() {
			return fmt.Errorf("rewrite %v: pair must be (query, update), got (%v, %v)", l, q.Kind, u.Kind)
		}
		r.nextID++
		q.ID = r.nextID
		q.Origin = l.Origin
		q.GenSeq = l.GenSeq * 2
		r.nextID++
		u.ID = r.nextID
		u.Origin = l.Origin
		u.GenSeq = l.GenSeq*2 + 1
		if err := r.History.Add(q); err != nil {
			return err
		}
		if err := r.History.Add(u); err != nil {
			return err
		}
		if err := r.History.AddVis(q.ID, u.ID); err != nil {
			return err
		}
		r.images[l.ID] = rewrittenPair{qry: q.ID, upd: u.ID}
	default:
		return fmt.Errorf("rewrite %v: image must have one or two labels, got %d", l, len(imgs))
	}
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
	if rew.images == nil {
		return fmt.Errorf("rewrite: cannot extend an aliased identity rewriting")
	}
	if g == nil {
		g = IdentityRewriting{}
	}
	for _, l := range h.seq[oldLen:] {
		if err := rew.appendImage(l, g); err != nil {
			return err
		}
	}
	// Transport the new direct edges. From-scratch transport iterates sources
	// in rank order with sorted targets; here the new edges are found per
	// target instead (sorted sources), which inserts the same generating set —
	// the closures, and therefore every check-visible query, agree.
	var froms []int32
	for rt := oldLen; rt < len(h.seq); rt++ {
		ins := h.adjIn[rt]
		if len(ins) == 0 {
			continue
		}
		froms = append(froms[:0], ins...)
		slices.Sort(froms)
		to := h.seq[rt]
		qryTo := rew.images[to.ID].qry
		for _, rf := range froms {
			from := h.seq[rf]
			if err := rew.History.AddVis(rew.images[from.ID].upd, qryTo); err != nil {
				return fmt.Errorf("rewrite visibility %v -> %v: %w", from, to, err)
			}
		}
	}
	return nil
}

// hasGenSeqTie reports whether two labels of h share a generator sequence
// number. Only called on the nil-rewriting fast path after the cheap
// monotonicity scan failed, so the map is off the common path.
func hasGenSeqTie(h *History) bool {
	seen := make(map[uint64]struct{}, len(h.seq))
	for _, l := range h.seq {
		gs := l.GenSeq
		if _, dup := seen[gs]; dup {
			return true
		}
		seen[gs] = struct{}{}
	}
	return false
}
