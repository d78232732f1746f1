package search

import "ralin/internal/core"

// Incremental extension (core.CheckRAExtend → Session.Extend): re-verify a
// history that grew at the end in ~the marginal cost of the new operations.
//
// The key observation is that appending operations under the *edge
// discipline* — every direct visibility edge recorded since the last check
// targets a newly appended label — cannot change anything the previous
// verdict already established about the old prefix: no old query gains a
// visible update, no old label gains a predecessor, and the old part of any
// witness linearization stays a witness prefix. The previous verdict is
// therefore a certificate:
//
//   - previously Valid: append the new (rewritten) operations to the stored
//     witness in rank order and re-check only them — frontier admissibility
//     (all predecessors already placed), update-projection stepping on the
//     cached post-witness state set, and per-query justification. No search.
//   - certificate fails, or previously Invalid/Unknown: fall back to the full
//     pruned search — but over the session's *extended* plan (grown in place,
//     old index rows untouched), with the session's warm interner and step
//     cache, and with the old witness (when there is one) seeded as the DFS's
//     first branch via the guided-mode scores.
//
// Every incremental precondition is verified, and any violation — new edges
// into old labels, a tail mismatch, a changed rewriting, an in-place
// rewriting extension failure — degrades to a plain warm core.CheckRA, so the
// verdict is byte-identical to a from-scratch check in every case. The only
// intentional asymmetry: under a truncating node/time budget the certificate
// can prove Valid where a from-scratch search would have stopped at Unknown —
// a strict improvement, never a flip of a definite verdict.
//
// Invalid does NOT persist under extension (a spec may reject [a] but admit
// [b, a]), so a previously-Invalid history re-searches; only Valid carries a
// certificate.

// extensionCap bounds the number of histories the session tracks extension
// state for: each entry pins its history, its rewritten clone, a grown plan
// and a witness. A monitor follows one (or a few) live histories, so the cap
// is small; at the cap an arbitrary entry is evicted to make room.
const extensionCap = 64

// extension is the per-history incremental state of Session.Extend: the
// snapshot of how much of h the last verdict covered, the rewriting and plan
// grown alongside it, and the witness certificate when that verdict was
// Valid.
type extension struct {
	// token identifies the rewriting the state was built under
	// (core.RewritingIdentity) and spec the specification the certificate
	// was checked against; a call with a different rewriting or spec
	// rebuilds.
	token any
	spec  core.Spec
	// rew is the γ-rewriting of h's first nOld labels: the session-cached
	// clone on the cloning path or an alias wrapper (rew.History == h) on the
	// identity fast path.
	rew *core.RewrittenHistory
	// nOld is h.Len() at the last verdict; rewLen is rew.History.Len() then.
	nOld   int
	rewLen int
	// edgeCount is h.DirectEdgeCount() at the last verdict; the edge
	// discipline is verified by comparing growth against the direct in-degrees
	// of the new ranks.
	edgeCount int
	// maxGenSeq is the largest generator sequence number across h's labels,
	// maintained so the aliasing fast path's precondition (no GenSeq ties, as
	// implied by strictly increasing continuation) is checked per new label
	// instead of per history.
	maxGenSeq uint64
	// plan is the session-owned prepared plan over rew.History, grown lazily:
	// built on the first fallback search and extended in place afterwards.
	// planN is the rew.History length it currently covers (0 = not built).
	plan  *prepared
	planN int
	// valid reports the last verdict was Valid; witness is then its
	// linearization in session-owned backing (never a carved arena
	// sub-slice — a long-lived certificate must not pin a searcher's witness
	// chunk), grown by amortized append as replays extend it; witRanks holds
	// each witness label's rank in rew.History (-1 if absent); and states is
	// the spec state set reachable after witness's update projection, from
	// which new updates step.
	valid    bool
	witness  []*core.Label
	witRanks []int
	states   []core.AbsState
	// stateBuf/stepBuf/justBuf/visBuf/seedBuf are the certificate replay's
	// reusable scratch, so a replay allocates only what the spec itself does.
	stateBuf []core.AbsState
	stepBuf  []core.AbsState
	justBuf  []*core.Label
	visBuf   []uint64
	seedBuf  []int
}

// setWitness stores a Valid verdict's witness over rh as the certificate:
// a private copy of the labels, their ranks, and the states after its update
// projection.
func (ext *extension) setWitness(rh *core.History, witness []*core.Label) {
	ext.valid = true
	ext.witness = append(make([]*core.Label, 0, len(witness)), witness...)
	ext.witRanks = ext.witRanks[:0]
	ext.justBuf = ext.justBuf[:0]
	for _, l := range witness {
		r, ok := rh.RankOf(l.ID)
		if !ok {
			r = -1
		}
		ext.witRanks = append(ext.witRanks, r)
		if l.IsUpdate() {
			ext.justBuf = append(ext.justBuf, l)
		}
	}
	ext.states = core.StatesAfter(ext.spec, ext.justBuf)
}

// safeTokenEqual compares rewriting identities and specifications, treating
// a comparison panic (run-time uncomparable values inside an interface) as
// "not equal".
func safeTokenEqual(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// getExt returns the session's extension entry for h, or nil.
func (s *Session) getExt(h *core.History) *extension {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exts[h]
}

// storeExt records an extension entry for h, evicting an arbitrary entry at
// the cap (and un-pinning its rewritten clone from the seen set).
func (s *Session) storeExt(h *core.History, ext *extension) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exts == nil {
		s.exts = make(map[*core.History]*extension)
	}
	if _, ok := s.exts[h]; !ok && len(s.exts) >= extensionCap {
		for old, e := range s.exts {
			delete(s.exts, old)
			if e.rew != nil && !e.rew.Aliased() {
				delete(s.seen, e.rew.History)
			}
			break
		}
	}
	s.exts[h] = ext
}

// dropExt removes h's extension entry, un-pinning the superseded rewritten
// clone from the re-check seen set (it can never be checked again).
func (s *Session) dropExt(h *core.History) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.exts[h]
	if !ok {
		return
	}
	delete(s.exts, h)
	if e.rew != nil && !e.rew.Aliased() {
		delete(s.seen, e.rew.History)
	}
}

// Extend implements core.Extender: check h — which gained newOps as its final
// labels since this session last checked it — reusing the previous verdict as
// a certificate and the session's plan, interner and caches for the prefix.
// The result's verdict is byte-identical to core.CheckRA on the full
// history; see the package comment at the top of this file for the
// certificate-first flow and the degradation ladder.
//
// Calls for the same history must be externally serialized (they mutate the
// per-history state, exactly like History.Add itself); calls for different
// histories may run concurrently.
func (s *Session) Extend(h *core.History, spec core.Spec, newOps []*core.Label, opts core.CheckOptions) core.Result {
	if s == nil {
		return core.CheckRA(h, spec, opts)
	}
	if inc := core.ContextIncomplete(opts.Context); inc != nil {
		return core.Result{Incomplete: inc}
	}
	// Without the exhaustive phase the certificate could prove Valid where a
	// from-scratch check reports Unknown (no-search), breaking verdict parity
	// — and a rewriting without a comparable identity cannot be matched
	// against the stored entry at all. Both degrade to the plain warm check.
	token, tokenOK := core.RewritingIdentity(opts.Rewriting)
	if !opts.Exhaustive || !tokenOK {
		s.rewrites.Invalidate(h)
		s.dropExt(h)
		return core.CheckRA(h, spec, opts)
	}
	// Pin the session's cache generation for the whole extension: budget
	// eviction only runs while no check is in flight, so the entry, its plan
	// and the interner stay coherent until we return.
	intern := ensureInterner(s.beginCheck())
	defer s.endCheck()

	ext := s.getExt(h)
	if ext == nil || !s.extendable(ext, h, spec, token, newOps) {
		return s.rebuildExt(h, spec, opts, token)
	}
	// Grow the rewriting over the new operations. The aliasing fast path
	// grows by itself (rew.History is h); the cloning path appends the new
	// images and transports their edges in place — on failure the clone is
	// partially extended and everything is rebuilt from scratch, which
	// reproduces the same rewriting error a from-scratch check reports.
	if !ext.rew.Aliased() {
		if err := core.ExtendRewriting(ext.rew, h, ext.nOld, opts.Rewriting); err != nil {
			return s.rebuildExt(h, spec, opts, token)
		}
	}
	rh := ext.rew.History
	rhN := rh.Len()

	res := core.Result{
		Rewritten:     rh,
		RewriteCached: !ext.rew.Aliased(),
		Engine:        core.EnginePruned,
		Extended:      true,
	}
	if ext.valid && s.replayCertificate(ext, rh) {
		res.Verdict = core.VerdictValid
		res.WitnessReplayed = true
		res.Tried = 1
		for t := ext.rewLen; t < rhN; t++ {
			ext.witness = append(ext.witness, rh.LabelAt(t))
			ext.witRanks = append(ext.witRanks, t)
		}
		ext.states = append(ext.states[:0], ext.stateBuf...)
		// Capped so a caller's append cannot write into the certificate.
		res.Linearization = ext.witness[:rhN:rhN]
		s.commitSnapshot(ext, h, rhN, newOps)
		return res
	}

	// Certificate unavailable or refuted: full pruned search over the plan
	// grown in place, seeded (when a witness exists) so the DFS tries the old
	// witness order first and the PR 8 score table orders the rest.
	if ext.plan == nil {
		ext.plan = &prepared{}
		if err := ext.plan.build(rh, false); err != nil {
			res.LastErr = err
			res.Verdict = core.VerdictInvalid
			return res
		}
	} else if ext.planN < rhN {
		if err := ext.plan.extend(rh, ext.planN, false); err != nil {
			res.LastErr = err
			res.Verdict = core.VerdictInvalid
			return res
		}
	}
	ext.planN = rhN

	guided := opts.Guidance == core.GuidanceGuided || len(ext.witness) > 0
	var guideTab *scoreTable
	if guided {
		guideTab = s.guideScores()
		ext.plan.buildGuide(guideTab, false)
		if len(ext.witness) > 0 {
			ext.seedBuf = ext.seedBuf[:0]
			for _, r := range ext.witRanks {
				if r >= 0 {
					ext.seedBuf = append(ext.seedBuf, r)
				}
			}
			ext.plan.seedWitness(ext.seedBuf)
		}
	}
	out := runPrepared(s, intern, ext.plan, rh, spec, false, guided, guideTab, true, opts)
	core.ApplyEngineOutcome(&res, out, false)
	switch {
	case out.OK:
		// The engine's witness is carved from a 512-label arena chunk;
		// setWitness copies it so the certificate pins only itself.
		ext.setWitness(rh, out.Witness)
	case out.Complete:
		ext.valid = false
		ext.witness = nil
		ext.witRanks = nil
		ext.states = nil
	default:
		// Truncated: no certificate, but keep the stale witness as a seed for
		// the next attempt's branch order. The snapshot still advances — the
		// plan and rewriting already cover the new operations.
		ext.valid = false
	}
	s.commitSnapshot(ext, h, rhN, newOps)
	return res
}

// commitSnapshot advances the entry's coverage markers to h's current state
// after a successful extension (whatever the verdict).
func (s *Session) commitSnapshot(ext *extension, h *core.History, rhN int, newOps []*core.Label) {
	ext.nOld = h.Len()
	ext.rewLen = rhN
	ext.edgeCount = h.DirectEdgeCount()
	for _, l := range newOps {
		if l.GenSeq > ext.maxGenSeq {
			ext.maxGenSeq = l.GenSeq
		}
	}
}

// extendable verifies every incremental precondition for reusing ext on h:
//
//   - same rewriting identity and same specification as the entry was built
//     with (a certificate checked under one spec proves nothing under
//     another; a spec that cannot be compared always rebuilds);
//   - newOps are exactly h's tail beyond the entry's snapshot (length, label
//     identity and rank all match);
//   - the edge discipline: every direct edge recorded since the snapshot
//     targets a new rank, verified in O(new) by comparing the edge-count
//     growth against the direct in-degrees of the new ranks;
//   - on the aliasing fast path additionally: no new query-updates (the nil
//     rewriting rejects them) and strictly increasing GenSeq continuation (so
//     a from-scratch check would still alias rather than clone).
//
// Any failure reports false and the caller rebuilds from scratch.
func (s *Session) extendable(ext *extension, h *core.History, spec core.Spec, token any, newOps []*core.Label) bool {
	if !safeTokenEqual(ext.token, token) || !safeTokenEqual(ext.spec, spec) {
		return false
	}
	if h.Len() != ext.nOld+len(newOps) {
		return false
	}
	newEdges := 0
	for i, l := range newOps {
		r, ok := h.RankOf(l.ID)
		if !ok || r != ext.nOld+i || h.LabelAt(r) != l {
			return false
		}
		newEdges += h.DirectInDegree(r)
	}
	if ext.edgeCount+newEdges != h.DirectEdgeCount() {
		return false
	}
	if ext.rew.Aliased() {
		max := ext.maxGenSeq
		for _, l := range newOps {
			if l.IsQueryUpdate() || l.GenSeq <= max {
				return false
			}
			max = l.GenSeq
		}
	}
	return true
}

// rebuildExt is the degradation ladder's bottom rung: drop the stale entry
// and the (possibly stale) cached rewriting of the mutated h, run a plain
// warm core.CheckRA over the full history, and record a fresh extension entry
// for the next call.
func (s *Session) rebuildExt(h *core.History, spec core.Spec, opts core.CheckOptions, token any) core.Result {
	s.dropExt(h)
	s.rewrites.Invalidate(h)
	res := core.CheckRA(h, spec, opts)
	rew, _, err := core.RewriteForCheck(h, opts)
	if err != nil || !rew.History.IsAcyclic() {
		// The check failed before (or at) the rewriting; there is nothing
		// incremental to track. Every later Extend repeats the plain check
		// and reproduces the same error result.
		return res
	}
	ext := &extension{
		token:  token,
		spec:   spec,
		rew:    rew,
		nOld:   h.Len(),
		rewLen: rew.History.Len(),
	}
	ext.edgeCount = h.DirectEdgeCount()
	for t := 0; t < h.Len(); t++ {
		if gs := h.LabelAt(t).GenSeq; gs > ext.maxGenSeq {
			ext.maxGenSeq = gs
		}
	}
	if res.Verdict == core.VerdictValid {
		ext.setWitness(rew.History, res.Linearization)
	}
	s.storeExt(h, ext)
	return res
}

// replayCertificate checks whether appending the new rewritten labels (ranks
// ext.rewLen..rh.Len()) to the stored witness in rank order yields an
// RA-linearization, without any search:
//
//	(i)  frontier admissibility — every predecessor of a new label has a
//	     smaller rank, so it is already placed when the label is appended;
//	(ii) the update projection stays admitted — new updates step the cached
//	     post-witness state set, which must stay non-empty;
//	(iii) each new query is justified by its visible updates in witness
//	     order (old queries cannot have gained visible updates under the
//	     edge discipline, so only the new ones need checking).
//
// On success the stepped state set is left in ext.stateBuf for the caller to
// commit; on failure ext's certificate state is untouched and the caller
// falls back to the search.
func (s *Session) replayCertificate(ext *extension, rh *core.History) bool {
	rhN := rh.Len()
	admissible := true
	for t := ext.rewLen; t < rhN; t++ {
		rh.PredRow(t, func(f int) {
			if f >= t {
				admissible = false
			}
		})
		if !admissible {
			return false
		}
	}
	// Copy-on-write replay state: the working sets live in the entry's scratch
	// so a successful replay of k updates costs k spec steps and no growth
	// allocations after the first extension.
	work := append(ext.stateBuf[:0], ext.states...)
	if words := (rhN + 63) / 64; cap(ext.visBuf) < words {
		ext.visBuf = make([]uint64, words)
	} else {
		ext.visBuf = ext.visBuf[:words]
	}
	vis := ext.visBuf
	mark := func(f int) { vis[f>>6] |= 1 << (f & 63) }
	visible := func(r int) bool { return r >= 0 && vis[r>>6]&(1<<(r&63)) != 0 }
	for t := ext.rewLen; t < rhN; t++ {
		l := rh.LabelAt(t)
		if l.IsUpdate() {
			step := ext.stepBuf[:0]
			for _, phi := range work {
				step = ext.spec.StepAppend(step, phi, l)
			}
			step = core.DedupStates(step)
			ext.stepBuf = step[:0]
			if len(step) == 0 {
				return false
			}
			work = append(work[:0], step...)
			continue
		}
		// The justification: the visible updates in witness order — the
		// stored witness, then the new labels before t in rank order.
		clear(vis)
		rh.PredRow(t, mark)
		just := ext.justBuf[:0]
		for i, u := range ext.witness {
			if u.IsUpdate() && visible(ext.witRanks[i]) {
				just = append(just, u)
			}
		}
		for r := ext.rewLen; r < t; r++ {
			if u := rh.LabelAt(r); u.IsUpdate() && visible(r) {
				just = append(just, u)
			}
		}
		just = append(just, l)
		ext.justBuf = just
		if !core.Admits(ext.spec, just) {
			return false
		}
	}
	ext.stateBuf = work
	return true
}
