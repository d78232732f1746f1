package search

import (
	"slices"

	"ralin/internal/clock"
	"ralin/internal/core"
)

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
//     (all predecessors already placed), stepping the one spec state the
//     record keeps at the end of a run of the witness's update projection,
//     and per-query justification. No search.
//   - certificate fails, or previously Invalid/Unknown: fall back to the full
//     pruned search over the grown rewriting — a plain Run, with the plan
//     built afresh on a pooled searcher (with its warm transition table and
//     state IDs), exactly like every other check. Nothing of a stale witness
//     is carried over.
//
// Every incremental precondition is verified, and any violation — new edges
// into old labels, a tail mismatch, a changed rewriting, an in-place
// rewriting extension failure — degrades to a plain warm check of the
// history's record (rebuildExt), so the verdict is byte-identical to a
// from-scratch check in every case. The only
// intentional asymmetry: under a truncating node/time budget the certificate
// can prove Valid where a from-scratch search would have stopped at Unknown —
// a strict improvement, never a flip of a definite verdict.
//
// Invalid does NOT persist under extension (a spec may reject [a] but admit
// [b, a]), so a previously-Invalid history re-searches; only Valid carries a
// certificate.

// setWitness stores a Valid verdict's witness over rh as the certificate:
// a private copy of the labels, their ranks, and the state at the end of the
// first run of the spec that admits its update projection (core.Fold).
func (rec *record) setWitness(rh *core.History, witness []*core.Label) {
	rec.witness = append(make([]*core.Label, 0, len(witness)), witness...)
	rec.witRanks = rec.witRanks[:0]
	rec.justBuf = rec.justBuf[:0]
	for _, l := range witness {
		r, ok := rh.RankOf(l.ID)
		if !ok {
			r = -1
		}
		rec.witRanks = append(rec.witRanks, r)
		if l.IsUpdate() {
			rec.justBuf = append(rec.justBuf, l)
		}
	}
	var rejected int
	rec.state, rejected = core.Fold(rec.spec, rec.justBuf)
	rec.valid = rejected < 0
	rec.just = nil
}

// dropWitness forgets the certificate after a verdict that is not Valid.
func (rec *record) dropWitness() {
	rec.valid = false
	rec.witness = nil
	rec.witRanks = nil
	rec.state = nil
	rec.just = nil
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

// Extend implements core.EngineSession. It checks h, which gained newOps as its
// final labels since this session last checked it. The previous verdict
// serves as a certificate, and the session's rewriting and caches serve the
// prefix. The result's verdict is byte-identical to core.CheckRA on the full
// history. The comment at the top of this file describes the
// certificate-first flow and the degradation ladder.
//
// Calls for the same history must be externally serialized with each other
// and with every other check of that history (they mutate its record and
// grow its rewriting in place, exactly like History.Add mutates h); calls for
// different histories may run concurrently.
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
	// against the record at all. Both degrade to the plain warm check.
	token, tokenOK := core.RewritingIdentity(opts.Rewriting)
	if !opts.Exhaustive || !tokenOK {
		return core.CheckRA(h, spec, opts)
	}
	// Pin the session's cache generation for the whole extension: budget
	// eviction only runs while no check is in flight, so it cannot drop the
	// record between the checks and the snapshot commit below.
	s.beginCheck()
	defer s.endCheck()

	s.mu.Lock()
	rec := s.records[h]
	s.mu.Unlock()
	if rec == nil || !rec.extendable(h, spec, token, newOps) {
		return s.rebuildExt(h, spec, opts, token)
	}
	// Grow the rewriting over the new operations. The aliasing fast path
	// grows by itself (rew.History is h); the cloning path appends the new
	// images and transports their edges in place — on failure the clone is
	// partially extended, the record no longer covers h, and the rebuild
	// replaces it, reproducing the rewriting error a from-scratch check
	// reports.
	rewLen := rec.n
	if !rec.rew.Aliased() {
		rewLen = rec.rew.History.Len()
		if err := core.ExtendRewriting(rec.rew, h, rec.n, opts.Rewriting); err != nil {
			return s.rebuildExt(h, spec, opts, token)
		}
	}
	rh := rec.rew.History
	rhN := rh.Len()

	res := core.Result{
		Rewritten:     rh,
		RewriteCached: !rec.rew.Aliased(),
		Engine:        core.EnginePruned,
		Extended:      true,
	}
	rec.justSteps = 0
	if rec.valid && rec.replayCertificate(rh, rewLen) {
		res.Verdict = core.VerdictValid
		res.WitnessReplayed = true
		res.Tried = 1
		for t := rewLen; t < rhN; t++ {
			rec.witness = append(rec.witness, rh.LabelAt(t))
			rec.witRanks = append(rec.witRanks, t)
		}
		// Capped so a caller's append cannot write into the certificate.
		res.Linearization = rec.witness[:rhN:rhN]
		res.JustSteps = rec.justSteps
		rec.commit(h)
		return res
	}

	// No certificate, or its run rejected the new operations: the full pruned
	// search over the grown rewriting, run like every other check of the
	// session. Its verdict replaces the certificate.
	opts.Session = s
	out := Run(rh, spec, false, opts)
	core.ApplyEngineOutcome(&res, out, false)
	res.JustSteps += rec.justSteps
	if out.OK {
		// The engine's witness is carved from a 512-label arena chunk;
		// setWitness copies it so the certificate pins only itself.
		rec.setWitness(rh, out.Witness)
	} else {
		// Refuted or truncated: no certificate. The snapshot still advances —
		// the rewriting already covers the new operations.
		rec.dropWitness()
	}
	rec.commit(h)
	return res
}

// commit advances the record's coverage to h's current size after a
// successful extension (whatever the verdict), so the grown rewriting serves
// the next Extend and every later plain check of h.
func (rec *record) commit(h *core.History) {
	rec.n = h.Len()
	rec.edges = h.DirectEdgeCount()
}

// extendable verifies every incremental precondition for growing rec over h:
//
//   - same rewriting identity and same specification as the record was
//     decided with (a certificate checked under one spec proves nothing under
//     another; a spec that cannot be compared always rebuilds, and a record
//     no Extend has decided has no spec);
//   - newOps are exactly h's tail beyond the record's coverage (length, label
//     identity and rank all match);
//   - the edge discipline: every direct edge recorded since the snapshot
//     targets a new rank, verified in O(new) by comparing the edge-count
//     growth against the direct in-degrees of the new ranks;
//   - on the aliasing fast path additionally: no new query-updates (the nil
//     rewriting rejects them).
//
// Any failure reports false and the caller rebuilds from scratch.
func (rec *record) extendable(h *core.History, spec core.Spec, token any, newOps []*core.Label) bool {
	if !safeTokenEqual(rec.token, token) || !safeTokenEqual(rec.spec, spec) {
		return false
	}
	if h.Len() != rec.n+len(newOps) {
		return false
	}
	newEdges := 0
	for i, l := range newOps {
		r, ok := h.RankOf(l.ID)
		if !ok || r != rec.n+i || h.LabelAt(r) != l {
			return false
		}
		newEdges += h.DirectInDegree(r)
	}
	if rec.edges+newEdges != h.DirectEdgeCount() {
		return false
	}
	if rec.rew.Aliased() {
		for _, l := range newOps {
			if l.IsQueryUpdate() {
				return false
			}
		}
	}
	return true
}

// rebuildExt is the degradation ladder's bottom rung: check h in full over
// the rewriting of its record — the record of h in its current size, derived
// afresh on a miss — and make that record's certificate the verdict's
// witness for the next call. The witness is found over the record's own
// rewriting, so the two always belong together.
func (s *Session) rebuildExt(h *core.History, spec core.Spec, opts core.CheckOptions, token any) core.Result {
	rec, cached, err := s.recordFor(h, opts.Rewriting, token)
	if err != nil {
		// The result core.CheckRA reports for a failed rewriting. There is
		// nothing incremental to track: every later Extend repeats the
		// rewriting and reproduces this result.
		return core.Result{Verdict: core.VerdictInvalid, LastErr: err}
	}
	res := core.CheckRewritten(rec.rew, spec, opts)
	res.RewriteCached = cached
	if res.Verdict != core.VerdictValid && !rec.rew.History.IsAcyclic() {
		// A cyclic rewriting is refuted before any search; the record stays
		// undecided, so every later Extend repeats the plain check.
		return res
	}
	rec.spec = spec
	if res.Verdict == core.VerdictValid {
		rec.setWitness(rec.rew.History, res.Linearization)
	} else {
		rec.dropWitness()
	}
	// A check on another goroutine (or the spec itself) may have evicted the
	// record while this one ran; the decided record goes back in.
	s.mu.Lock()
	if s.records[h] != rec {
		s.putLocked(h, rec)
	}
	s.mu.Unlock()
	return res
}

// replayCertificate checks whether appending the new rewritten labels (ranks
// rewLen..rh.Len()) to the stored witness in rank order yields an
// RA-linearization, without any search:
//
//	(i)  frontier admissibility — every predecessor of a new label has a
//	     smaller rank, so it is already placed when the label is appended;
//	(ii) the update projection stays admitted — new updates step the
//	     record's state along the same run, which must admit each of them;
//	(iii) each new query is justified by its visible updates in witness
//	     order (old queries cannot have gained visible updates under the
//	     edge discipline, so only the new ones need checking).
//
// The state is stepped in place: through StepOwned when the spec has it, and
// otherwise replaced by the first StepAppend successor. One run is enough to
// prove (ii), but not to refute it — another run of a nondeterministic spec
// may admit what this one rejects — so a failed replay only sends the caller
// to the search, whose verdict replaces the certificate. Until then the
// record is marked not valid, since its state may be stepped part-way.
func (rec *record) replayCertificate(rh *core.History, rewLen int) bool {
	rec.valid = false
	rhN := rh.Len()
	admissible := true
	for t := rewLen; t < rhN; t++ {
		rh.PredRow(t, func(f int) {
			if f >= t {
				admissible = false
			}
		})
		if !admissible {
			return false
		}
	}
	stepper, owned := rec.spec.(core.OwnedStepper)
	if words := (rhN + 63) / 64; cap(rec.visBuf) < words {
		rec.visBuf = make([]uint64, words)
	} else {
		rec.visBuf = rec.visBuf[:words]
	}
	vis := rec.visBuf
	mark := func(f int) { vis[f>>6] |= 1 << (f & 63) }
	visible := func(r int) bool { return r >= 0 && vis[r>>6]&(1<<(r&63)) != 0 }
	for t := rewLen; t < rhN; t++ {
		l := rh.LabelAt(t)
		if l.IsUpdate() {
			if owned {
				var ok bool
				if rec.state, ok = stepper.StepOwned(rec.state, l); !ok {
					return false
				}
				continue
			}
			rec.stepBuf = rec.spec.StepAppend(rec.stepBuf[:0], rec.state, l)
			if len(rec.stepBuf) == 0 {
				return false
			}
			rec.state = rec.stepBuf[0]
			continue
		}
		// The justification: the witness positions of the visible updates —
		// the stored witness, then the new labels before t in rank order, a
		// new label r sitting at len(rec.witness)+r-rewLen.
		clear(vis)
		rh.PredRow(t, mark)
		pos := scratch(rec.posBuf, rhN)
		for i, u := range rec.witness {
			if u.IsUpdate() && visible(rec.witRanks[i]) {
				pos = append(pos, i)
			}
		}
		for r := rewLen; r < t; r++ {
			if rh.LabelAt(r).IsUpdate() && visible(r) {
				pos = append(pos, len(rec.witness)+r-rewLen)
			}
		}
		rec.posBuf = pos
		if !rec.justify(rh, rewLen, l, pos) {
			return false
		}
	}
	rec.valid = true
	return true
}

// scratch returns buf emptied, or a fresh buffer with room for 2n when buf
// cannot hold n, so scratch sized by a growing history regrows by doubling.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, 2*n)
	}
	return buf[:0]
}

// justEntry is the justification cache of one origin replica: the witness
// positions of the updates the last justified query from that replica saw,
// ascending, and the state at the end of a run of the spec over those
// updates in witness order, the query excluded. An OwnedStepper's state is
// the entry's own copy, stepped in place; it never aliases the record's
// state.
type justEntry struct {
	origin clock.ReplicaID
	pos    []int
	state  core.AbsState
}

// testHookNoJustCache makes every justification fold start from the initial
// state, so tests can compare the replay with and without the cache.
var testHookNoJustCache bool

// justify reports whether the query q is justified by its visible updates,
// at witness positions pos, in witness order (Definition 3.4 (iii)): whether
// some run of the spec applies them and then admits q. The answer is
// Admits(updates·q), as a fold from the initial state gives it; the cache of
// q's origin replica only saves steps. Its entry serves when its positions
// are a subset of pos and the updates q adds to them can be moved behind the
// cached ones in witness order without changing the runs' end states:
//
//   - suffix rule: every added update comes after every cached one, so the
//     cached positions are a prefix of pos;
//   - commutative rule: the spec is a core.Commuter and each added update
//     commutes with every cached update after it in witness order (the
//     exchange argument of "Commuting updates" in docs/ARCHITECTURE.md).
//
// The added updates are then folded from the entry's state, and q is checked
// with StepAppend, which leaves that state untouched. Otherwise, or when the
// cached run rejects (a nondeterministic spec's other runs may not), the
// fold starts from the initial state as it would without a cache. The origin
// only picks which entry to try, so the answer never depends on it. A fold
// that justifies q becomes its origin's entry; a failed one drops it.
func (rec *record) justify(rh *core.History, rewLen int, q *core.Label, pos []int) bool {
	e := rec.entry(q.Origin)
	if e != nil && !testHookNoJustCache {
		if added, ok := rec.cachedAdds(rh, rewLen, e.pos, pos); ok {
			state, rejected, steps := core.FoldFrom(rec.spec, e.state, added)
			rec.justSteps += steps
			if rejected < 0 && rec.admitsQuery(state, q) {
				rec.keep(e, pos, state)
				return true
			}
		}
	}
	just := scratch(rec.justBuf, len(pos)+1)
	for _, p := range pos {
		just = append(just, rec.witnessAt(rh, rewLen, p))
	}
	rec.justBuf = just
	_, owned := rec.spec.(core.OwnedStepper)
	phi := rec.spec.Init()
	if owned {
		phi = phi.CloneAbs()
	}
	state, rejected, steps := core.FoldFrom(rec.spec, phi, just)
	rec.justSteps += steps
	if rejected < 0 && rec.admitsQuery(state, q) {
		if e == nil {
			rec.just = append(rec.just, justEntry{origin: q.Origin})
			e = &rec.just[len(rec.just)-1]
		}
		rec.keep(e, pos, state)
		return true
	}
	rec.dropEntry(q.Origin)
	if rejected >= 0 || owned {
		// Every run over just·q is a run over just followed by q, and a
		// deterministic spec has one.
		return false
	}
	// Another run over just may admit q: the walk over the whole sequence.
	_, rejected, steps = core.FoldFrom(rec.spec, rec.spec.Init(), append(just, q))
	rec.justSteps += steps
	return rejected < 0
}

// keep makes pos and state the entry's cache. pos is the replay's position
// scratch: the entry takes it, and hands its old positions back as scratch.
func (rec *record) keep(e *justEntry, pos []int, state core.AbsState) {
	e.pos, rec.posBuf = pos, e.pos[:0]
	e.state = state
}

// cachedAdds reports whether the cached positions cpos (ascending) serve a
// query whose visible updates sit at positions pos, and if so returns the
// updates pos adds to cpos in witness order. Every cached position must be
// in pos, and every added update must come after every cached one or
// commute with each cached update after it.
func (rec *record) cachedAdds(rh *core.History, rewLen int, cpos, pos []int) ([]*core.Label, bool) {
	cm, _ := rec.spec.(core.Commuter)
	added := scratch(rec.addBuf, len(pos))
	rec.addBuf = added
	i := 0
	for _, p := range pos {
		if i < len(cpos) && cpos[i] <= p {
			if cpos[i] < p {
				return nil, false // a cached update the query does not see
			}
			i++
			continue
		}
		a := rec.witnessAt(rh, rewLen, p)
		if i < len(cpos) {
			if cm == nil {
				return nil, false
			}
			for _, c := range cpos[i:] {
				if !cm.Commutes(a, rec.witnessAt(rh, rewLen, c)) {
					return nil, false
				}
			}
		}
		added = append(added, a)
	}
	rec.addBuf = added
	return added, i == len(cpos)
}

// witnessAt returns the label at witness position p during a replay: the
// stored witness, followed by the new labels from rank rewLen on.
func (rec *record) witnessAt(rh *core.History, rewLen, p int) *core.Label {
	if p < len(rec.witness) {
		return rec.witness[p]
	}
	return rh.LabelAt(rewLen + p - len(rec.witness))
}

// admitsQuery reports whether the spec admits the query q in phi, counting
// the step. StepAppend leaves phi untouched.
func (rec *record) admitsQuery(phi core.AbsState, q *core.Label) bool {
	rec.stepBuf = rec.spec.StepAppend(rec.stepBuf[:0], phi, q)
	rec.justSteps++
	return len(rec.stepBuf) > 0
}

// entry returns the justification cache entry of an origin replica, or nil.
func (rec *record) entry(origin clock.ReplicaID) *justEntry {
	for i := range rec.just {
		if rec.just[i].origin == origin {
			return &rec.just[i]
		}
	}
	return nil
}

// dropEntry forgets an origin replica's justification cache entry.
func (rec *record) dropEntry(origin clock.ReplicaID) {
	rec.just = slices.DeleteFunc(rec.just, func(e justEntry) bool { return e.origin == origin })
}
