package search

import (
	"fmt"
	"math/bits"

	"ralin/internal/core"
)

// status is the outcome of exploring one subtree.
type status int

const (
	// sExhausted: the subtree was fully explored and holds no witness.
	sExhausted status = iota
	// sFound: a witness was found (and recorded in the shared state).
	sFound
	// sStopped: the search was cancelled or the node budget ran out; the
	// subtree may contain unexplored nodes.
	sStopped
)

// witnessChunkLabels is the allocation unit of the witness arena: witness
// slices are carved out of chunks this large, so a session re-checking
// histories amortizes the per-witness slice allocation to ~0 (one chunk per
// ~chunk/len witnesses). Carved regions are never recycled — the caller owns
// its witness — so a handed-out witness keeps at most one chunk alive.
const witnessChunkLabels = 512

// pruneReason records why a prefix was rejected, kept cheap so the hot path
// does no formatting; searcher.flush renders the last one.
type pruneReason struct {
	label *core.Label
	cond  string
	// query is the pending query whose justification died (condition iii
	// pruned at an update), nil otherwise.
	query *core.Label
}

func (r pruneReason) err() error {
	if r.label == nil {
		return nil
	}
	if r.query != nil {
		return fmt.Errorf("condition (%s): placing %v leaves query %v unjustifiable by its visible updates",
			r.cond, r.label, r.query)
	}
	return fmt.Errorf("condition (%s): prefix rejected at %v", r.cond, r.label)
}

// setBuf is one reusable state-set buffer. While the specification is keyable
// it carries three parallel views of the set: the abstract states in arrival
// order, their session-interner IDs (the step-cache keys), and a bitset over
// check-local compact IDs (shared.compact) — the set's canonical form.
// Membership is a single word test on the bitset, and memo hashing folds the
// words directly instead of walking IDs one at a time. The bitset is kept in
// canonical trimmed form (its last word is always nonzero), so two buffers
// hold equal sets exactly when their word slices are equal.
type setBuf struct {
	states []core.AbsState
	ids    []uint32
	words  []uint64
}

// searcher is the mutable search state of one check.
type searcher struct {
	pre    *prepared
	spec   core.Spec
	strong bool
	sh     *shared
	intern *interner
	memo   *memoTable
	// compact assigns dense check-local IDs to session-interner IDs (points
	// into sh).
	compact *compactor
	// steps is the session's per-spec transition cache, nil when the check
	// runs sessionless or the spec is not cacheable. On a warm session the
	// stepAll fast path replays cached (state, label) transitions without
	// re-entering the spec (no StateKey rendering, no interner probe).
	steps *stepCache

	// stepScratch is the reusable buffer StepAppend fills per transition.
	stepScratch []core.AbsState
	// fillIDs is the scratch slice of successor IDs fillStep interns before a
	// transition is stored in the step cache.
	fillIDs []uint32

	// indegree[i] counts the not-yet-placed visibility predecessors of
	// labels[i], plus one while its preceding twin (pre.twinNext) is
	// unplaced; a label is in the frontier when its count is zero and it is
	// not placed.
	indegree []int
	placed   bitset
	// frontier is the candidate set as a bitset over order positions
	// (pre.pos[i] is label i's bit): bit p is set exactly when the label at
	// order position p has indegree zero and is not placed. Candidate
	// enumeration walks the set bits word by word — ascending position is
	// ascending rank order, the historical candidate order — instead of
	// scanning all of pre.order and testing indegree/placed per label.
	// enter/leave maintain it with single word operations.
	frontier bitset
	seq      []int
	// main is the set of abstract states reachable after the placed updates
	// (RA mode) or the placed prefix (strong mode); mainIDs/mainWords are its
	// interner-ID and compact-bitset views, nil once keying is off.
	main      []core.AbsState
	mainIDs   []uint32
	mainWords []uint64
	// qstates[q] / qids[q] / qwords[q] are, for each unplaced query index q,
	// the three views of its justification set so far (RA mode only);
	// non-query indices stay nil.
	qstates [][]core.AbsState
	qids    [][]uint32
	qwords  [][]uint64
	// keyable caches whether every state seen so far interned; it flips off
	// (together with sh.unkeyable, which disables memoization) at the first
	// state without a canonical key.
	keyable bool
	// initStates/initIDs/initWords back the bottom-of-stack main set ({ϕ0});
	// they are owned by the searcher (never pooled by putBuf) and reused
	// across the checks of a session.
	initStates []core.AbsState
	initIDs    []uint32
	initWords  []uint64
	// keyTuple is the debug-memo scratch: the exact word sequence the last
	// memoKey hashed, stored by claim as the collision-check witness. Unused
	// (and never grown) outside debug mode.
	keyTuple []uint64

	frames []frame
	// pool recycles state-set buffers released by leave; after warm-up the
	// inner loop allocates nothing here.
	pool []setBuf
	// stepped stages the advanced query sets of one enter so the searcher is
	// left untouched when a later query's justification dies.
	stepped []setBuf

	// witMem is the witness arena: the current chunk witness() carves
	// complete linearizations from. Carved regions are caller-owned and never
	// recycled; the chunk advances and a new one is allocated only when full.
	witMem []*core.Label

	// guided enables heuristic branch ordering (core.GuidanceGuided): enabled
	// queries are committed to immediately (RA mode), remaining candidates are
	// ordered by pre.guide plus the per-node novelty bit. Set by Run right
	// after construction; false is rank order, the byte-identical historical
	// behaviour.
	guided bool
	// ord[d] is the guided frontier scratch of depth d (grown lazily, only in
	// guided mode).
	ord [][]int
	// scoreBuf is the transient per-node score scratch orderCands sorts
	// alongside the candidates; only live during one ordering.
	scoreBuf []int64

	reason  pruneReason
	nodes   int64
	leaves  int64
	pruned  int64
	memoHit int64
}

// newSearcher builds a search state over the empty prefix, reusing the
// backing arrays and buffer pools of recycled (a searcher released into a
// Session by an earlier check; nil allocates fresh). memo may be nil when
// memoization is disabled.
func newSearcher(recycled *searcher, pre *prepared, spec core.Spec, strong bool, intern *interner, memo *memoTable, sh *shared) *searcher {
	s := recycled
	if s == nil {
		s = &searcher{}
	}
	n := len(pre.labels)
	s.pre = pre
	s.spec = spec
	s.strong = strong
	s.sh = sh
	s.intern = intern
	s.memo = memo
	s.compact = &sh.compact
	s.steps = sh.steps
	s.indegree = resizeInts(s.indegree, n)
	s.placed = resizeBitset(s.placed, n)
	s.frontier = resizeBitset(s.frontier, n)
	for i := range s.indegree {
		s.indegree[i] = len(pre.preds[i])
	}
	for _, t := range pre.twinNext {
		if t >= 0 {
			s.indegree[t]++
		}
	}
	for i, d := range s.indegree {
		if d == 0 {
			s.frontier.set(pre.pos[i])
		}
	}
	s.seq = s.seq[:0]
	s.keyable = !sh.unkeyable
	s.reason = pruneReason{}
	s.nodes, s.leaves, s.pruned, s.memoHit = 0, 0, 0, 0
	init, initID, initOK := s.cachedInit()
	s.initStates = append(s.initStates[:0], init)
	s.main = s.initStates
	s.mainIDs, s.mainWords = nil, nil
	if initOK {
		s.initIDs = append(s.initIDs[:0], initID)
		s.mainIDs = s.initIDs
		cid := s.compact.compact(initID)
		s.initWords = appendBit(s.initWords[:0], cid)
		s.mainWords = s.initWords
	}
	s.qstates = resizeStateSets(s.qstates, n)
	s.qids = resizeIDSets(s.qids, n)
	s.qwords = resizeWordSets(s.qwords, n)
	if !strong {
		for _, q := range pre.queries {
			// All pending justifications start at the initial state; the
			// shared slice is safe because sets are never mutated in place
			// and only enter-created buffers are ever recycled.
			s.qstates[q] = s.main
			s.qids[q] = s.mainIDs
			s.qwords[q] = s.mainWords
		}
	}
	return s
}

// cachedInit returns the specification's initial state and its interned ID.
// With a session step cache the pair is served from the cache after the first
// check, skipping both spec.Init's fresh state and the StateKey rendering the
// interner probe needs — the last per-check allocations of a warm re-check.
// Interning failures (unkeyable spec, interner at budget) are never cached.
func (s *searcher) cachedInit() (core.AbsState, uint32, bool) {
	if c := s.steps; c != nil {
		c.mu.RLock()
		init, id := c.initState, c.initID
		c.mu.RUnlock()
		if init != nil {
			return init, id, true
		}
	}
	init := s.spec.Init()
	id, ok := s.internState(init)
	if ok && s.steps != nil {
		c := s.steps
		c.mu.Lock()
		if c.initState == nil {
			c.initState, c.initID = init, id
		}
		c.mu.Unlock()
	}
	return init, id, ok
}

// appendBit extends words so bit id is set, growing to exactly the word that
// holds it — which keeps the slice in canonical trimmed form (last word
// nonzero) when building a fresh single-bit set.
func appendBit(words []uint64, id uint32) []uint64 {
	w, m := int(id>>6), uint64(1)<<(id&63)
	for len(words) < w {
		words = append(words, 0)
	}
	return append(words, m)
}

// release unwinds the searcher and drops every reference into the finished
// check (history, specification, shared state, live state sets) so a pooled
// searcher pins nothing; the backing arrays, undo frames and buffer pool stay
// for the next check. The witness arena chunk is kept: its carved prefix is
// caller-owned and its free tail is clean.
func (s *searcher) release() {
	s.reset()
	s.reason = pruneReason{} // flush already rendered it; drop its labels
	s.guided = false
	s.pre = nil
	s.spec = nil
	s.sh = nil
	s.intern = nil
	s.memo = nil
	s.compact = nil
	s.steps = nil
	clear(s.stepScratch[:cap(s.stepScratch)])
	s.stepScratch = s.stepScratch[:0]
	clear(s.initStates[:cap(s.initStates)])
	s.initStates = s.initStates[:0]
	s.main, s.mainIDs, s.mainWords = nil, nil, nil
	clear(s.qstates[:cap(s.qstates)])
	clear(s.qids[:cap(s.qids)])
	clear(s.qwords[:cap(s.qwords)])
	frames := s.frames[:cap(s.frames)]
	for i := range frames {
		frames[i].main, frames[i].mainIDs, frames[i].mainWords = nil, nil, nil
		saved := frames[i].saved[:cap(frames[i].saved)]
		for k := range saved {
			saved[k] = savedQuery{}
		}
	}
}

// resizeInts returns a length-n int slice, reusing s's backing array when it
// is large enough. Contents are unspecified; callers overwrite every entry.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// resizeBitset returns a zeroed bitset with capacity for n bits, reusing b's
// backing array when it is large enough.
func resizeBitset(b bitset, n int) bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return newBitset(n)
	}
	b = b[:words]
	clear(b)
	return b
}

// resizeStateSets returns a length-n slice of nil state sets, reusing s's
// backing array (scrubbed over its full capacity so no stale sets survive).
func resizeStateSets(s [][]core.AbsState, n int) [][]core.AbsState {
	if cap(s) < n {
		return make([][]core.AbsState, n)
	}
	clear(s[:cap(s)])
	return s[:n]
}

// resizeIDSets is resizeStateSets for the parallel interned-ID sets.
func resizeIDSets(s [][]uint32, n int) [][]uint32 {
	if cap(s) < n {
		return make([][]uint32, n)
	}
	clear(s[:cap(s)])
	return s[:n]
}

// resizeWordSets is resizeStateSets for the parallel compact-bitset sets.
func resizeWordSets(s [][]uint64, n int) [][]uint64 {
	if cap(s) < n {
		return make([][]uint64, n)
	}
	clear(s[:cap(s)])
	return s[:n]
}

// reset unwinds the searcher back to the empty prefix by leaving every placed
// label, recycling the state-set buffers along the way.
func (s *searcher) reset() {
	for len(s.seq) > 0 {
		s.leave(s.seq[len(s.seq)-1])
	}
}

// internState interns the canonical key of one abstract state. A state
// without a key permanently disables keying and memoization for the rest of
// the check; an interner at its memory budget does the same and
// additionally trips the session budget, so the search finishes memo-less
// and the session evicts once idle. Either way the verdict stays sound —
// keying only feeds deduplication and memoization, never admissibility.
func (s *searcher) internState(phi core.AbsState) (uint32, bool) {
	if !s.keyable {
		return 0, false
	}
	if keyer, ok := phi.(core.StateKeyer); ok {
		if key, ok := keyer.StateKey(); ok {
			if id, ok := s.intern.id(key); ok {
				return id, true
			}
			s.sh.tripMemBudget()
		}
	}
	s.keyable = false
	s.sh.unkeyable = true
	return 0, false
}

// flush copies the counters and prune reason into the shared state; call
// once when the search is done. The prune reason is only rendered (one
// fmt.Errorf) when the search found no witness — a witness-producing search
// never reads it, so the warm re-check path skips the formatting allocation
// entirely.
func (s *searcher) flush() {
	sh := s.sh
	sh.nodes, sh.leaves, sh.pruned, sh.memoHits = s.nodes, s.leaves, s.pruned, s.memoHit
	if s.reason.label != nil && sh.witness == nil {
		sh.lastErr = s.reason.err()
	}
}

// dfs explores the subtree under the current prefix.
func (s *searcher) dfs() status {
	if s.sh.stop.Load() {
		return sStopped
	}
	s.nodes++
	if b := s.sh.budget; b > 0 && s.nodes > b {
		// The node budget is exhausted.
		s.sh.truncated = true
		return sStopped
	}
	if len(s.seq) == len(s.pre.labels) {
		// Conditions (i)–(iii) were enforced on every prefix, so a complete
		// sequence is a witness.
		s.leaves++
		s.sh.witness = s.witness()
		return sFound
	}
	if key, keyed := s.memoKey(); keyed {
		if !s.memo.claim(key, s.keyTuple) {
			// An equal configuration has been explored; its subtree equals
			// ours, so skip.
			s.memoHit++
			return sExhausted
		}
		// Memo-budget accounting rides the store path only (a claimed entry
		// was just added): past the limit the search stops memoizing — an
		// allocation-free degradation. Zero cost per node when no budget is
		// set.
		if lim := s.sh.memoLimit; lim > 0 && s.sh.memoCount.Load() > lim {
			s.memo = nil
			s.sh.tripMemBudget()
		}
	}
	if s.guided && !s.strong {
		// Query commit: a frontier query's justification is final (every
		// visible update is placed), and placing it touches neither the main
		// update projection nor any other pending query's justification — so
		// by an exchange argument the subtree that places it right now covers
		// the whole node: any witness placing it later reorders to one placing
		// it now, and an inadmissible final justification refutes every
		// extension. Exploring only this branch is the reduction that shrinks
		// complete (refuting) searches, which pure sibling reordering cannot.
		if q := s.enabledQuery(); q >= 0 {
			return s.explore(q)
		}
	}
	if s.guided {
		return s.exploreGuided(len(s.seq))
	}
	// Rank order: walk the frontier bitset directly. Each word is
	// copied once; explore restores the searcher (frontier included) to its
	// node-entry state before returning, so the remaining bits of the copy
	// stay the not-yet-tried candidates. Ascending bit position is ascending
	// order position — exactly the historical pre.order scan, without the
	// O(n) indegree/placed probing per node.
	for w, word := range s.frontier {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if st := s.explore(s.pre.order[base|b]); st != sExhausted {
				return st
			}
		}
	}
	return sExhausted
}

// enabledQuery returns the first frontier query in ascending query order, or
// -1 when no query is enabled (RA mode only; strong-mode plans have no query
// index). Frontier membership is one bit probe per query.
func (s *searcher) enabledQuery() int {
	for _, q := range s.pre.queries {
		if s.frontier.get(s.pre.pos[q]) {
			return q
		}
	}
	return -1
}

// collectFrontier appends the frontier's label indices, in ascending order
// position (= candidate rank order), to cands.
func (s *searcher) collectFrontier(cands []int) []int {
	for w, word := range s.frontier {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			cands = append(cands, s.pre.order[base|b])
		}
	}
	return cands
}

// exploreGuided is the guided candidate loop: collect the frontier
// into per-depth scratch, order it by composite score (orderCands), and
// explore in that order. The recursion under explore uses strictly deeper
// scratch slots, so the slice iterated here stays intact.
func (s *searcher) exploreGuided(depth int) status {
	for len(s.ord) <= depth {
		s.ord = append(s.ord, nil)
	}
	cands := s.collectFrontier(s.ord[depth][:0])
	s.orderCands(cands)
	s.ord[depth] = cands
	for _, i := range cands {
		if st := s.explore(i); st != sExhausted {
			return st
		}
	}
	return sExhausted
}

// orderCands sorts frontier candidates in place by descending composite
// score: the novelty bit (the step reaches a spec state the interner has not
// seen) above the static pre.guide score (pending-query justification count,
// then session success score). The insertion sort is stable, so equal scores
// keep rank order — ordering is a deterministic function of the session state
// at node entry.
func (s *searcher) orderCands(cands []int) {
	if len(cands) < 2 {
		return
	}
	sb := s.scoreBuf[:0]
	for _, i := range cands {
		sc := s.pre.guide[i]
		if s.novel(i) {
			sc |= guideNoveltyBit
		}
		sb = append(sb, sc)
	}
	s.scoreBuf = sb
	for k := 1; k < len(cands); k++ {
		ci, cs := cands[k], sb[k]
		j := k - 1
		for ; j >= 0 && sb[j] < cs; j-- {
			cands[j+1], sb[j+1] = cands[j], sb[j]
		}
		cands[j+1], sb[j+1] = ci, cs
	}
}

// novel reports whether placing label i reaches at least one spec state whose
// canonical key the interner has not seen. The probe is read-only (interner
// peek, no insertion), so ordering neither grows the interner nor consumes
// its budget; queries never advance the main set and are never novel. A
// source state whose transition is in the session step cache is skipped: its
// successors were interned when the entry was filled, so none can be novel —
// the same answer the StepAppend probe would compute. Once keying is off the
// signal degrades to false for everyone — ordering then rests on the static
// scores alone.
func (s *searcher) novel(i int) bool {
	l := s.pre.labels[i]
	if !s.keyable || l.IsQuery() {
		return false
	}
	cached := s.steps != nil && len(s.mainIDs) == len(s.main)
	for si, phi := range s.main {
		if cached {
			if _, ok := s.steps.get(s.mainIDs[si], l); ok {
				continue
			}
		}
		sc := s.spec.StepAppend(s.stepScratch[:0], phi, l)
		s.stepScratch = sc
		if s.anyNovel(sc) {
			return true
		}
	}
	return false
}

// anyNovel reports whether any of the states has a canonical key the interner
// has not seen yet.
func (s *searcher) anyNovel(states []core.AbsState) bool {
	for _, nxt := range states {
		keyer, ok := nxt.(core.StateKeyer)
		if !ok {
			continue
		}
		key, ok := keyer.StateKey()
		if !ok {
			continue
		}
		if !s.intern.has(key) {
			return true
		}
	}
	return false
}

// explore descends into candidate i: enter, recurse, leave.
func (s *searcher) explore(i int) status {
	if !s.enter(i) {
		return sExhausted
	}
	st := s.dfs()
	s.leave(i)
	return st
}

// enter tries to extend the prefix with label index i. It returns false —
// leaving the searcher unchanged — when the extended prefix is inadmissible
// or unjustifiable, and records the prune.
func (s *searcher) enter(i int) bool {
	l := s.pre.labels[i]
	if s.strong {
		next := s.stepAll(s.main, s.mainIDs, l)
		if len(next.states) == 0 {
			s.putBuf(next)
			s.pruned++
			s.reason = pruneReason{label: l, cond: "prefix"}
			return false
		}
		fr := s.pushFrame()
		fr.main, fr.mainIDs, fr.mainWords = s.main, s.mainIDs, s.mainWords
		if !l.IsQuery() {
			// Updates (and query-updates, which strong mode treats as
			// updates) advance the prefix state; queries only have to be
			// admitted at it.
			fr.advanced = true
			s.main, s.mainIDs, s.mainWords = next.states, next.ids, next.words
		} else {
			s.putBuf(next)
		}
	} else if l.IsUpdate() {
		next := s.stepAll(s.main, s.mainIDs, l)
		if len(next.states) == 0 {
			s.putBuf(next)
			s.pruned++
			s.reason = pruneReason{label: l, cond: "ii"}
			return false
		}
		// Advance every pending query this update is visible to; a dead
		// justification dooms every completion of the prefix, so prune now
		// instead of when the query is placed. The advanced sets are staged
		// in s.stepped so a late death leaves the searcher untouched.
		s.stepped = s.stepped[:0]
		for _, q := range s.pre.affected[i] {
			if s.placed.get(q) {
				continue
			}
			nq := s.stepAll(s.qstates[q], s.qids[q], l)
			if len(nq.states) == 0 {
				s.putBuf(nq)
				for _, b := range s.stepped {
					s.putBuf(b)
				}
				s.stepped = s.stepped[:0]
				s.putBuf(next)
				s.pruned++
				s.reason = pruneReason{label: l, cond: "iii", query: s.pre.labels[q]}
				return false
			}
			s.stepped = append(s.stepped, nq)
		}
		fr := s.pushFrame()
		fr.main, fr.mainIDs, fr.mainWords = s.main, s.mainIDs, s.mainWords
		fr.advanced = true
		k := 0
		for _, q := range s.pre.affected[i] {
			if s.placed.get(q) {
				continue
			}
			fr.saved = append(fr.saved, savedQuery{q: q, states: s.qstates[q], ids: s.qids[q], words: s.qwords[q]})
			s.qstates[q], s.qids[q], s.qwords[q] = s.stepped[k].states, s.stepped[k].ids, s.stepped[k].words
			k++
		}
		s.stepped = s.stepped[:0]
		s.main, s.mainIDs, s.mainWords = next.states, next.ids, next.words
	} else {
		// Queries: the justification (visible updates in placed order,
		// then the query) must be admitted. All visible updates are
		// necessarily placed already, so qstates[i] is final.
		res := s.stepAll(s.qstates[i], s.qids[i], l)
		admitted := len(res.states) > 0
		s.putBuf(res)
		if !admitted {
			s.pruned++
			s.reason = pruneReason{label: l, cond: "iii", query: nil}
			return false
		}
		fr := s.pushFrame()
		fr.main, fr.mainIDs, fr.mainWords = s.main, s.mainIDs, s.mainWords
	}
	s.placed.set(i)
	s.frontier.clear(s.pre.pos[i])
	s.seq = append(s.seq, i)
	for _, j := range s.pre.succs[i] {
		s.unblock(j)
	}
	if t := s.pre.twinNext[i]; t >= 0 {
		s.unblock(t)
	}
	return true
}

// unblock takes one incoming edge (visibility or twin link) off label j,
// adding it to the frontier when it was the last.
func (s *searcher) unblock(j int) {
	s.indegree[j]--
	if s.indegree[j] == 0 {
		s.frontier.set(s.pre.pos[j])
	}
}

// block puts back an edge unblock took off label j.
func (s *searcher) block(j int) {
	if s.indegree[j] == 0 {
		s.frontier.clear(s.pre.pos[j])
	}
	s.indegree[j]++
}

// leave undoes enter(i), recycling the state-set buffers the matching enter
// created.
func (s *searcher) leave(i int) {
	if t := s.pre.twinNext[i]; t >= 0 {
		s.block(t)
	}
	for _, j := range s.pre.succs[i] {
		s.block(j)
	}
	s.seq = s.seq[:len(s.seq)-1]
	s.placed.clear(i)
	s.frontier.set(s.pre.pos[i])
	fr := &s.frames[len(s.frames)-1]
	for k := len(fr.saved) - 1; k >= 0; k-- {
		sv := fr.saved[k]
		s.putBuf(setBuf{states: s.qstates[sv.q], ids: s.qids[sv.q], words: s.qwords[sv.q]})
		s.qstates[sv.q], s.qids[sv.q], s.qwords[sv.q] = sv.states, sv.ids, sv.words
	}
	if fr.advanced {
		s.putBuf(setBuf{states: s.main, ids: s.mainIDs, words: s.mainWords})
	}
	s.main, s.mainIDs, s.mainWords = fr.main, fr.mainIDs, fr.mainWords
	s.frames = s.frames[:len(s.frames)-1]
}

// frame is the undo record of one placement. State-set slices are never
// mutated in place once published (stepAll dedups inside the buffer before it
// becomes visible), so saving the old slice headers restores them exactly;
// advanced records whether enter replaced the main set (and leave must
// recycle the replacement).
type frame struct {
	main      []core.AbsState
	mainIDs   []uint32
	mainWords []uint64
	advanced  bool
	saved     []savedQuery
}

type savedQuery struct {
	q      int
	states []core.AbsState
	ids    []uint32
	words  []uint64
}

// pushFrame returns the next frame slot, reusing the backing array (and each
// frame's saved slice) across placements so the steady-state DFS allocates no
// frames at all.
func (s *searcher) pushFrame() *frame {
	if len(s.frames) == cap(s.frames) {
		s.frames = append(s.frames, frame{})
	} else {
		s.frames = s.frames[:len(s.frames)+1]
	}
	fr := &s.frames[len(s.frames)-1]
	fr.main, fr.mainIDs, fr.mainWords = nil, nil, nil
	fr.advanced = false
	fr.saved = fr.saved[:0]
	return fr
}

// getBuf takes a recycled state-set buffer from the pool (or a zero one).
func (s *searcher) getBuf() setBuf {
	if n := len(s.pool); n > 0 {
		b := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return b
	}
	return setBuf{}
}

// putBuf returns a buffer to the pool, dropping its state references so the
// pool does not pin dead abstract states.
func (s *searcher) putBuf(b setBuf) {
	for i := range b.states {
		b.states[i] = nil
	}
	s.pool = append(s.pool, setBuf{states: b.states[:0], ids: b.ids[:0], words: b.words[:0]})
}

// stepAll applies label l to every state of the set and returns the deduped
// successor set in a pooled buffer; ids is the set's parallel interner-ID
// view (nil or shorter once keying is off, which routes around the cache).
// With a session step cache each (source state, label) transition is replayed
// from the cache when present — no spec call, no StateKey rendering, no
// interner probe — and computed-and-cached otherwise. Without a cache, each
// transition steps into a reused scratch buffer. While the specification is
// keyable, deduplication is a single bit test on the compact-ID bitset;
// otherwise it falls back to pairwise EqualAbs.
func (s *searcher) stepAll(states []core.AbsState, ids []uint32, l *core.Label) setBuf {
	buf := s.getBuf()
	if s.steps != nil && s.keyable && len(ids) == len(states) {
		for si := 0; si < len(states); si++ {
			e, hit := s.steps.get(ids[si], l)
			if !hit {
				if !s.fillStep(states[si], ids[si], l, &buf) {
					// Keying flipped off mid-transition: the buffer already
					// fell back to EqualAbs dedup; route the remaining source
					// states through the uncached path.
					s.stepUncached(&buf, states[si+1:], l)
					return buf
				}
				continue
			}
			for k := range e.states {
				s.insertKnown(&buf, e.states[k], e.ids[k])
			}
		}
		return buf
	}
	s.stepUncached(&buf, states, l)
	return buf
}

// fillStep computes the successors of one (state, label) transition, inserts
// them into buf, and — when every successor interned — stores the raw
// transition (successors in emission order, duplicates included, so a cache
// replay inserts the exact sequence the live path would) in the session step
// cache. It returns false when keying flipped off mid-transition.
func (s *searcher) fillStep(phi core.AbsState, id uint32, l *core.Label, buf *setBuf) bool {
	raw := s.spec.StepAppend(s.stepScratch[:0], phi, l)
	s.stepScratch = raw
	s.fillIDs = s.fillIDs[:0]
	for _, nxt := range raw {
		nid, ok := s.internState(nxt)
		if !ok {
			// The buffer's keyed views are meaningless now; drop them and
			// re-insert everything via the EqualAbs fallback (the states
			// inserted so far were deduped consistently).
			buf.ids = buf.ids[:0]
			buf.words = buf.words[:0]
			for _, r := range raw {
				s.insert(buf, r)
			}
			return false
		}
		s.fillIDs = append(s.fillIDs, nid)
	}
	for k := range raw {
		s.insertKnown(buf, raw[k], s.fillIDs[k])
	}
	s.steps.put(id, l, raw, s.fillIDs)
	return true
}

// stepUncached is the cache-less transition loop of stepAll.
func (s *searcher) stepUncached(buf *setBuf, states []core.AbsState, l *core.Label) {
	for _, phi := range states {
		sc := s.spec.StepAppend(s.stepScratch[:0], phi, l)
		s.stepScratch = sc
		for _, nxt := range sc {
			s.insert(buf, nxt)
		}
	}
}

// insert adds one successor state to the buffer, deduplicating by compact-ID
// bit test or, once keying is off, by EqualAbs scan.
func (s *searcher) insert(buf *setBuf, phi core.AbsState) {
	if s.keyable {
		if id, ok := s.internState(phi); ok {
			s.insertKnown(buf, phi, id)
			return
		}
		// Keying just flipped off: the states inserted so far were deduped
		// consistently (equal IDs iff equal states); continue with EqualAbs
		// and drop the now-meaningless ID and word views.
		buf.ids = buf.ids[:0]
		buf.words = buf.words[:0]
	}
	for _, t := range buf.states {
		if t.EqualAbs(phi) {
			return
		}
	}
	buf.states = append(buf.states, phi)
}

// insertKnown adds one already-interned successor: the session ID is mapped
// to its check-local compact ID and membership is a single word test on the
// buffer's bitset. The bitset grows to exactly the word holding the new bit,
// preserving the canonical trimmed form (last word nonzero).
func (s *searcher) insertKnown(buf *setBuf, phi core.AbsState, id uint32) {
	cid := s.compact.compact(id)
	w, m := int(cid>>6), uint64(1)<<(cid&63)
	if w < len(buf.words) {
		if buf.words[w]&m != 0 {
			return
		}
		buf.words[w] |= m
	} else {
		for len(buf.words) < w {
			buf.words = append(buf.words, 0)
		}
		buf.words = append(buf.words, m)
	}
	buf.states = append(buf.states, phi)
	buf.ids = append(buf.ids, id)
}

// witness materializes the current (complete) prefix as a label sequence,
// carved from the witness arena: the slice is caller-owned (it becomes
// Result.Linearization), the chunk it came from is never recycled, and a new
// chunk is allocated only when the current one is full — so a warm session
// amortizes the per-witness allocation to ~0.
func (s *searcher) witness() []*core.Label {
	n := len(s.seq)
	if s.witMem == nil || len(s.witMem)+n > cap(s.witMem) {
		size := witnessChunkLabels
		if n > size {
			size = n
		}
		s.witMem = make([]*core.Label, 0, size)
	}
	off := len(s.witMem)
	s.witMem = s.witMem[:off+n]
	out := s.witMem[off : off+n : off+n]
	for k, i := range s.seq {
		out[k] = s.pre.labels[i]
	}
	return out
}
