package search

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ralin/internal/core"
)

// status is the outcome of exploring one subtree.
type status int

const (
	// sExhausted: the subtree was fully explored and holds no witness.
	sExhausted status = iota
	// sFound: a witness was found (and recorded in searcher.witness).
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

// pruneReason records why a prefix was rejected. It is the error a search
// without a witness reports, rendered only when Error is called, so neither
// the hot path nor a refutation nobody prints does any formatting.
type pruneReason struct {
	label *core.Label
	cond  string
	// query is the pending query whose justification died (condition iii
	// pruned at an update), nil otherwise.
	query *core.Label
}

func (r pruneReason) Error() string {
	if r.query != nil {
		return "condition (" + r.cond + "): placing " + r.label.String() + " leaves query " +
			r.query.String() + " unjustifiable by its visible updates"
	}
	return "condition (" + r.cond + "): prefix rejected at " + r.label.String()
}

// stateSet is one set of abstract states: the main update projection's, or
// one pending query's justification set. While the specification is keyable
// a set is its bitset over check-local compact IDs (words; searcher.compact
// maps each bit back to its state and state ID). Membership is a single word
// test, and memo hashing folds the words directly. The bitset is kept in
// canonical trimmed form (its last word is always nonzero), so two sets are
// equal exactly when their word slices are. Once keying is off, a set built
// from then on lists its states instead, deduplicated by EqualAbs; sets built
// before stay bitsets. A set is never in both forms at once.
type stateSet struct {
	words  []uint64
	states []core.AbsState
}

// empty reports whether the set holds no state, in either form.
func (set stateSet) empty() bool { return len(set.words) == 0 && len(set.states) == 0 }

// searcher is the one per-check object: the search state of one check (its
// placed labels, frontier and state sets, one stateSet value per set), its
// own history plan, memo table and compact ID space (which maps the bits of
// keyed state sets back to their states), and the record the check reports
// through — counters, the node budget, the witness, the degradation flag and
// the interruption record. A Session pools whole searchers
// (getSearcher/putSearcher), so a warm check reuses every buffer below. One
// goroutine runs the search, so everything it alone touches is plain. Two
// fields are also written by the context.AfterFunc callback run registers
// for a cancellable context: stop, and the first interruption cause under
// mu; a searcher that callback may still reach is never pooled.
type searcher struct {
	// plan is the searcher's own history plan, built by Run; its index
	// slices are cleared-not-reallocated by each build, so a pooled searcher
	// rebuilds a plan without allocating.
	plan   prepared
	spec   core.Spec
	strong bool
	// sess is the session the check runs through, nil when sessionless; a
	// memory-budget trip notifies it so it evicts its caches once idle.
	sess *Session
	// table is the searcher's transition table, kept across the checks a
	// pooled searcher runs: it numbers the states the searcher reaches and
	// the plan's label contents (plan.cids), for twin classes and
	// transitions alike, and stepAll replays stored (state, content)
	// transitions without re-entering the spec (no StateKey rendering, no
	// state-ID probe).
	table stepTable
	// memo is the check's memoization table, consulted only while memoize
	// holds: it is off under CheckOptions.DisableMemo and once the memory
	// budget trips.
	memo    memoTable
	memoize bool
	// memoLimit is the memo-entry cap derived from Budget.MaxMemoBytes, 0
	// without a memo budget. With a cap every claimed entry is counted into
	// the session's memoEntries and handed back when the check ends, so the
	// unbudgeted claim path pays nothing.
	memoLimit int64
	// compact assigns dense check-local IDs to the table's state IDs — the
	// bits of the check's keyed state sets — and maps them back.
	compact compactor

	// stop asks the search to unwind at its next node; interrupt sets it.
	stop atomic.Bool
	mu   sync.Mutex
	// inc records the first interruption cause (deadline, cancellation,
	// recovered panic); node-budget truncation is derived in outcome when no
	// explicit cause was recorded.
	inc *core.Incomplete
	// budget caps the nodes the search explores (0 = unlimited); truncated
	// records that it cut the search.
	budget    int64
	truncated bool
	// memDegraded flips to true once the session memory budget trips
	// (state IDs at MaxInternedStates, or memo entries past MaxMemoBytes):
	// the search keeps running memo-less, the verdict stays sound, and the
	// outcome reports the degradation.
	memDegraded bool
	// witness is the linearization the search found, nil until a leaf.
	witness []*core.Label

	// stepScratch is the reusable buffer StepAppend fills per transition.
	stepScratch []core.AbsState
	// fillIDs is the scratch slice of successor state IDs step assigns
	// before a transition is stored in the table.
	fillIDs []uint32

	// indegree[i] counts the not-yet-placed visibility predecessors of
	// labels[i], plus one while its preceding twin (plan.twinNext) is
	// unplaced; a label is in the frontier when its count is zero and it is
	// not placed.
	indegree []int
	placed   bitset
	// frontier is the candidate set as a bitset over order positions
	// (plan.pos[i] is label i's bit): bit p is set exactly when the label at
	// order position p has indegree zero and is not placed. Candidate
	// enumeration walks the set bits word by word — ascending position is
	// ascending rank order, the historical candidate order — instead of
	// scanning all of plan.order and testing indegree/placed per label.
	// enter/leave maintain it with single word operations.
	frontier bitset
	seq      []int
	// main is the set of abstract states reachable after the placed updates
	// (RA mode) or the placed prefix (strong mode).
	main stateSet
	// q[i] is, for each unplaced query index i, its justification set so far
	// (RA mode only); non-query indices stay empty.
	q []stateSet
	// keyable reports whether every state seen so far got a state ID; it
	// flips off — disabling memoization with it — at the first state without
	// a canonical key or past the session's state-ID budget.
	keyable bool
	// init backs the bottom-of-stack main set ({ϕ0}); it is owned by the
	// searcher (never pooled by putBuf) and reused across the checks of a
	// session.
	init stateSet
	// keyTuple is the debug-memo scratch: the exact word sequence the last
	// memoKey hashed, stored by claim as the collision-check witness. Unused
	// (and never grown) outside debug mode.
	keyTuple []uint64

	frames []frame
	// pool recycles state-set buffers released by leave; after warm-up the
	// inner loop allocates nothing here.
	pool []stateSet
	// stepped stages the advanced query sets of one enter so the searcher is
	// left untouched when a later query's justification dies.
	stepped []stateSet

	// witMem is the witness arena: the current chunk carveWitness cuts
	// complete linearizations from. Carved regions are caller-owned and never
	// recycled; the chunk advances and a new one is allocated only when full.
	witMem []*core.Label

	// idPass keys the content IDs in plan.cids: the history they number,
	// its size and direct edge count, and the table generation they were
	// assigned under. A re-check of the same unchanged history under the
	// same generation keeps them instead of re-running the ID pass. It is
	// the one reference a pooled searcher keeps into an earlier check.
	idPass idPassKey

	reason pruneReason
	// stats are the check's work counters, reported as they stand.
	stats core.Stats
}

// idPassKey identifies the plan an ID pass numbered.
type idPassKey struct {
	h        *core.History
	n, edges int
	gen      uint64
}

// start arms the searcher for one check of its plan, built from h — the ID
// pass numbers the plan's label contents in the transition table (unless
// idPass shows they already number this very plan), then buildTwins links
// its twin classes — and sets up the search over the empty prefix, reusing
// the backing arrays, memo maps and buffer pools a pooled searcher kept from
// earlier checks.
func (s *searcher) start(h *core.History, sess *Session, spec core.Spec, strong bool, opts core.CheckOptions) {
	plan := &s.plan
	n := len(plan.labels)
	s.spec = spec
	s.strong = strong
	s.sess = sess
	s.table.attach(spec)
	if key := (idPassKey{h, n, h.DirectEdgeCount(), s.table.gen}); key != s.idPass {
		plan.cids = s.table.contentIDs(plan.cids, plan.labels)
		key.gen = s.table.gen // the pass may have restarted the table
		s.idPass = key
	}
	plan.buildTwins(s.table.reps)
	s.memo.reset(opts.DebugMemo)
	s.memoize = !opts.DisableMemo
	s.memoLimit = 0
	if sess != nil && sess.budget.MaxMemoBytes > 0 {
		s.memoLimit = max(1, sess.budget.MaxMemoBytes/memoEntryBytes)
	}
	s.compact.reset()
	s.stop.Store(false)
	s.budget = nodeBudget(opts)
	s.truncated = false
	s.memDegraded = false
	s.indegree = resizeInts(s.indegree, n)
	s.placed = resizeBitset(s.placed, n)
	s.frontier = resizeBitset(s.frontier, n)
	for i := range s.indegree {
		s.indegree[i] = len(plan.preds[i])
	}
	for _, t := range plan.twinNext {
		if t >= 0 {
			s.indegree[t]++
		}
	}
	for i, d := range s.indegree {
		if d == 0 {
			s.frontier.set(plan.pos[i])
		}
	}
	s.seq = s.seq[:0]
	s.keyable = true
	s.reason = pruneReason{}
	s.stats = core.Stats{}
	s.init = stateSet{words: s.init.words[:0], states: s.init.states[:0]}
	// A failed state-ID probe in cachedInit turned keying off, so the
	// insert lists the state.
	init, initID := s.cachedInit()
	s.insertKnown(&s.init, init, initID)
	s.main = s.init
	s.q = resizeSets(s.q, n)
	if !strong {
		for _, q := range plan.queries {
			// All pending justifications start at the initial state; the
			// shared slice is safe because sets are never mutated in place
			// and only enter-created buffers are ever recycled.
			s.q[q] = s.main
		}
	}
}

// cachedInit returns the specification's initial state and its state ID. A
// warm transition table serves the pair, skipping both spec.Init's fresh
// state and the StateKey rendering the state-ID probe needs — the last
// per-check allocations of a warm re-check. A state without an ID (unkeyable
// spec, state IDs at budget) is never cached.
func (s *searcher) cachedInit() (core.AbsState, uint32) {
	t := &s.table
	if t.init != nil {
		return t.init, t.initID
	}
	init := s.spec.Init()
	id, ok := s.internState(init)
	if ok && t.on {
		t.init, t.initID = init, id
	}
	return init, id
}

// release unwinds the searcher and drops every reference into the finished
// check (labels, session, witness, interruption record, live state sets) so
// a pooled searcher pins nothing of it but the history its ID-pass key
// names; the backing arrays, undo frames, memo
// maps and buffer pool stay for the next check, and so does the transition
// table with its spec, states and content representatives. The witness arena
// chunk is kept: its carved prefix is caller-owned and its free tail is
// clean.
func (s *searcher) release() {
	s.reset()
	s.plan.release()
	s.reason = pruneReason{}
	s.spec = nil
	s.sess = nil
	s.inc = nil
	s.witness = nil
	clear(s.stepScratch[:cap(s.stepScratch)])
	s.stepScratch = s.stepScratch[:0]
	s.compact.reset()
	clear(s.init.states[:cap(s.init.states)])
	s.main = stateSet{}
	clear(s.q[:cap(s.q)])
	frames := s.frames[:cap(s.frames)]
	for i := range frames {
		frames[i].main = stateSet{}
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

// resizeSets returns a length-n slice of empty sets, reusing s's backing
// array (scrubbed over its full capacity so no stale sets survive).
func resizeSets(s []stateSet, n int) []stateSet {
	if cap(s) < n {
		return make([]stateSet, n)
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

// internState returns the state ID of one abstract state's canonical key. A
// state without a key permanently disables keying and memoization for the
// rest of the check; a new state past the session's state-ID budget does the
// same and additionally trips the session budget, so the search finishes
// memo-less and the session evicts once idle. Either way the verdict stays
// sound — keying only feeds deduplication and memoization, never
// admissibility.
func (s *searcher) internState(phi core.AbsState) (uint32, bool) {
	if !s.keyable {
		return 0, false
	}
	if keyer, ok := phi.(core.StateKeyer); ok {
		if key, ok := keyer.StateKey(); ok {
			if id, ok := s.table.stateID(key, s.sess); ok {
				return id, true
			}
			s.tripMemBudget()
		}
	}
	s.keyable = false
	return 0, false
}

// interrupt records the cause of an interruption and stops the search. The
// first recorded cause wins; later interrupts only reinforce the stop flag.
// Safe to call from the context callback's goroutine.
func (s *searcher) interrupt(inc *core.Incomplete) {
	s.mu.Lock()
	if s.inc == nil {
		s.inc = inc
	}
	s.mu.Unlock()
	s.stop.Store(true)
}

// tripMemBudget records that the session memory budget was hit. The search
// continues memo-less (graceful degradation, not an abort); the session is
// told so it evicts its caches when idle.
func (s *searcher) tripMemBudget() {
	if !s.memDegraded {
		s.memDegraded = true
		s.sess.noteTrip()
	}
}

// runGuarded runs the search, converting a panic into a search interruption
// (reason panic, stack captured) instead of crashing the process: the batch
// the check belongs to keeps running and this check reports VerdictUnknown.
// It returns false when the search panicked — the searcher's state is then
// poisoned and must not be pooled.
func (s *searcher) runGuarded() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.interrupt(&core.Incomplete{
				Reason: core.ReasonPanic,
				Detail: fmt.Sprintf("search panicked: %v", r),
				Stack:  string(debug.Stack()),
			})
			ok = false
		}
	}()
	s.dfs()
	return true
}

// outcome assembles the engine outcome of the finished search. A search
// without a witness reports its last prune reason as the error, unrendered.
func (s *searcher) outcome() core.EngineOutcome {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	out := core.EngineOutcome{
		OK:          s.witness != nil,
		Witness:     s.witness,
		Stats:       s.stats,
		MemDegraded: s.memDegraded,
	}
	if !out.OK && s.reason.label != nil {
		out.LastErr = s.reason
	}
	out.Complete = out.OK || (!s.truncated && inc == nil)
	if !out.Complete {
		if inc == nil {
			// No explicit interruption was recorded: the node budget cut the
			// search. Attribute it to the memory budget when the truncation
			// happened after degradation — the memo-less search is the reason
			// the node budget no longer sufficed.
			inc = &core.Incomplete{
				Reason: core.ReasonNodeBudget,
				Detail: fmt.Sprintf("node budget exhausted after %d nodes", s.stats.Nodes),
			}
			if out.MemDegraded {
				inc = &core.Incomplete{
					Reason: core.ReasonMemBudget,
					Detail: fmt.Sprintf("memory budget tripped (search degraded to memo-less mode) and the node budget then truncated after %d nodes", s.stats.Nodes),
				}
			}
		}
		out.Incomplete = inc
	}
	return out
}

// dfs explores the subtree under the current prefix.
func (s *searcher) dfs() status {
	if s.stop.Load() {
		return sStopped
	}
	s.stats.Nodes++
	if b := s.budget; b > 0 && int64(s.stats.Nodes) > b {
		// The node budget is exhausted.
		s.truncated = true
		return sStopped
	}
	if len(s.seq) == len(s.plan.labels) {
		// Conditions (i)–(iii) were enforced on every prefix, so a complete
		// sequence is a witness.
		s.stats.Leaves++
		s.witness = s.carveWitness()
		return sFound
	}
	if key, keyed := s.memoKey(); keyed {
		if !s.memo.claim(key, s.keyTuple) {
			// An equal configuration has been explored; its subtree equals
			// ours, so skip.
			s.stats.MemoHits++
			return sExhausted
		}
		// Memo-budget accounting rides the store path only (a claimed entry
		// was just added): past the limit the search stops memoizing — an
		// allocation-free degradation. Zero cost per node when no budget is
		// set.
		if s.memoLimit > 0 && s.sess.memoEntries.Add(1) > s.memoLimit {
			s.memoize = false
			s.tripMemBudget()
		}
	}
	if !s.strong {
		// Query commit: a frontier query's justification is final (every
		// visible update is placed), and placing it touches neither the main
		// update projection nor any other pending query's justification. By an
		// exchange argument the subtree that places it right now covers the
		// whole node: any witness placing it later reorders to one placing it
		// now, and an inadmissible final justification refutes every extension
		// of the prefix. Exploring only this branch shrinks complete
		// (refuting) searches, which no reordering of siblings can: their
		// configuration DAG is a property of the history, not of the visit
		// order. The rule reads nothing but the prefix, so node counts stay a
		// function of the history and the options. Strong mode judges a query
		// against the whole preceding prefix, so its justification is not
		// final at enablement and the rule does not apply.
		if q := s.enabledQuery(); q >= 0 {
			return s.explore(q)
		}
	}
	// Otherwise walk the frontier bitset in rank order. Each word is
	// copied once; explore restores the searcher (frontier included) to its
	// node-entry state before returning, so the remaining bits of the copy
	// stay the not-yet-tried candidates. Ascending bit position is ascending
	// order position — exactly the historical plan.order scan, without the
	// O(n) indegree/placed probing per node.
	for w, word := range s.frontier {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if st := s.explore(s.plan.order[base|b]); st != sExhausted {
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
	for _, q := range s.plan.queries {
		if s.frontier.get(s.plan.pos[q]) {
			return q
		}
	}
	return -1
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
	l := s.plan.labels[i]
	if s.strong {
		next := s.stepAll(s.main, i)
		if next.empty() {
			s.putBuf(next)
			s.stats.Pruned++
			s.reason = pruneReason{label: l, cond: "prefix"}
			return false
		}
		fr := s.pushFrame()
		fr.main = s.main
		if !l.IsQuery() {
			// Updates (and query-updates, which strong mode treats as
			// updates) advance the prefix state; queries only have to be
			// admitted at it.
			fr.advanced = true
			s.main = next
		} else {
			s.putBuf(next)
		}
	} else if l.IsUpdate() {
		next := s.stepAll(s.main, i)
		if next.empty() {
			s.putBuf(next)
			s.stats.Pruned++
			s.reason = pruneReason{label: l, cond: "ii"}
			return false
		}
		// Advance every pending query this update is visible to; a dead
		// justification dooms every completion of the prefix, so prune now
		// instead of when the query is placed. The advanced sets are staged
		// in s.stepped so a late death leaves the searcher untouched.
		s.stepped = s.stepped[:0]
		for _, q := range s.plan.affected[i] {
			if s.placed.get(q) {
				continue
			}
			nq := s.stepAll(s.q[q], i)
			if nq.empty() {
				s.putBuf(nq)
				for _, b := range s.stepped {
					s.putBuf(b)
				}
				s.stepped = s.stepped[:0]
				s.putBuf(next)
				s.stats.Pruned++
				s.reason = pruneReason{label: l, cond: "iii", query: s.plan.labels[q]}
				return false
			}
			s.stepped = append(s.stepped, nq)
		}
		fr := s.pushFrame()
		fr.main = s.main
		fr.advanced = true
		k := 0
		for _, q := range s.plan.affected[i] {
			if s.placed.get(q) {
				continue
			}
			fr.saved = append(fr.saved, savedQuery{q: q, set: s.q[q]})
			s.q[q] = s.stepped[k]
			k++
		}
		s.stepped = s.stepped[:0]
		s.main = next
	} else {
		// Queries: the justification (visible updates in placed order,
		// then the query) must be admitted. All visible updates are
		// necessarily placed already, so q[i] is final.
		res := s.stepAll(s.q[i], i)
		admitted := !res.empty()
		s.putBuf(res)
		if !admitted {
			s.stats.Pruned++
			s.reason = pruneReason{label: l, cond: "iii", query: nil}
			return false
		}
		fr := s.pushFrame()
		fr.main = s.main
	}
	s.placed.set(i)
	s.frontier.clear(s.plan.pos[i])
	s.seq = append(s.seq, i)
	for _, j := range s.plan.succs[i] {
		s.unblock(j)
	}
	if t := s.plan.twinNext[i]; t >= 0 {
		s.unblock(t)
	}
	return true
}

// unblock takes one incoming edge (visibility or twin link) off label j,
// adding it to the frontier when it was the last.
func (s *searcher) unblock(j int) {
	s.indegree[j]--
	if s.indegree[j] == 0 {
		s.frontier.set(s.plan.pos[j])
	}
}

// block puts back an edge unblock took off label j.
func (s *searcher) block(j int) {
	if s.indegree[j] == 0 {
		s.frontier.clear(s.plan.pos[j])
	}
	s.indegree[j]++
}

// leave undoes enter(i), recycling the state-set buffers the matching enter
// created.
func (s *searcher) leave(i int) {
	if t := s.plan.twinNext[i]; t >= 0 {
		s.block(t)
	}
	for _, j := range s.plan.succs[i] {
		s.block(j)
	}
	s.seq = s.seq[:len(s.seq)-1]
	s.placed.clear(i)
	s.frontier.set(s.plan.pos[i])
	fr := &s.frames[len(s.frames)-1]
	for k := len(fr.saved) - 1; k >= 0; k-- {
		sv := fr.saved[k]
		s.putBuf(s.q[sv.q])
		s.q[sv.q] = sv.set
	}
	if fr.advanced {
		s.putBuf(s.main)
	}
	s.main = fr.main
	s.frames = s.frames[:len(s.frames)-1]
}

// frame is the undo record of one placement. State sets are never mutated in
// place once published (stepAll dedups inside the buffer before it becomes
// visible), so saving the old set values restores them exactly; advanced
// records whether enter replaced the main set (and leave must recycle the
// replacement).
type frame struct {
	main     stateSet
	advanced bool
	saved    []savedQuery
}

// savedQuery is the justification set query q held before a placement.
type savedQuery struct {
	q   int
	set stateSet
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
	fr.main = stateSet{}
	fr.advanced = false
	fr.saved = fr.saved[:0]
	return fr
}

// getBuf takes a recycled state-set buffer from the pool (or a zero one).
func (s *searcher) getBuf() stateSet {
	if n := len(s.pool); n > 0 {
		b := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return b
	}
	return stateSet{}
}

// putBuf returns a buffer to the pool, dropping its state references so the
// pool does not pin dead abstract states.
func (s *searcher) putBuf(b stateSet) {
	clear(b.states)
	s.pool = append(s.pool, stateSet{words: b.words[:0], states: b.states[:0]})
}

// stepAll applies plan label i to every state of the set and returns the
// deduped successor set in a pooled buffer. A keyed set is walked bit by bit
// in compact-ID order, reading each state and state ID back from the
// compactor; a listed one state by state.
func (s *searcher) stepAll(set stateSet, i int) stateSet {
	buf := s.getBuf()
	c := &s.compact
	for w, word := range set.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			k := w<<6 | b
			s.step(&buf, c.states[k], c.ids[k], true, i)
		}
	}
	for _, phi := range set.states {
		s.step(&buf, phi, 0, false, i)
	}
	return buf
}

// step inserts the successors of state phi under plan label i into buf;
// keyed reports that id is phi's state ID. A keyed source's (state, label
// content) transition is replayed from the transition table when present —
// no spec call, no StateKey rendering, no state-ID probe — and otherwise
// stepped and, when every successor got a state ID, stored: successors in
// emission order, duplicates included, so a replay inserts the exact
// sequence the live path would.
func (s *searcher) step(buf *stateSet, phi core.AbsState, id uint32, keyed bool, i int) {
	t := &s.table
	cid := s.plan.cids[i]
	keyed = keyed && t.on
	if keyed {
		if sl := t.get(id, cid); sl != nil {
			s.stats.StepHits++
			if sl.n == 1 {
				s.insertKnown(buf, sl.state, sl.id)
				return
			}
			for k := sl.id; k < sl.id+sl.n; k++ {
				s.insertKnown(buf, t.states[k], t.ids[k])
			}
			return
		}
	}
	s.stats.Steps++
	raw := s.spec.StepAppend(s.stepScratch[:0], phi, s.plan.labels[i])
	s.stepScratch = raw
	s.fillIDs = s.fillIDs[:0]
	for _, nxt := range raw {
		nid, ok := s.internState(nxt)
		if !ok {
			// Keying is off (or just flipped off): list every successor.
			for _, r := range raw {
				s.insertListed(buf, r)
			}
			return
		}
		s.fillIDs = append(s.fillIDs, nid)
	}
	for k := range raw {
		s.insertKnown(buf, raw[k], s.fillIDs[k])
	}
	if keyed {
		t.put(id, cid, raw, s.fillIDs, len(s.plan.labels))
	}
}

// insertKnown adds one successor with a known state ID: the ID is mapped to
// its check-local compact ID and membership is a single word test on the
// buffer's bitset. The bitset grows to exactly the word holding the new bit,
// preserving the canonical trimmed form (last word nonzero). Once keying is
// off the state is listed instead.
func (s *searcher) insertKnown(buf *stateSet, phi core.AbsState, id uint32) {
	if !s.keyable {
		s.insertListed(buf, phi)
		return
	}
	cid := s.compact.compact(id, phi)
	w, m := int(cid>>6), uint64(1)<<(cid&63)
	if w < len(buf.words) {
		buf.words[w] |= m
		return
	}
	for len(buf.words) < w {
		buf.words = append(buf.words, 0)
	}
	buf.words = append(buf.words, m)
}

// insertListed adds one successor to a set in listed form, deduplicating by
// EqualAbs scan. The first insert after keying flipped off lists the states
// the buffer already held as bits.
func (s *searcher) insertListed(buf *stateSet, phi core.AbsState) {
	for w, word := range buf.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			buf.states = append(buf.states, s.compact.states[w<<6|b])
		}
	}
	buf.words = buf.words[:0]
	for _, t := range buf.states {
		if t.EqualAbs(phi) {
			return
		}
	}
	buf.states = append(buf.states, phi)
}

// carveWitness materializes the current (complete) prefix as a label sequence,
// carved from the witness arena: the slice is caller-owned (it becomes
// Result.Linearization), the chunk it came from is never recycled, and a new
// chunk is allocated only when the current one is full — so a warm session
// amortizes the per-witness allocation to ~0.
func (s *searcher) carveWitness() []*core.Label {
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
		out[k] = s.plan.labels[i]
	}
	return out
}
