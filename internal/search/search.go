// Package search implements the pruned search engine behind the
// RA-linearizability checker: an incremental backtracking DFS over the linear
// extensions of a history's visibility relation.
//
// The legacy enumerator in internal/core generates every complete linear
// extension and re-validates each candidate from scratch, so a rejected
// prefix is rediscovered in every one of its (factorially many) extensions.
// This engine instead maintains a frontier of vis-minimal labels and extends
// the candidate one label at a time, checking the conditions of
// Definition 3.5 per prefix:
//
//   - condition (i) — consistency with visibility — holds by construction,
//     because only frontier labels (all visibility predecessors placed) are
//     ever appended;
//   - condition (ii) — the update projection is admitted by the
//     specification — is maintained incrementally as the set of abstract
//     states reachable after the placed updates; an empty set prunes the
//     whole subtree;
//   - condition (iii) — every query is justified by its visible updates in
//     sequence order — is tracked per query: each pending query carries the
//     state set of its justification so far, advanced whenever one of its
//     visible updates is placed. A query whose justification dies prunes the
//     subtree as soon as the dooming update is placed, before the query
//     itself is even reachable.
//
// Because all three conditions are enforced on every prefix, every leaf of
// the search tree is a witness RA-linearization, and the first leaf ends the
// search. Labels a specification cannot tell apart and that visibility
// orders the same way (twins, see twins.go) are only ever placed in
// candidate order, so interchangeable concurrent operations cost one order
// instead of every subset. On top of the pruning the engine memoizes:
// canonical state keys (core.StateKeyer) are interned to dense IDs, each
// visited (placed-set, spec-state) configuration is hashed to a 128-bit key
// over those IDs, and the key is claimed in the check's memo table on node
// entry — a configuration reached again by another order is skipped.
//
// One goroutine runs each check's search. Checks are independent of each
// other, so concurrency lives one level up: a batch (internal/harness) runs
// many checks at once over one Session, whose interner, step caches and pools
// are safe for concurrent checks. Only the context watcher Run starts for a
// cancellable context touches a check's state from another goroutine, through
// the stop flag and the interruption record.
//
// The engine registers itself with internal/core at init time (core cannot
// import this package without a cycle), so importing internal/search — even
// blank — makes core.CheckRA and core.CheckStrongLinearizable use it for
// CheckOptions with Engine pruned (the default).
package search

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"

	"ralin/internal/core"
)

func init() {
	core.RegisterPrunedEngine(Run)
}

// Run searches for a linearization of h admitted by spec. In RA mode (strong
// false) h must be an already rewritten history — queries and updates only —
// and the conditions of Definition 3.5 apply; in strong mode every query must
// be justified by the full preceding update prefix, as in
// core.CheckStrongLinearizable. The visibility relation of h must be acyclic
// (core checks this before dispatching).
//
// When opts.Session carries a *Session (created by NewSession and threaded
// through core.CheckRAWith), the search draws its interner, memo table and
// searcher scratch from the session instead of allocating them: interned
// state IDs are shared across every check of the session, while the memo
// table and searchers are recycled through the session's pools — reset, not
// reallocated — when the search finishes.
func Run(h *core.History, spec core.Spec, strong bool, opts core.CheckOptions) core.EngineOutcome {
	sess, _ := opts.Session.(*Session)
	// Pin the session's cache generation for the whole check: budget eviction
	// only runs between checks, so interned IDs stay stable while the search
	// references them.
	intern := ensureInterner(sess.beginCheck())
	defer sess.endCheck()
	pre, planReused := sess.getPlan(h.Len())
	defer sess.putPlan(pre)
	if err := pre.build(h, strong); err != nil {
		return core.EngineOutcome{Complete: true, LastErr: err}
	}
	// Guided mode (core.GuidanceGuided): precompute the static branch scores
	// once per check; the searcher adds the dynamic novelty bit per node. The
	// score table is read through the pointer pinned for this check — eviction
	// only runs while the session is idle.
	guided := opts.Guidance == core.GuidanceGuided
	var guideTab *scoreTable
	if guided {
		guideTab = sess.guideScores()
		pre.buildGuide(guideTab, strong)
	}
	return runPrepared(sess, intern, pre, h, spec, strong, guided, guideTab, planReused, opts)
}

// runPrepared executes the search phase of Run over an already-built plan:
// shared-block arming, transition-cache gating, context watching, and the
// search itself. It is split from Run so the incremental extension path
// (Session.Extend) can run a search over a plan it grew in place — with
// witness-seeded guide scores — instead of rebuilding one; Run's own call
// passes the plan it just built. The caller owns pre's lifetime (Run pools it,
// Extend keeps it in the extension entry) and must hold the session's check
// pin (beginCheck) for the duration.
func runPrepared(sess *Session, intern *interner, pre *prepared, h *core.History, spec core.Spec, strong, guided bool, guideTab *scoreTable, planReused bool, opts core.CheckOptions) core.EngineOutcome {
	// The shared block is pooled per session like the plans and searchers —
	// but only when no context watcher goroutine can outlive the check and
	// touch it after release (poolable below).
	sh := sess.getShared(nodeBudget(opts))
	sh.sess = sess
	// The transition cache only serves re-checks (its keys are label
	// pointers, so a first-contact history could only fill it with copies
	// nothing will ever hit); attach it only when the session has seen this
	// history before. One-shot histories then skip the cache's per-transition
	// lock probes entirely.
	if sess.recheck(h) {
		sh.steps = sess.stepCacheFor(spec)
	}
	poolable := opts.Context == nil || opts.Context.Done() == nil
	if sess != nil {
		if max := sess.budget.MaxMemoBytes; max > 0 {
			sh.memoCount = &sess.memoEntries
			sh.memoLimit = max / memoEntryBytes
			if sh.memoLimit < 1 {
				sh.memoLimit = 1
			}
		}
	}
	memo := sessionMemo(sess, opts)
	defer sess.putMemo(memo)

	// Watch the caller's context (when there is one): deadline expiry or
	// cancellation interrupts the search through the stop flag it checks on
	// node entry. A context that is already dead skips the search entirely.
	if ctx := opts.Context; ctx != nil {
		if inc := core.ContextIncomplete(ctx); inc != nil {
			sh.interrupt(inc)
			out := sh.outcome()
			out.PlanReused = planReused
			// No watcher goroutine was started yet, so the block is safe to
			// pool regardless of the context's shape.
			sess.putShared(sh)
			return out
		}
		if done := ctx.Done(); done != nil {
			finished := make(chan struct{})
			defer close(finished)
			go func() {
				select {
				case <-done:
					sh.interrupt(core.ContextIncomplete(ctx))
				case <-finished:
				}
			}()
		}
	}

	s := newSearcher(sess.getSearcher(len(pre.labels)), pre, spec, strong, intern, memo, sh)
	s.guided = guided
	if runGuarded(sh, func() { s.dfs() }) {
		s.flush()
		sess.putSearcher(s)
	}
	out := sh.outcome()
	out.PlanReused = planReused
	if guided && out.Complete {
		guideTab.record(out.Witness)
	}
	if poolable {
		sess.putShared(sh)
	}
	return out
}

// ensureInterner returns in, or a fresh private interner when the check runs
// sessionless (in nil). The check owns a private interner outright, so it
// skips its lock; a session's interner stays locked, because sessions admit
// concurrent checks.
func ensureInterner(in *interner) *interner {
	if in != nil {
		return in
	}
	in = newInterner()
	in.seq = true
	return in
}

// sessionMemo draws a cleared memo table from the session arena with the
// check's debug flag applied, or nil when memoization is disabled.
func sessionMemo(sess *Session, opts core.CheckOptions) *memoTable {
	if opts.DisableMemo {
		return nil
	}
	m := sess.getMemo()
	m.debug = opts.DebugMemo
	return m
}

// runGuarded runs f, converting a panic into a search interruption (reason
// panic, stack captured) instead of crashing the process: the batch the check
// belongs to keeps running and this check reports VerdictUnknown. It returns
// false when f panicked — the caller must treat the searcher's state as
// poisoned (its counters are neither flushed nor its scratch pooled).
func runGuarded(sh *shared, f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked(r, debug.Stack())
			ok = false
		}
	}()
	f()
	return true
}

// nodeBudget derives the prefix-node budget from the options: MaxNodes wins;
// zero falls back to 3×MaxExtensions (an unpruned prefix tree has at most
// e·n! internal nodes against the n! complete extensions the legacy cap
// bounds); negative means unlimited.
func nodeBudget(opts core.CheckOptions) int64 {
	if opts.MaxNodes > 0 {
		return int64(opts.MaxNodes)
	}
	if opts.MaxNodes < 0 || opts.MaxExtensions <= 0 {
		return 0
	}
	return 3 * int64(opts.MaxExtensions)
}

// prepared is the immutable, index-based view of the history one check
// searches: the history's "plan". Plans are pooled per session in
// size classes (Session.getPlan/putPlan): build clears-not-reallocates every
// index slice, so after the first few checks of a batch a plan rebuild
// allocates nothing at all — the same arena discipline the session's memo
// tables use.
type prepared struct {
	labels []*core.Label
	// preds[i] / succs[i] are the (transitive) visibility predecessors and
	// successors of labels[i], as indices. Label index equals history rank
	// (AppendLabels yields insertion order), so both lists are filled by one
	// History.PredRow/SuccRow bitset sweep per label, entries in ascending
	// rank order; the search only ever counts and iterates them.
	preds [][]int
	succs [][]int
	// rowSigs[i] holds the hashes of preds[i] and succs[i], mixed in as
	// build and extend append to the rows, so buildTwins never re-reads a
	// row.
	rowSigs []rowSig
	// affected[i] lists, for an update labels[i], the indices of the queries
	// it is visible to, in ascending query order (RA mode only).
	affected [][]int
	// queries lists the query indices in ascending order (RA mode only).
	queries []int
	// order lists all label indices sorted by generator sequence; candidates
	// are tried in this order so the search reaches execution-order-like
	// witnesses first (and it is the deterministic tie-break of guided mode).
	order []int
	// pos is order's inverse permutation: pos[i] is label i's position in
	// order, and therefore its bit in the searcher's frontier bitset.
	pos []int
	// guide[i] is the static component of label i's guided branch score
	// (pending-query justification count and session success score), filled by
	// buildGuide only for guided checks; the searcher ORs in the per-node
	// novelty bit. Pooled like every other slice here.
	guide []int64
	// twinNext[i] is the next member of label i's twin class in candidate
	// order, or -1 when i is the last (see buildTwins). The searcher counts a
	// link as one more indegree of its target, so only the first unplaced
	// twin of each class is ever a candidate.
	twinNext []int
	// twinKeys is buildTwins' pooled sort scratch for plans too large for
	// its stack buffer.
	twinKeys []uint64
	// sorter is the reusable sort.Interface state of build's order sort; a
	// struct field (rather than a slices.SortFunc closure) so a pooled plan's
	// rebuild does not allocate the comparator.
	sorter orderSorter
}

// orderSorter sorts a label-index permutation by generator sequence, then
// label ID. Both tie-breaks are total (IDs are unique within a history), so
// the result is a unique permutation even under an unstable sort.
type orderSorter struct {
	order  []int
	labels []*core.Label
}

func (o *orderSorter) Len() int      { return len(o.order) }
func (o *orderSorter) Swap(i, j int) { o.order[i], o.order[j] = o.order[j], o.order[i] }
func (o *orderSorter) Less(i, j int) bool {
	la, lb := o.labels[o.order[i]], o.labels[o.order[j]]
	if la.GenSeq != lb.GenSeq {
		return la.GenSeq < lb.GenSeq
	}
	return la.ID < lb.ID
}

// build populates the plan for h, reusing the backing arrays of whatever
// check used this plan before. The visibility indexes are filled by one
// predecessor-row and one successor-row bitset sweep per label
// (core.History.PredRow/SuccRow) — label index equals rank, so no
// ID-to-index map is needed at all, where the previous closure-edge pass
// keyed every edge endpoint through one.
func (p *prepared) build(h *core.History, strong bool) error {
	p.labels = h.AppendLabels(p.labels[:0])
	labels := p.labels
	n := len(labels)
	for _, l := range labels {
		if !strong && l.IsQueryUpdate() {
			return fmt.Errorf("label %v is a query-update; apply a rewriting first", l)
		}
	}
	p.preds = resizeIndexSets(p.preds, n)
	p.succs = resizeIndexSets(p.succs, n)
	p.affected = resizeIndexSets(p.affected, n)
	p.queries = p.queries[:0]
	p.rowSigs = slices.Grow(p.rowSigs[:0], n)
	for i := 0; i < n; i++ {
		p.rowSigs = append(p.rowSigs, newRowSig())
		h.PredRow(i, func(f int) {
			p.preds[i] = append(p.preds[i], f)
			p.rowSigs[i].preds.mix(uint64(f))
		})
		h.SuccRow(i, func(t int) {
			p.succs[i] = append(p.succs[i], t)
			p.rowSigs[i].succs.mix(uint64(t))
		})
	}
	if !strong {
		for i, l := range labels {
			if l.IsQuery() {
				p.queries = append(p.queries, i)
				for _, u := range p.preds[i] {
					if labels[u].IsUpdate() {
						p.affected[u] = append(p.affected[u], i)
					}
				}
			}
		}
	}
	p.resizeOrderIndexes(n)
	for i := range p.order {
		p.order[i] = i
	}
	p.sorter.order, p.sorter.labels = p.order, labels
	sort.Sort(&p.sorter)
	p.sorter.order, p.sorter.labels = nil, nil
	for pi, i := range p.order {
		p.pos[i] = pi
	}
	p.buildTwins()
	return nil
}

// resizeOrderIndexes sizes p.order, p.pos and p.twinNext to n. A plan that
// has to grow takes all three from one allocation, each capped at its own
// third so extend's appends reallocate instead of running into the next.
func (p *prepared) resizeOrderIndexes(n int) {
	if cap(p.order) < n || cap(p.pos) < n || cap(p.twinNext) < n {
		buf := make([]int, 3*n)
		p.order, p.pos, p.twinNext = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
		return
	}
	p.order, p.pos, p.twinNext = p.order[:n], p.pos[:n], p.twinNext[:n]
}

// extend grows an already-built plan in place after h gained labels at the
// end: only the new ranks' index rows are derived, and every existing row is
// kept rather than cleared and refilled the way build would. The caller (the
// incremental extension path) guarantees the edge discipline — every direct
// visibility edge recorded since the plan was built targets a new rank — so
// the old rows are still exact: an old label can gain new successors (new
// queries seeing it, appended here) but never new predecessors. oldN is the
// label count the plan was built for.
func (p *prepared) extend(h *core.History, oldN int, strong bool) error {
	p.labels = h.AppendLabels(p.labels[:0])
	labels := p.labels
	n := len(labels)
	for _, l := range labels[oldN:] {
		if !strong && l.IsQueryUpdate() {
			return fmt.Errorf("label %v is a query-update; apply a rewriting first", l)
		}
	}
	p.preds = growIndexSets(p.preds, n)
	p.succs = growIndexSets(p.succs, n)
	p.affected = growIndexSets(p.affected, n)
	// One predecessor-row sweep per new label fills its preds row and extends
	// the successor rows of everything that reaches it; processing new ranks in
	// ascending order keeps every succs row ascending, matching build's SuccRow
	// fill order.
	for t := oldN; t < n; t++ {
		p.rowSigs = append(p.rowSigs, newRowSig())
		h.PredRow(t, func(f int) {
			p.preds[t] = append(p.preds[t], f)
			p.succs[f] = append(p.succs[f], t)
			p.rowSigs[t].preds.mix(uint64(f))
			p.rowSigs[f].succs.mix(uint64(t))
		})
	}
	if !strong {
		for t := oldN; t < n; t++ {
			if labels[t].IsQuery() {
				p.queries = append(p.queries, t)
				for _, u := range p.preds[t] {
					if labels[u].IsUpdate() {
						p.affected[u] = append(p.affected[u], t)
					}
				}
			}
		}
	}
	// Candidate order: sort the new indices among themselves, then either
	// append (the common case — a live stream's new GenSeqs follow the old
	// maximum) or fall back to a full re-sort when a new label sorts before the
	// old tail. Frontier bit positions (pos) move only in the re-sort case.
	for i := oldN; i < n; i++ {
		p.order = append(p.order, i)
	}
	p.sorter.order, p.sorter.labels = p.order[oldN:], labels
	sort.Sort(&p.sorter)
	p.sorter.order, p.sorter.labels = nil, nil
	p.pos = growInts(p.pos, n)
	if oldN > 0 && n > oldN && orderLess(labels, p.order[oldN], labels, p.order[oldN-1]) {
		p.sorter.order, p.sorter.labels = p.order, labels
		sort.Sort(&p.sorter)
		p.sorter.order, p.sorter.labels = nil, nil
		for pi, i := range p.order {
			p.pos[i] = pi
		}
	} else {
		for pi := oldN; pi < n; pi++ {
			p.pos[p.order[pi]] = pi
		}
	}
	// Twin classes are recomputed whole: a new label can join an old class,
	// and a new query that sees only some members of one splits it.
	p.buildTwins()
	return nil
}

// orderLess is orderSorter's comparison over explicit label slices, shared
// with extend's append-or-resort decision.
func orderLess(las []*core.Label, a int, lbs []*core.Label, b int) bool {
	la, lb := las[a], lbs[b]
	if la.GenSeq != lb.GenSeq {
		return la.GenSeq < lb.GenSeq
	}
	return la.ID < lb.ID
}

// release drops the plan's references into the finished check's history so a
// pooled plan pins no labels; the index arrays (ints only) stay for the next
// build.
func (p *prepared) release() {
	clear(p.labels)
	p.labels = p.labels[:0]
}

// resizeIndexSets returns a length-n slice of empty index lists, carrying
// over the backing array and every already-allocated inner list (truncated,
// capacity kept) from earlier checks.
func resizeIndexSets(s [][]int, n int) [][]int {
	if cap(s) < n {
		grown := make([][]int, n)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// growIndexSets extends s to length n keeping every existing row intact —
// the incremental counterpart of resizeIndexSets, which clears all rows —
// and truncates only the newly exposed tail rows.
func growIndexSets(s [][]int, n int) [][]int {
	old := len(s)
	if cap(s) < n {
		grown := make([][]int, n)
		copy(grown, s)
		s = grown
	} else {
		s = s[:n]
	}
	for i := old; i < n; i++ {
		s[i] = s[i][:0]
	}
	return s
}

// growInts extends s to length n preserving its prefix (resizeInts zeroes on
// regrowth; extension needs the old values).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		grown := make([]int, n)
		copy(grown, s)
		return grown
	}
	return s[:n]
}
