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
// canonical state keys (core.StateKeyer) are numbered with dense IDs in the
// searcher's transition table, each visited (placed-set, spec-state)
// configuration is hashed to a 128-bit key over those IDs, and the key is
// claimed in the check's memo table on node entry — a configuration reached
// again by another order is skipped.
//
// One goroutine runs each check's search. Checks are independent of each
// other, so concurrency lives one level up: a batch (internal/harness) runs
// many checks at once over one Session, whose records and searcher pool are
// safe for concurrent checks; a searcher — state IDs, transition table and
// all — belongs to one check at a time. Only the context.AfterFunc callback
// Run registers for a cancellable context touches a check's state from
// another goroutine, through the stop flag and the interruption record.
//
// The engine registers itself with internal/core at init time (core cannot
// import this package without a cycle), so importing internal/search — even
// blank — makes core.CheckRA and core.CheckStrongLinearizable use it for
// CheckOptions with Engine pruned (the default).
package search

import (
	"context"
	"fmt"
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
// through core.CheckRAWith), the search draws its searcher from the session
// instead of allocating one: the searcher — plan, memo table, transition
// table with its state IDs, and scratch — is recycled through the session's
// pool, reset, not reallocated, when the search finishes, so its transition
// table stays warm for the next check of the same spec. Session.Extend's
// fallback search runs through here too, over the rewriting it grew.
func Run(h *core.History, spec core.Spec, strong bool, opts core.CheckOptions) core.EngineOutcome {
	sess, _ := opts.Session.(*Session)
	// Pin the session's cache generation for the whole check: budget eviction
	// only runs between checks.
	sess.beginCheck()
	defer sess.endCheck()
	s, reused := sess.getSearcher(h.Len())
	if err := s.plan.build(h, strong); err != nil {
		sess.putSearcher(s)
		return core.EngineOutcome{Complete: true, LastErr: err}
	}
	// Watch the caller's context (when there is one): deadline expiry or
	// cancellation interrupts the search through the stop flag it checks on
	// node entry, from a callback the context runs on its own goroutine. A
	// context that is already dead skips the search entirely.
	ctx := opts.Context
	if inc := core.ContextIncomplete(ctx); inc != nil {
		sess.putSearcher(s)
		return core.EngineOutcome{Incomplete: inc, PlanReused: reused}
	}
	s.start(h, sess, spec, strong, opts)
	var stopWatch func() bool
	if ctx != nil && ctx.Done() != nil {
		stopWatch = context.AfterFunc(ctx, func() { s.interrupt(core.ContextIncomplete(ctx)) })
	}
	ok := s.runGuarded()
	out := s.outcome()
	out.PlanReused = reused
	if s.memoLimit > 0 {
		// Hand the check's memo entries back to the session's memo budget.
		sess.memoEntries.Add(-int64(len(s.memo.seen)))
	}
	// stopWatch reports false when the callback has already started: it may
	// still be running, so the searcher must not be pooled.
	if ok && (stopWatch == nil || stopWatch()) {
		sess.putSearcher(s)
	}
	return out
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

// prepared is the index-based view of the history one check searches: the
// history's "plan", fixed for the whole search. Each searcher carries one
// (searcher.plan), pooled with it. build fills the visibility and order
// indexes; searcher.start then fills cids and twinNext. Every index slice
// is cleared, not reallocated, so after the first few checks of a batch a
// plan rebuild allocates nothing at all.
type prepared struct {
	labels []*core.Label
	// preds[i] / succs[i] are the (transitive) visibility predecessors and
	// successors of labels[i], as indices. Label index equals history rank
	// (AppendLabels yields insertion order), so one History.PredRow sweep per
	// label, in ascending rank, fills preds and transposes into succs, both
	// with entries in ascending rank order; the search only ever counts and
	// iterates them.
	preds [][]int
	succs [][]int
	// cids[i] is labels[i]'s content ID in the searcher's transition table,
	// assigned by the ID pass after build (stepTable.contentIDs): the one
	// label-content identity of the check, read by buildTwins and stepAll.
	cids []uint32
	// affected[i] lists, for an update labels[i], the indices of the queries
	// it is visible to, in ascending query order (RA mode only).
	affected [][]int
	// queries lists the query indices in ascending order (RA mode only).
	queries []int
	// order lists all label indices sorted by generator sequence; candidates
	// are tried in this order so the search reaches execution-order-like
	// witnesses first.
	order []int
	// pos is order's inverse permutation: pos[i] is label i's position in
	// order, and therefore its bit in the searcher's frontier bitset.
	pos []int
	// twinNext[i] is the next member of label i's twin class in candidate
	// order, or -1 when i is the last (see buildTwins, which runs after the
	// ID pass fills cids). The searcher counts a link as one more indegree
	// of its target, so only the first unplaced twin of each class is ever a
	// candidate.
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
// rank (label index). The tie-break is total, so the result is a unique
// permutation even under an unstable sort, and it reads no label ID: an
// aliased history and its clone (IDs rank+1) order alike.
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
	return o.order[i] < o.order[j]
}

// build populates the plan for h, reusing the backing arrays of whatever
// check used this plan before. The visibility indexes are filled by one
// ancestor-row bitset sweep per label (core.History.PredRow) — label index
// equals rank, so no ID-to-index map is needed at all.
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
	for i := 0; i < n; i++ {
		h.PredRow(i, func(f int) {
			p.preds[i] = append(p.preds[i], f)
			p.succs[f] = append(p.succs[f], i)
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
	return nil
}

// resizeOrderIndexes sizes p.order, p.pos and p.twinNext to n. A plan that
// has to grow takes all three from one allocation.
func (p *prepared) resizeOrderIndexes(n int) {
	if cap(p.order) < n || cap(p.pos) < n || cap(p.twinNext) < n {
		buf := make([]int, 3*n)
		p.order, p.pos, p.twinNext = buf[:n], buf[n:2*n], buf[2*n:]
		return
	}
	p.order, p.pos, p.twinNext = p.order[:n], p.pos[:n], p.twinNext[:n]
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
