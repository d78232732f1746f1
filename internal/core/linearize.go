package core

import (
	"sort"
)

// ExecutionOrderLinearization returns the labels of h ordered by the order in
// which their generators executed at the origin replicas (Section 4.1), ties
// in insertion order. For rewritten histories the query part of a
// query-update precedes its update part, because RewriteHistory numbers them
// consecutively.
func ExecutionOrderLinearization(h *History) []*Label {
	seq := h.Labels()
	sort.SliceStable(seq, func(i, j int) bool {
		return seq[i].GenSeq < seq[j].GenSeq
	})
	return seq
}

// TimestampOrderLinearization returns the labels of h ordered primarily by
// their history timestamp ts_h (own timestamp, or the maximal visible one for
// operations that do not generate timestamps) and secondarily by generator
// execution order (Section 4.2), ties in insertion order.
func TimestampOrderLinearization(h *History) []*Label {
	seq := h.Labels()
	sort.SliceStable(seq, func(i, j int) bool {
		ti, tj := h.HistoryTimestamp(seq[i]), h.HistoryTimestamp(seq[j])
		if c := ti.Compare(tj); c != 0 {
			return c < 0
		}
		return seq[i].GenSeq < seq[j].GenSeq
	})
	return seq
}

// LinearExtensions enumerates linear extensions of the visibility relation of
// h (total orders of the labels consistent with visibility) and calls fn for
// each. Enumeration stops when fn returns false or when limit extensions have
// been produced (limit <= 0 means unlimited). It returns the number of
// extensions produced and whether the enumeration was stopped early because
// of the limit.
func LinearExtensions(h *History, limit int, fn func(seq []*Label) bool) (produced int, truncated bool) {
	labels := h.Labels()
	n := len(labels)
	// indegree[t] counts visibility predecessors of the label at rank t not
	// yet placed; succs[f] lists the ranks rank f is visible to, transposed
	// once from the ancestor rows.
	indegree := make([]int, n)
	succs := make([][]int, n)
	for t := range labels {
		h.PredRow(t, func(f int) {
			indegree[t]++
			succs[f] = append(succs[f], t)
		})
	}
	placed := make([]*Label, 0, n)
	used := make([]bool, n)
	stop := false

	var rec func()
	rec = func() {
		if stop {
			return
		}
		if len(placed) == n {
			produced++
			if !fn(append([]*Label(nil), placed...)) {
				stop = true
			}
			if limit > 0 && produced >= limit {
				truncated = true
				stop = true
			}
			return
		}
		for r, l := range labels {
			if used[r] || indegree[r] != 0 {
				continue
			}
			used[r] = true
			placed = append(placed, l)
			for _, s := range succs[r] {
				indegree[s]--
			}
			rec()
			for _, s := range succs[r] {
				indegree[s]++
			}
			placed = placed[:len(placed)-1]
			used[r] = false
			if stop {
				return
			}
		}
	}
	rec()
	return produced, truncated
}
