package harness

import (
	"fmt"

	"ralin/internal/core"
	"ralin/internal/search"
)

// The incremental monitor loop: instead of checking one finished history from
// scratch, replay it as the op stream a live monitor would have seen — grow a
// history one operation at a time (with the visibility edges that had both
// endpoints by then) and re-verify every prefix through core.CheckRAExtend,
// so each step reuses the previous verdict as a certificate and costs ~the
// marginal work of the new operation. Verdicts at every prefix are
// byte-identical to a from-scratch check of that prefix (the corpus replay
// test asserts exactly this).

// MonitorReport summarises the op-by-op incremental verification of one
// history.
type MonitorReport struct {
	// Verdicts holds the verdict after each prefix, in replay order: one per
	// operation replayed.
	Verdicts []core.Verdict
	// Replayed counts the prefixes whose verdict came from validating the
	// previous witness as a certificate (Result.WitnessReplayed) — no search.
	Replayed int
	// Searched counts the prefixes that fell back to the extended search
	// (Result.Extended without WitnessReplayed).
	Searched int
	// Rebuilt counts the prefixes the extension preconditions rejected —
	// checked by a plain warm from-scratch pass instead.
	Rebuilt int
	// Stats sums the search work of every prefix check (core.Stats.Add).
	Stats core.Stats
	// Final is the verdict of the last prefix, i.e. of the whole history.
	Final core.Result
}

// MonitorHistory replays a finished history through the incremental checker:
// labels in insertion order, each followed by the direct visibility edges
// whose endpoints both exist by that step, checking every prefix via
// core.CheckRAExtend over one engine session (none with o.FreshSessions,
// which checks every prefix from scratch). The per-prefix closure (and so
// every verdict) matches a from-scratch check of the same prefix.
func MonitorHistory(h *core.History, sp core.Spec, opts core.CheckOptions, o Options) (MonitorReport, error) {
	opts = o.Tune(opts)
	_, cancel := o.withDeadline(&opts)
	defer cancel()
	return monitorHistory(h, sp, opts, o.session())
}

// monitorHistory is MonitorHistory over a caller-owned session, so the
// monitored histories of a batch share one warm session the way runBatch's
// trials do; a nil session checks every prefix from scratch. opts are
// already tuned and carry the caller's deadline. The replay's record is
// dropped from the session when it ends.
func monitorHistory(h *core.History, sp core.Spec, opts core.CheckOptions, sess *search.Session) (MonitorReport, error) {
	opts.Session = sess
	var rep MonitorReport
	n := h.Len()
	if n == 0 {
		rep.Final = core.CheckRA(h, sp, opts)
		rep.Stats = rep.Final.Stats
		return rep, nil
	}
	// Bucket each direct edge by the step at which both endpoints exist: the
	// larger insertion rank. Replaying label k and then bucket k grows the
	// prefix exactly as a monitor attached to the live store would have seen
	// it. Runtime histories generate a label before anything can observe it,
	// so in practice every edge of bucket k targets the newest label and the
	// stream obeys the extension path's edge discipline; an exotic history
	// with an edge into an older label still verifies correctly — the
	// extension detects the violation and that step re-checks from scratch
	// (counted in Rebuilt).
	buckets := make([][]core.VisEdge, n)
	var bucketErr error
	h.DirectVisEdges(func(from, to uint64) {
		rf, okf := h.RankOf(from)
		rt, okt := h.RankOf(to)
		if !okf || !okt {
			bucketErr = fmt.Errorf("monitor: edge endpoint missing from history (%d -> %d)", from, to)
			return
		}
		k := rf
		if rt > k {
			k = rt
		}
		buckets[k] = append(buckets[k], core.VisEdge{From: from, To: to})
	})
	if bucketErr != nil {
		return rep, bucketErr
	}

	g := core.NewHistory()
	defer sess.Forget(g)
	newOps := make([]*core.Label, 1)
	rep.Verdicts = make([]core.Verdict, 0, n)
	for k := 0; k < n; k++ {
		l := h.LabelAt(k)
		if err := g.Add(l); err != nil {
			return rep, fmt.Errorf("monitor: replaying op %d: %w", k, err)
		}
		for _, e := range buckets[k] {
			if err := g.AddVis(e.From, e.To); err != nil {
				return rep, fmt.Errorf("monitor: replaying edges of op %d: %w", k, err)
			}
		}
		newOps[0] = l
		res := core.CheckRAExtend(g, sp, newOps, opts)
		rep.Verdicts = append(rep.Verdicts, res.Verdict)
		rep.Stats.Add(res.Stats)
		switch {
		case res.WitnessReplayed:
			rep.Replayed++
		case res.Extended:
			rep.Searched++
		default:
			rep.Rebuilt++
		}
		rep.Final = res
	}
	return rep, nil
}

// MonitorGenerated checks trials histories from the generator through the
// incremental monitor loop — each history replayed op-by-op via
// core.CheckRAExtend — and aggregates the final (full-history) verdicts into
// the same HistoryCheck shape the batch entry points report, so tools can
// switch a batch to incremental mode without changing their reporting or
// exit-code logic. Verdict fields, Tried and the session flags come from each
// history's final prefix; Stats sums every prefix's search work. The
// monitor's own counters land in the Replayed/ExtendSearches/Rebuilds
// fields. Trials run through the batch pool of CheckGeneratedAgainst, with
// its workers over one shared session, its panic isolation, its deadline
// and its trial-order fold; each history's replay is serialized on one
// worker, as Extend requires.
func MonitorGenerated(name string, sp core.Spec, opts core.CheckOptions, gen HistoryGenerator, trials int, o Options) (HistoryCheck, error) {
	return runBatch(name, sp, opts, trials, gen.Generate, monitorTrial, o)
}

// monitorTrial is MonitorGenerated's per-trial check: the op-by-op replay of
// h over the batch's session.
func monitorTrial(b *batch, h *core.History, tr *trialResult) error {
	rep, err := monitorHistory(h, b.sp, b.opts, b.sess)
	if err != nil {
		return err
	}
	tr.record(rep.Final)
	tr.stats = rep.Stats
	tr.replayed, tr.searched, tr.rebuilt = rep.Replayed, rep.Searched, rep.Rebuilt
	return nil
}
