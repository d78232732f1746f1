package main

import (
	"ralin/internal/core"
	"ralin/internal/search"
)

// outcome is what one decomposed check decided and the work it took.
type outcome struct {
	verdict core.Verdict
	// witness is the linearization of a Valid verdict, over rewritten.
	witness   []*core.Label
	rewritten *core.History
	// cloned reports that the rewriting cloned the history: neither served
	// from the session cache nor aliased to the input.
	cloned        bool
	strategyCalls int
	strategyHit   bool
	// searched reports that search.Run ran; eng is its outcome.
	searched bool
	eng      core.EngineOutcome
}

// checkDecomposed decides h the way core.CheckRA does, one public layer call
// at a time — RewriteForCheck, IsAcyclic, each constructive strategy
// (linearization plus IsRALinearization), then search.Run — with a span
// around each call. It assumes the pruned engine and no context, as every
// workload runs.
func checkDecomposed(r *recorder, h *core.History, sp core.Spec, opts core.CheckOptions) outcome {
	var o outcome
	s := r.start("core.rewrite")
	rew, cached, err := core.RewriteForCheck(h, opts)
	r.end(s)
	if err != nil {
		o.verdict = core.VerdictInvalid
		return o
	}
	o.rewritten = rew.History
	o.cloned = !cached && !rew.Aliased()

	s = r.start("core.history")
	acyclic := rew.History.IsAcyclic()
	r.end(s)
	if !acyclic {
		o.verdict = core.VerdictInvalid
		return o
	}

	for _, st := range opts.Strategies {
		if st != core.StrategyExecutionOrder && st != core.StrategyTimestampOrder {
			continue
		}
		s = r.start("core.strategy")
		var seq []*core.Label
		if st == core.StrategyExecutionOrder {
			seq = core.ExecutionOrderLinearization(rew.History)
		} else {
			seq = core.TimestampOrderLinearization(rew.History)
		}
		ok := core.IsRALinearization(rew.History, seq, sp) == nil
		r.end(s)
		o.strategyCalls++
		if ok {
			o.strategyHit = true
			o.verdict = core.VerdictValid
			o.witness = seq
			return o
		}
	}
	if !opts.Exhaustive {
		o.verdict = core.VerdictUnknown
		return o
	}

	s = r.start("search.run")
	o.eng = search.Run(rew.History, sp, false, opts)
	r.end(s)
	r.set(s, spanAttrs{Nodes: o.eng.Nodes})
	o.searched = true
	switch {
	case o.eng.OK:
		o.verdict = core.VerdictValid
		o.witness = o.eng.Witness
	case o.eng.Complete:
		o.verdict = core.VerdictInvalid
	default:
		o.verdict = core.VerdictUnknown
	}
	return o
}

// checkTraced runs one decomposed check as one trace: a root "check" span
// with a child span per layer call.
func checkTraced(r *recorder, k key, q int, crdt, scenario string, h *core.History, sp core.Spec, opts core.CheckOptions) outcome {
	root := r.start("check")
	o := checkDecomposed(r, h, sp, opts)
	r.end(root)
	r.set(root, spanAttrs{CRDT: crdt, Scenario: scenario, Verdict: o.verdict.String(), Nodes: o.eng.Nodes})
	r.finish(k, q)
	return o
}

// add counts one decomposed check.
func (c *counts) add(o outcome) {
	c.checks++
	c.rewriteCalls++
	if o.rewritten == nil {
		return // the rewriting failed; nothing ran after it
	}
	c.historyCalls++
	if o.cloned {
		c.rewriteCloned++
	}
	c.strategyCalls += o.strategyCalls
	if o.strategyHit {
		c.strategyHits++
	}
	if !o.searched {
		return
	}
	c.runCalls++
	c.addEngine(o.eng.Nodes, o.eng.Pruned, o.eng.MemoHits, o.eng.Leaves, o.eng.Steals, o.verdict)
	if o.eng.PlanReused {
		c.planReused++
	}
}

// addPrefix counts one monitor prefix: the append of one operation with
// edges new edges, and the Extend call that re-verified the prefix.
func (c *counts) addPrefix(edges int, res core.Result) {
	c.checks++
	c.historyCalls++
	c.edgesAdded += edges
	c.extendCalls++
	switch {
	case res.WitnessReplayed:
		c.replayed++
	case res.Extended:
		c.searched++
	default:
		c.rebuilt++
	}
	if res.Nodes > 0 {
		c.addEngine(res.Nodes, res.Pruned, res.MemoHits, 0, res.Steals, res.Verdict)
	}
}

func (c *counts) addEngine(nodes, pruned, memoHits, leaves, steals int, v core.Verdict) {
	c.nodes += nodes
	c.pruned += pruned
	c.memoHits += memoHits
	c.leaves += leaves
	c.steals += steals
	switch v {
	case core.VerdictValid:
		c.witnesses++
		c.witnessNodes += nodes
	case core.VerdictInvalid:
		c.refutations++
		c.refutationNodes += nodes
	}
}
