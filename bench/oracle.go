package main

import (
	"fmt"

	"ralin/internal/core"
	"ralin/internal/harness"
)

// verifier counts the decisions checked against reference answers and the
// ones that failed: an Unknown verdict, a verdict other than the reference,
// or a Valid witness that core.IsRALinearization rejects.
type verifier struct {
	attempted int
	failed    int
	first     string
}

func (v *verifier) fail(n int, why string) {
	v.failed += n
	if v.first == "" {
		v.first = why
	}
}

// verdict records one decision.
func (v *verifier) verdict(k key, want, got core.Verdict) {
	v.attempted++
	if got != want {
		v.fail(1, fmt.Sprintf("%v: verdict %v, reference %v", k, got, want))
	}
}

// prefixes records the n prefix decisions of one monitored history, of which
// notValid were not Valid, the reference verdict of every prefix.
func (v *verifier) prefixes(k key, n, notValid int, first string) {
	v.attempted += n
	if notValid > 0 {
		v.fail(notValid, fmt.Sprintf("%v: %s, reference valid", k, first))
	}
}

// failure records a decision that could not be made.
func (v *verifier) failure(k key, err error) {
	v.attempted++
	v.fail(1, fmt.Sprintf("%v: %v", k, err))
}

// witness validates the witness of a decision already recorded as Valid.
// IsRALinearization checks Definition 3.5 directly and shares no code with
// the search engine.
func (v *verifier) witness(k key, h *core.History, seq []*core.Label, sp core.Spec) {
	if err := core.IsRALinearization(h, seq, sp); err != nil {
		v.fail(1, fmt.Sprintf("%v: witness rejected: %v", k, err))
	}
}

// batch records the decisions of one CheckHistoryBatch call, which reports
// counts only: every history the counts cannot match to its reference
// verdict, and every Unknown, fails.
func (v *verifier) batch(what string, ref []core.Verdict, out harness.HistoryCheck, err error) {
	v.attempted += len(ref)
	if err != nil {
		v.fail(len(ref), fmt.Sprintf("%s: %v", what, err))
		return
	}
	valid, invalid := 0, 0
	for _, r := range ref {
		switch r {
		case core.VerdictValid:
			valid++
		case core.VerdictInvalid:
			invalid++
		}
	}
	if bad := len(ref) - min(out.Linearizable, valid) - min(out.Invalid, invalid); bad > 0 {
		v.fail(bad, fmt.Sprintf("%s: %d valid, %d invalid, %d unknown; reference %d valid, %d invalid",
			what, out.Linearizable, out.Invalid, out.Unknown, valid, invalid))
	}
}

// counterOracle decides a Spec(Counter) history in closed form. inc and dec
// are always admitted and commute, so a linearization exists iff every read
// returns the number of visible incs minus visible decs, whatever the order.
func counterOracle(h *core.History) (core.Verdict, error) {
	for _, q := range h.Labels() {
		if !q.IsQuery() {
			continue
		}
		var sum int64
		for _, u := range h.VisibleTo(q) {
			switch u.Method {
			case "inc":
				sum++
			case "dec":
				sum--
			default:
				return core.VerdictUnknown, fmt.Errorf("counter oracle: unexpected label %v", u)
			}
		}
		if ret, ok := q.Ret.(int64); !ok || ret != sum {
			return core.VerdictInvalid, nil
		}
	}
	return core.VerdictValid, nil
}

// searchOracle decides h with a configuration the timed runs never use: a
// sequential, unbounded search without memoization, in guided branch order,
// on a fresh engine state. A Valid answer must carry a witness that passes
// core.IsRALinearization.
func searchOracle(h *core.History, sp core.Spec, opts core.CheckOptions) (core.Verdict, error) {
	opts.Strategies = nil
	opts.Exhaustive = true
	opts.DisableMemo = true
	opts.MaxNodes = -1
	opts.Parallelism = 1
	opts.Guidance = core.GuidanceGuided
	opts.Session = nil
	res := core.CheckRA(h, sp, opts)
	switch res.Verdict {
	case core.VerdictValid:
		if err := core.IsRALinearization(res.Rewritten, res.Linearization, sp); err != nil {
			return res.Verdict, fmt.Errorf("reference witness rejected: %w", err)
		}
	case core.VerdictUnknown:
		return res.Verdict, fmt.Errorf("reference search undecided: %v", res.Incomplete)
	}
	return res.Verdict, nil
}

// designatedWitness confirms that h is Valid by its descriptor's designated
// constructive linearization, checked against Definition 3.5 on a fresh
// γ-rewriting — the Figure 12 result, computed rather than assumed.
func designatedWitness(h *core.History, sp core.Spec, opts core.CheckOptions) error {
	rew, err := core.RewriteHistory(h, opts.Rewriting)
	if err != nil {
		return err
	}
	var seq []*core.Label
	switch opts.Strategies[0] {
	case core.StrategyTimestampOrder:
		seq = core.TimestampOrderLinearization(rew.History)
	default:
		seq = core.ExecutionOrderLinearization(rew.History)
	}
	return core.IsRALinearization(rew.History, seq, sp)
}
