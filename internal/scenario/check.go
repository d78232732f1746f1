package scenario

import (
	"fmt"
	"strings"

	"ralin/internal/core"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/registry"
	"ralin/internal/spec"
)

// Mode selects how a scenario's histories are checked.
type Mode string

const (
	// ModeDesignated checks against the descriptor's specification with its
	// designated linearization strategy (the normal positive check; the
	// scenario's value is exercising the strategy under faults, e.g. the
	// timestamp-order strategy on HLC-timestamped histories).
	ModeDesignated Mode = "designated"
	// ModeExhaustive checks against the descriptor's specification with the
	// constructive strategies disabled, so every history drives the full
	// search engine — the near-miss high-Nodes probe.
	ModeExhaustive Mode = "exhaustive"
	// ModeNaive reinterprets the history over a naive specification that
	// ignores the CRDT's conflict-resolution identifiers (Figure 5a's
	// exercise): refutations are expected findings, witnessing exactly the
	// anomalies the fault schedule was designed to provoke.
	ModeNaive Mode = "naive"
)

// CheckPlan is everything needed to check one scenario history: the
// specification, the checker options and an optional history reinterpretation
// applied before checking (ModeNaive).
type CheckPlan struct {
	// Spec is the specification checked against.
	Spec core.Spec
	// SpecName names it for reports and corpus entries.
	SpecName string
	// Options is the per-history checker configuration.
	Options core.CheckOptions
	// Transform reinterprets the raw scenario history before checking (nil
	// for identity). Corpus entries store the transformed history, so replay
	// must not re-apply it.
	Transform func(*core.History) *core.History
	// ExpectRefutations documents that non-linearizable verdicts are the
	// scenario's findings, not failures (ModeNaive).
	ExpectRefutations bool
}

// Plan resolves the scenario's check plan from its CRDT and Mode.
func (sc Scenario) Plan() (CheckPlan, error) { return planFor(sc.CRDT, sc.Mode) }

func planFor(crdtName string, mode Mode) (CheckPlan, error) {
	d, err := registry.Lookup(crdtName)
	if err != nil {
		return CheckPlan{}, err
	}
	switch mode {
	case ModeDesignated, "":
		return CheckPlan{Spec: d.Spec, SpecName: d.Spec.Name(), Options: d.CheckOptions()}, nil
	case ModeExhaustive:
		opts := d.CheckOptions()
		opts.Strategies = nil
		return CheckPlan{Spec: d.Spec, SpecName: d.Spec.Name(), Options: opts}, nil
	case ModeNaive:
		// The naive reinterpretations produce plain update labels, so no
		// query-update rewriting is needed; the search is purely exhaustive,
		// as in the Figure 5a experiment.
		opts := core.CheckOptions{Exhaustive: true, MaxExtensions: 200000}
		switch crdtName {
		case "OR-Set":
			return CheckPlan{
				Spec: spec.Set{}, SpecName: spec.Set{}.Name(), Options: opts,
				Transform: orset.NaiveSetHistory, ExpectRefutations: true,
			}, nil
		case "Multi-Value Reg.":
			return CheckPlan{
				Spec: spec.Register{}, SpecName: spec.Register{}.Name(), Options: opts,
				Transform: NaiveRegisterHistory, ExpectRefutations: true,
			}, nil
		default:
			return CheckPlan{}, fmt.Errorf("scenario: no naive specification for %s", crdtName)
		}
	default:
		return CheckPlan{}, fmt.Errorf("scenario: unknown check mode %q", mode)
	}
}

// NaiveRegisterHistory reinterprets a multi-value register history over the
// single-value register specification: writes drop their version-vector
// identifiers and a read observing k concurrent values returns their
// "|"-join — a value no single write produced — so the check refutes exactly
// on genuine multi-value (long-fork-style) anomalies. Reads of zero or one
// value translate faithfully ("" is the register's unwritten initial value).
func NaiveRegisterHistory(h *core.History) *core.History {
	naive := h.Clone()
	for _, l := range naive.Labels() {
		switch l.Method {
		case "write":
			l.Ret = nil
		case "read":
			vs, ok := l.Ret.([]string)
			if !ok {
				continue
			}
			switch len(vs) {
			case 0:
				l.Ret = ""
			case 1:
				l.Ret = vs[0]
			default:
				l.Ret = strings.Join(vs, "|")
			}
		}
	}
	return naive
}

// Generator adapts a scenario to the harness batch pipeline
// (harness.HistoryGenerator): trial i runs the scenario with seed
// Seed + i·7919 and applies the check plan's reinterpretation, so the
// returned history is ready to check against Plan().Spec with
// Plan().Options.
type Generator struct {
	// Scenario is the fault schedule to run.
	Scenario Scenario
	// Seed is the base seed; trial i derives Seed + i·7919.
	Seed int64
}

// Generate runs one trial of the scenario.
func (g Generator) Generate(trial int) (*core.History, int64, error) {
	seed := g.Seed + int64(trial)*7919
	plan, err := g.Scenario.Plan()
	if err != nil {
		return nil, seed, err
	}
	h, err := Run(g.Scenario, seed)
	if err != nil {
		return nil, seed, err
	}
	if plan.Transform != nil {
		h = plan.Transform(h)
	}
	return h, seed, nil
}
