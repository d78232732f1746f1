package harness

import (
	"fmt"
	"strings"

	"ralin/internal/crdt"
	"ralin/internal/crdt/registry"
	"ralin/internal/verify"
)

// Fig12Row is one row of the regenerated Figure 12 table: the CRDT, its
// implementation class, its linearization class, and the verification
// verdicts produced by this reproduction (proof obligations plus random
// history checking).
type Fig12Row struct {
	// Name is the CRDT name.
	Name string
	// Source cites the algorithm's origin, as in the paper's table.
	Source string
	// Class is OB or SB.
	Class crdt.Class
	// Lin is EO or TO.
	Lin crdt.LinClass
	// Obligations is the proof-obligation report (Commutativity/Refinement
	// for operation-based types, Prop1..Prop6/Refinement for state-based
	// ones).
	Obligations verify.Report
	// Histories is the random-history RA-linearizability check.
	Histories HistoryCheck
}

// OK reports whether both the obligations and the history checks passed.
func (r Fig12Row) OK() bool { return r.Obligations.OK() && r.Histories.OK() }

// Fig12Options configures the table regeneration.
type Fig12Options struct {
	// Verify configures the proof-obligation checking.
	Verify verify.Options
	// HistoryTrials is the number of random histories checked per CRDT.
	HistoryTrials int
	// Workload configures each random history.
	Workload WorkloadConfig
	// Options is the checker/batch configuration for the history checks.
	Options Options
}

// DefaultFig12Options keeps the full table under a few seconds.
func DefaultFig12Options() Fig12Options {
	return Fig12Options{
		Verify:        verify.DefaultOptions(),
		HistoryTrials: 25,
		Workload:      DefaultWorkload(),
	}
}

// Fig12Table regenerates the Figure 12 table: every registered CRDT of the
// paper's table is verified (proof obligations) and checked on random
// histories.
func Fig12Table(opts Fig12Options) ([]Fig12Row, error) {
	if opts.HistoryTrials <= 0 {
		opts.HistoryTrials = 25
	}
	var rows []Fig12Row
	for _, d := range registry.Fig12() {
		row, err := Fig12RowFor(d, opts)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12RowFor verifies and checks one CRDT.
func Fig12RowFor(d crdt.Descriptor, opts Fig12Options) (Fig12Row, error) {
	if opts.HistoryTrials <= 0 {
		opts.HistoryTrials = 25
	}
	row := Fig12Row{Name: d.Name, Source: d.Source, Class: d.Class, Lin: d.Lin}
	if d.Class == crdt.OpBased {
		row.Obligations = verify.CheckOpBased(d, opts.Verify)
	} else {
		row.Obligations = verify.CheckStateBased(d, opts.Verify)
	}
	hist, err := CheckRandomHistoriesWith(d, opts.HistoryTrials, opts.Workload, opts.Options)
	if err != nil {
		return row, err
	}
	row.Histories = hist
	return row, nil
}

// RenderFig12 renders the regenerated table in the layout of the paper's
// Figure 12, extended with the verification verdict columns.
func RenderFig12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-28s %-4s %-4s %-12s %-14s\n",
		"CRDT", "Source", "Imp.", "Lin.", "Obligations", "RA-lin histories")
	fmt.Fprintln(&b, strings.Repeat("-", 86))
	for _, r := range rows {
		obl := "proved"
		if !r.Obligations.OK() {
			obl = "FAILED"
		}
		hist := fmt.Sprintf("%d/%d ok", r.Histories.Linearizable, r.Histories.Histories)
		if r.Histories.Unknown > 0 {
			hist += fmt.Sprintf(" (%d unknown)", r.Histories.Unknown)
		}
		fmt.Fprintf(&b, "%-18s %-28s %-4s %-4s %-12s %-14s\n",
			r.Name, r.Source, r.Class, r.Lin, obl, hist)
	}
	return b.String()
}

// RenderFig12Details renders the per-obligation details below the table, one
// block per CRDT.
func RenderFig12Details(rows []Fig12Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.Obligations.String())
		fmt.Fprintf(&b, "  random histories: %d/%d RA-linearizable (%d operations",
			r.Histories.Linearizable, r.Histories.Histories, r.Histories.Operations)
		for strategy, n := range r.Histories.ByStrategy {
			fmt.Fprintf(&b, ", %d via %s", n, strategy)
		}
		b.WriteString(")\n")
		fmt.Fprintf(&b, "  batch: %d workers, %d plan reuses, %d cached rewrites\n",
			r.Histories.BatchWorkers, r.Histories.PlanReuses, r.Histories.RewriteHits)
		if r.Histories.FailureExample != "" {
			fmt.Fprintf(&b, "  first failure: %s\n", r.Histories.FailureExample)
		}
		if r.Histories.Unknown > 0 {
			fmt.Fprintf(&b, "  unknown verdicts: %d (first: %s)\n",
				r.Histories.Unknown, r.Histories.UnknownExample)
		}
	}
	return b.String()
}
