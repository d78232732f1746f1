// Command ralin-scenario drives the fault-schedule scenario library: it runs
// named scenarios (partitions and split brain, lossy and duplicating links,
// replica churn, hot-key skew, clock skew over hybrid logical clocks),
// RA-checks the induced histories under each scenario's mode, and — with
// -harvest — refreshes the committed regression corpus under testdata/corpus/
// with the most interesting histories found (refutations first, then the
// highest search-node counts).
//
// Usage:
//
//	ralin-scenario -all                       # run every scenario
//	ralin-scenario -scenario partition-heal -trials 50
//	ralin-scenario -all -harvest testdata/corpus -trials 40 -keep 2
//	ralin-scenario -list-scenarios
//
// The exit code distinguishes the worst verdict across the scenarios run —
// 0 all as expected, 1 unexpected refutation, 2 unknown verdicts,
// 3 operational error — see the -h output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ralin/cmd/internal/cliflags"
	"ralin/internal/harness"
	"ralin/internal/scenario"
)

func main() {
	all := flag.Bool("all", false, "run every scenario in the library")
	trials := flag.Int("trials", 20, "histories generated per scenario")
	seed := cliflags.AddSeed(flag.CommandLine)
	keep := flag.Int("keep", 2, "corpus entries kept per scenario when harvesting")
	harvest := flag.String("harvest", "", "harvest the most interesting histories into this corpus directory instead of batch-checking")
	common := cliflags.AddCommon(flag.CommandLine)
	incremental := cliflags.AddIncremental(flag.CommandLine)
	scen := cliflags.AddScenario(flag.CommandLine)
	cliflags.DocumentExitCodes(flag.CommandLine)
	flag.Parse()

	if scen.HandleList(os.Stdout) {
		return
	}

	o, err := common.Options()
	if err != nil {
		fatal(err)
	}

	var scenarios []scenario.Scenario
	switch {
	case *all:
		scenarios = scenario.All()
	case scen.Name() != "":
		sc, err := scenario.Lookup(scen.Name())
		if err != nil {
			fatal(err)
		}
		scenarios = []scenario.Scenario{sc}
	default:
		fmt.Fprintln(os.Stderr, "ralin-scenario: pick -scenario NAME or -all (see -list-scenarios)")
		os.Exit(3)
	}

	if *harvest != "" {
		if err := harvestCorpus(scenarios, *harvest, *seed, *trials, *keep); err != nil {
			fatal(err)
		}
		return
	}

	// The process exit code is the worst verdict across scenarios:
	// unexpected refutations (1) dominate unknowns (2) dominate clean runs.
	failed, unknown := 0, 0
	for _, sc := range scenarios {
		switch runScenario(sc, o, *seed, *trials, *incremental) {
		case 1:
			failed++
		case 2:
			unknown++
		}
	}
	switch {
	case failed > 0:
		fmt.Fprintf(os.Stderr, "ralin-scenario: %d scenario(s) produced unexpected verdicts\n", failed)
		os.Exit(1)
	case unknown > 0:
		fmt.Fprintf(os.Stderr, "ralin-scenario: %d scenario(s) left unknown verdicts (deadline/budget/panic)\n", unknown)
		os.Exit(2)
	}
}

// fatal reports an operational error (exit 3 per the documented contract).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ralin-scenario:", err)
	os.Exit(3)
}

// runScenario batch-checks trials histories of one scenario, prints a summary
// line, and returns the scenario's verdict exit code (0/1/2). Refutations are
// the expected outcome of naive-mode scenarios and unexpected anywhere else.
func runScenario(sc scenario.Scenario, o harness.Options, seed int64, trials int, incremental bool) int {
	plan, err := sc.Plan()
	if err != nil {
		fatal(err)
	}
	gen := scenario.Generator{Scenario: sc, Seed: seed}
	res, err := cliflags.Checker(incremental)(sc.Name, plan.Spec, plan.Options, gen, trials, o)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-20s %s vs %s (%s mode): %d histories, %d ops, %d nodes",
		sc.Name, sc.CRDT, plan.SpecName, sc.Mode, res.Histories, res.Operations, res.Nodes)
	if incremental && res.Operations > 0 {
		fmt.Printf(", %d/%d prefixes replayed from certificate", res.Replayed, res.Operations)
	}
	switch {
	case res.Invalid > 0 && plan.ExpectRefutations:
		fmt.Printf(", %d refuted as intended (e.g. %s)", res.Invalid, res.FailureExample)
	case res.Invalid > 0:
		fmt.Printf(", %d UNEXPECTED refutations (e.g. %s)", res.Invalid, res.FailureExample)
	case res.Unknown == 0:
		fmt.Print(", all RA-linearizable")
	}
	if res.Unknown > 0 {
		fmt.Printf(", %d unknown", res.Unknown)
		for reason, n := range res.UnknownByReason {
			fmt.Printf(" [%s: %d]", reason, n)
		}
	}
	fmt.Println()
	return cliflags.VerdictExitCode(res, plan.ExpectRefutations)
}

// harvestCorpus refreshes dir with the keep most interesting entries per
// scenario, named <scenario>-<seed>.json.
func harvestCorpus(scenarios []scenario.Scenario, dir string, seed int64, trials, keep int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sc := range scenarios {
		entries, summary, err := scenario.Harvest(sc, seed, trials, keep)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %s\n", sc.Name, summary)
		for _, e := range entries {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", e.Scenario, e.Seed))
			if err := scenario.WriteEntry(path, e); err != nil {
				return err
			}
			verdict := "linearizable"
			if !e.RALinearizable {
				verdict = "refuted"
			}
			fmt.Printf("  wrote %s (%s, %d nodes)\n", path, verdict, e.Nodes)
		}
	}
	return nil
}
