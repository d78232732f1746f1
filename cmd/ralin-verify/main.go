// Command ralin-verify runs the proof obligations of the RA-linearizability
// methodology for a single CRDT and prints the per-obligation report: for
// operation-based types the Commutativity and Refinement (or Refinement_ts)
// conditions of Section 4, for state-based types the Prop1..Prop6 properties
// and refinement conditions of Appendix D. It is the per-type view of what
// cmd/ralin-table aggregates.
//
// Usage:
//
//	ralin-verify -crdt RGA [-trials N] [-ops N] [-replicas N] [-seed N]
//	ralin-verify -all
//	ralin-verify -list
//	ralin-verify -scenario hot-key
//
// Alongside the deductive obligations, -histories N (default 10) RA-checks N
// random histories of each verified CRDT with the configured search engine
// (-engine), tying the obligation run to the checker the rest of the
// toolchain uses. With -scenario, the random histories are replaced by
// the named fault-schedule scenario's histories and the obligations run for
// that scenario's CRDT.
package main

import (
	"flag"
	"fmt"
	"os"

	"ralin/cmd/internal/cliflags"
	"ralin/internal/core"
	"ralin/internal/crdt"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/scenario"
	"ralin/internal/verify"
)

func main() {
	name := flag.String("crdt", "RGA", "CRDT to verify (see -list)")
	all := flag.Bool("all", false, "verify every registered CRDT")
	trials := flag.Int("trials", 20, "random executions explored")
	ops := flag.Int("ops", 10, "operations per execution")
	replicas := flag.Int("replicas", 3, "replicas per execution")
	seed := cliflags.AddSeed(flag.CommandLine)
	histories := flag.Int("histories", 10, "random histories RA-checked per CRDT after the obligations (0 disables)")
	common := cliflags.AddCommon(flag.CommandLine)
	scen := cliflags.AddScenario(flag.CommandLine)
	list := flag.Bool("list", false, "list the registered CRDTs and exit")
	flag.Parse()

	if *list {
		for _, n := range registry.Names() {
			fmt.Println(n)
		}
		return
	}
	if scen.HandleList(os.Stdout) {
		return
	}

	o, err := common.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-verify:", err)
		os.Exit(1)
	}
	opts := verify.Options{
		Seed:      *seed,
		Trials:    *trials,
		Ops:       *ops,
		Replicas:  *replicas,
		Elems:     []string{"a", "b", "c"},
		MaxStates: 40,
	}

	var sc scenario.Scenario
	var plan scenario.CheckPlan
	useScenario := scen.Name() != ""
	if useScenario {
		sc, err = scenario.Lookup(scen.Name())
		if err != nil {
			fmt.Fprintln(os.Stderr, "ralin-verify:", err)
			os.Exit(1)
		}
		plan, err = sc.Plan()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ralin-verify:", err)
			os.Exit(1)
		}
		*name = sc.CRDT
	}

	var targets []crdt.Descriptor
	if *all && !useScenario {
		targets = registry.All()
	} else {
		d, err := registry.Lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ralin-verify:", err)
			os.Exit(1)
		}
		targets = []crdt.Descriptor{d}
	}

	failed := 0
	for _, d := range targets {
		var report verify.Report
		if d.Class == crdt.StateBased {
			report = verify.CheckStateBased(d, opts)
		} else {
			report = verify.CheckOpBased(d, opts)
		}
		fmt.Print(report)
		if !report.OK() {
			failed++
		}
		if *histories > 0 {
			var hc harness.HistoryCheck
			var label string
			if useScenario {
				label = fmt.Sprintf("RA-Linearizable(%s)", sc.Name)
				gen := scenario.Generator{Scenario: sc, Seed: *seed}
				hc, err = harness.CheckGeneratedAgainst(sc.Name, plan.Spec, plan.Options, gen, *histories, o)
			} else {
				label = "RA-Linearizable(random)"
				cfg := harness.WorkloadConfig{
					Seed: *seed, Ops: *ops, Replicas: *replicas,
					Elems: []string{"a", "b", "c"}, DeliveryProb: 40,
				}
				hc, err = harness.CheckRandomHistoriesWith(d, *histories, cfg, o)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "ralin-verify:", err)
				os.Exit(1)
			}
			eng := core.ResolveEngine(o.Engine)
			fmt.Printf("  %-28s %6d checked  ", label, hc.Histories)
			switch {
			case hc.OK():
				if hc.Nodes > 0 {
					fmt.Printf("ok (%d candidates, %d nodes, %d plan reuses, %d cached rewrites, engine %s)\n",
						hc.Tried, hc.Nodes, hc.PlanReuses, hc.RewriteHits, eng)
				} else {
					fmt.Printf("ok (%d candidates, engine %s)\n", hc.Tried, eng)
				}
			case useScenario && plan.ExpectRefutations && hc.Invalid > 0 && hc.Unknown == 0:
				// Naive-mode scenarios exist to provoke refutations; report
				// them as findings rather than failing the obligation run.
				fmt.Printf("refuted %d/%d vs naive %s spec, as intended (e.g. %s)\n",
					hc.Invalid, hc.Histories, plan.SpecName, hc.FailureExample)
			case hc.Invalid == 0:
				// No definitive refutation, but some trials were truncated by
				// a deadline, budget or panic: the check is inconclusive.
				fmt.Printf("UNKNOWN for %d/%d (%s)\n", hc.Unknown, hc.Histories, hc.UnknownExample)
				failed++
			default:
				fmt.Printf("FAILED (%s)\n", hc.FailureExample)
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ralin-verify: %d CRDT(s) failed their proof obligations\n", failed)
		os.Exit(1)
	}
}
