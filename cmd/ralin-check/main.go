// Command ralin-check generates random histories of a chosen CRDT and checks
// each for RA-linearizability with the type's designated linearization
// strategy (execution order or timestamp order) and a bounded exhaustive
// fallback. It is the workhorse behind the scaling experiments, and — via
// -cpuprofile/-memprofile — the standard way to capture pprof evidence for
// checker performance work.
//
// With -scenario, the uniform random workload is replaced by a named
// fault-schedule scenario (partitions, message loss, replica churn, hot
// keys): histories come from the scenario engine and are checked under the
// scenario's mode. Refuting checks are the expected findings of the naive
// modes, not tool failures.
//
// Usage:
//
//	ralin-check -crdt RGA -histories 50 -ops 10 -replicas 3
//	ralin-check -scenario partition-heal -histories 20
//	ralin-check -crdt OR-Set -timeout 2s -max-memo-mb 64
//	ralin-check -crdt OR-Set -cpuprofile cpu.out -memprofile mem.out
//	ralin-check -list
//	ralin-check -list-scenarios
//
// The exit code distinguishes the batch verdict — 0 all valid, 1 invalid,
// 2 unknown (deadline/budget/cancelled/panic), 3 operational error — see the
// -h output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ralin/cmd/internal/cliflags"
	"ralin/internal/core"
	"ralin/internal/crdt/registry"
	"ralin/internal/harness"
	"ralin/internal/scenario"
)

func main() {
	name := flag.String("crdt", "OR-Set", "CRDT to check (see -list)")
	histories := flag.Int("histories", 50, "number of random histories")
	ops := flag.Int("ops", 8, "operations per history")
	replicas := flag.Int("replicas", 3, "replicas per history")
	seed := cliflags.AddSeed(flag.CommandLine)
	delivery := flag.Int("delivery", 40, "probability (percent) of a propagation step between operations")
	common := cliflags.AddCommon(flag.CommandLine)
	incremental := cliflags.AddIncremental(flag.CommandLine)
	scen := cliflags.AddScenario(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file before exiting")
	list := flag.Bool("list", false, "list the registered CRDTs and exit")
	cliflags.DocumentExitCodes(flag.CommandLine)
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

	// The checking work runs inside run() so the profile writers below —
	// which must flush even when the check fails — see every exit path;
	// os.Exit skips defers, so main only calls it after run returns.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	code := run(common, *incremental, scen.Name(), *name, *histories, *ops, *replicas, *seed, *delivery)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	os.Exit(code)
}

// fatal reports an operational error (exit 3 per the documented contract).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ralin-check:", err)
	os.Exit(3)
}

func run(common *cliflags.Common, incremental bool, scenarioName, name string, histories, ops, replicas int, seed int64, delivery int) int {
	o, err := common.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-check:", err)
		return 3
	}
	if scenarioName != "" {
		return runScenario(o, scenarioName, histories, seed, incremental)
	}

	d, err := registry.Lookup(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-check:", err)
		return 3
	}
	cfg := harness.WorkloadConfig{
		Seed:         seed,
		Ops:          ops,
		Replicas:     replicas,
		Elems:        []string{"a", "b", "c"},
		DeliveryProb: delivery,
	}
	gen := harness.RandomGenerator{Desc: d, Cfg: cfg}
	res, err := cliflags.Checker(incremental)(d.Name, d.Spec, d.CheckOptions(), gen, histories, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-check:", err)
		return 3
	}
	fmt.Printf("%s (%s, %s linearizations)\n", d.Name, d.Class, d.Lin)
	printStats(res, core.ResolveEngine(o.Engine), incremental)
	if res.Invalid > 0 {
		fmt.Printf("  FIRST FAILURE: %s\n", res.FailureExample)
	}
	return cliflags.VerdictExitCode(res, false)
}

// runScenario checks histories generated by a named fault-schedule scenario.
// Refutations under a naive-specification mode are findings, not failures —
// they keep exit 0; unexpected refutations exit 1, unknown verdicts exit 2,
// operational errors exit 3.
func runScenario(o harness.Options, scenarioName string, histories int, seed int64, incremental bool) int {
	sc, err := scenario.Lookup(scenarioName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-check:", err)
		return 3
	}
	plan, err := sc.Plan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-check:", err)
		return 3
	}
	gen := scenario.Generator{Scenario: sc, Seed: seed}
	res, err := cliflags.Checker(incremental)(sc.Name, plan.Spec, plan.Options, gen, histories, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-check:", err)
		return 3
	}
	fmt.Printf("scenario %s: %s checked against %s (%s mode)\n", sc.Name, sc.CRDT, plan.SpecName, sc.Mode)
	printStats(res, core.ResolveEngine(o.Engine), incremental)
	if res.Invalid > 0 {
		verdictKind := "UNEXPECTED failures"
		if plan.ExpectRefutations {
			verdictKind = "expected findings of the naive specification"
		}
		fmt.Printf("  refuted:             %d (%s)\n", res.Invalid, verdictKind)
		fmt.Printf("  first refutation:    %s\n", res.FailureExample)
	}
	return cliflags.VerdictExitCode(res, plan.ExpectRefutations)
}

// firstLine trims an unknown-verdict example (which may carry a recovered
// panic stack) to its first line for the one-line stats display.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func printStats(res harness.HistoryCheck, engine core.Engine, incremental bool) {
	fmt.Printf("  histories checked:   %d (%d operations total)\n", res.Histories, res.Operations)
	fmt.Printf("  RA-linearizable:     %d\n", res.Linearizable)
	for strategy, n := range res.ByStrategy {
		fmt.Printf("    via %-18s %d\n", strategy+":", n)
	}
	if res.Unknown > 0 {
		fmt.Printf("  unknown verdicts:    %d", res.Unknown)
		for reason, n := range res.UnknownByReason {
			fmt.Printf(" [%s: %d]", reason, n)
		}
		fmt.Printf("\n    first: %s\n", firstLine(res.UnknownExample))
	}
	if res.Degraded > 0 {
		fmt.Printf("  degraded (mem budget): %d trials finished memo-less\n", res.Degraded)
	}
	fmt.Printf("  candidates tried:    %d (engine %s)\n", res.Tried, engine)
	if res.Nodes > 0 {
		fmt.Printf("  search nodes:        %d explored, %d pruned, %d memo hits\n", res.Nodes, res.Pruned, res.MemoHits)
	}
	if incremental && res.Operations > 0 {
		fmt.Printf("  incremental:         %d prefixes checked: %d certificate replays, %d extend searches, %d rebuilds\n",
			res.Operations, res.Replayed, res.ExtendSearches, res.Rebuilds)
	}
	fmt.Printf("  batch:               %d workers, %d state IDs held by the session's pooled searchers\n", res.BatchWorkers, res.InternedStates)
	fmt.Printf("  plan cache:          %d pooled plans reused, %d cached rewrites\n", res.PlanReuses, res.RewriteHits)
}
