// Command ralin-benchdiff is the benchmark regression gate: it compares a
// candidate benchmark run (ralin-bench2json output) against a committed
// baseline and fails when a gated benchmark regressed.
//
// Two metrics are gated, with different strictness:
//
//   - allocs/op is machine-independent, so any increase over the baseline
//     beyond -max-allocs-regression percent fails the gate. The default is 0
//     (strictly no regression); the Makefile's bench-gate target passes 1,
//     because the concurrent batch benchmarks have ~0.1% run-to-run
//     allocation jitter from goroutine scheduling while real regressions
//     show up at several percent;
//   - ns/op is compared only when both documents were measured on the same
//     CPU model (the context emitted by `go test -bench`): a regression
//     beyond -max-ns-regression percent fails. Across different CPUs the
//     ns/op delta is reported as advisory only, unless -force-ns insists —
//     wall-clock comparisons between machines would gate on hardware, not
//     code. A -max-ns-regression of 0 (or less) makes ns/op advisory
//     everywhere; CI uses that, because hosted runners report generic CPU
//     strings that match across genuinely different shared-VM hardware.
//
// A gated benchmark whose allocs/op fell more than 10% below its baseline
// is reported "stale": it passes, but the report lists it, because a
// baseline above the code lets a regression up to the gap through the gate.
// Re-record such entries in the committed baseline.
//
// A third, absolute gate is optional: -assert-zero-allocs names candidate
// benchmarks (by regexp) that must report exactly 0 allocs/op, baseline
// regardless — the warm-session re-check steady state is pinned this way, so
// a single reintroduced per-check allocation fails the gate even if the
// committed baseline also carried it.
//
// Only benchmarks whose name matches -match are gated — by default the
// scheduling-independent variants of the refutation and batch-checking
// benchmarks (searches, single-worker batches), because variants whose
// effective concurrency floats with the host's core count allocate
// differently per machine. A gated benchmark present in the baseline but
// missing from the candidate also fails, so the gate cannot be silenced by
// deleting a benchmark.
//
// Usage:
//
//	ralin-benchdiff -baseline BENCH_results.json -candidate fresh.json
//	ralin-benchdiff -baseline BENCH_results.json -candidate fresh.json -match 'EngineNonLinearizable' -max-ns-regression 10
//
// `make bench-gate` runs the gated benchmarks and pipes them through this
// command; CI runs that target on every build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// Result and Document mirror cmd/ralin-bench2json's output schema.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Document is one parsed benchmark run.
type Document struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Result          `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_results.json", "committed baseline JSON")
	candidatePath := flag.String("candidate", "", "fresh run JSON to gate (required)")
	// The default gate covers only the scheduling-independent variants:
	// searches (each runs on one goroutine) and single-worker batches.
	// Batches whose pool concurrency actually materializes only on
	// multi-core hosts (w4) allocate differently per machine, so gating
	// them against a baseline recorded elsewhere would fail on hardware,
	// not code. IncrementalExtend gates its extend variants only — the
	// scratch side is the contrast workload, and its small sizes finish too
	// fast for 50 iterations to yield a stable ns/op reading.
	// StrategyValidation gates every Figure 12 type: each is a sequential
	// validation of fixed histories. RewriteSmall gates both rewritten
	// types: each op rewrites the same fixed histories. AddVisAppend gates
	// both sizes: each op appends the same fixed history label by label.
	match := flag.String("match",
		"^Benchmark(EngineNonLinearizable/(legacy|pruned)|EngineWideRefutation/pruned|BatchRefutations/(fresh|shared)/w1|BatchCheckRandomHistories/(fresh|shared)/w1|SessionRecheck/(fresh|session)|ScenarioCorpus|ScenarioSession|IncrementalExtend/(orset/)?extend/n=\\d+|StrategyValidation/[^/]+|RewriteSmall/[^/]+|AddVisAppend/n=\\d+)\\b",
		"regexp selecting the gated benchmarks")
	maxNS := flag.Float64("max-ns-regression", 25, "maximum tolerated ns/op regression in percent (same-CPU runs); <= 0 makes ns/op advisory")
	maxAllocs := flag.Float64("max-allocs-regression", 0, "maximum tolerated allocs/op regression in percent; < 0 makes allocs/op advisory (for ns-only gates against a runner-cached baseline)")
	forceNS := flag.Bool("force-ns", false, "gate ns/op even when baseline and candidate ran on different CPUs")
	assertZero := flag.String("assert-zero-allocs", "", "regexp selecting candidate benchmarks whose allocs/op must be exactly 0 — an absolute gate, independent of the baseline; empty disables it")
	flag.Parse()

	if *candidatePath == "" {
		fmt.Fprintln(os.Stderr, "ralin-benchdiff: -candidate is required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-benchdiff: bad -match:", err)
		os.Exit(2)
	}
	var zeroRe *regexp.Regexp
	if *assertZero != "" {
		zeroRe, err = regexp.Compile(*assertZero)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ralin-benchdiff: bad -assert-zero-allocs:", err)
			os.Exit(2)
		}
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-benchdiff:", err)
		os.Exit(2)
	}
	candidate, err := load(*candidatePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ralin-benchdiff:", err)
		os.Exit(2)
	}
	failures := diff(os.Stdout, baseline, candidate, re, *maxNS, *maxAllocs, *forceNS)
	failures += assertZeroAllocs(os.Stdout, candidate, zeroRe)
	if failures > 0 {
		os.Exit(1)
	}
}

// assertZeroAllocs enforces the absolute allocation gate: every candidate
// benchmark matching re must report exactly 0 allocs/op. A missing metric
// fails (the run must use -benchmem), and so does a pattern matching nothing
// — the assertion cannot be silenced by renaming the benchmark. Returns the
// number of failures; re nil disables the gate.
func assertZeroAllocs(w io.Writer, candidate *Document, re *regexp.Regexp) int {
	if re == nil {
		return 0
	}
	failures, matched := 0, 0
	for _, c := range candidate.Benchmarks {
		if !re.MatchString(c.Name) {
			continue
		}
		matched++
		k := key(c.Name)
		a, ok := c.Metrics["allocs/op"]
		switch {
		case !ok:
			failures++
			fmt.Fprintf(w, "FAIL  %-55s allocs/op missing from candidate (run with -benchmem)\n", k)
		case a != 0:
			failures++
			fmt.Fprintf(w, "FAIL  %-55s allocs/op = %.0f, must be exactly 0\n", k, a)
		default:
			fmt.Fprintf(w, "ok    %-55s allocs/op = 0 (asserted)\n", k)
		}
	}
	if matched == 0 {
		failures++
		fmt.Fprintf(w, "FAIL  no candidate benchmark matched -assert-zero-allocs %q\n", re)
	}
	return failures
}

func load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// stripCPUSuffix removes the -N GOMAXPROCS suffix `go test -bench` appends,
// so runs from hosts with different core counts still pair up.
var stripCPUSuffix = regexp.MustCompile(`-\d+$`)

func key(name string) string { return stripCPUSuffix.ReplaceAllString(name, "") }

// staleFrac is how far below its baseline a gated allocs/op reading must
// fall for diff to report the baseline stale.
const staleFrac = 0.10

// diff prints the comparison table and returns the number of gate failures.
func diff(w io.Writer, baseline, candidate *Document, re *regexp.Regexp, maxNS, maxAllocs float64, forceNS bool) int {
	sameCPU := baseline.Context["cpu"] != "" && baseline.Context["cpu"] == candidate.Context["cpu"]
	gateNS := (sameCPU || forceNS) && maxNS > 0
	gateAllocs := maxAllocs >= 0
	switch {
	case maxNS <= 0:
		fmt.Fprintln(w, "note: ns/op gating disabled (-max-ns-regression <= 0) — allocs/op gates")
	case !gateNS:
		fmt.Fprintf(w, "note: baseline CPU %q != candidate CPU %q — ns/op is advisory, allocs/op gates\n",
			baseline.Context["cpu"], candidate.Context["cpu"])
	}
	if !gateAllocs {
		fmt.Fprintln(w, "note: allocs/op gating disabled (-max-allocs-regression < 0) — ns/op gates")
	}

	base := map[string]Result{}
	for _, b := range baseline.Benchmarks {
		if re.MatchString(b.Name) {
			base[key(b.Name)] = b
		}
	}
	failures := 0
	var stale []string
	seen := map[string]bool{}
	for _, c := range candidate.Benchmarks {
		if !re.MatchString(c.Name) {
			continue
		}
		k := key(c.Name)
		seen[k] = true
		b, ok := base[k]
		if !ok {
			fmt.Fprintf(w, "NEW   %-55s (not in baseline; not gated)\n", k)
			continue
		}
		verdict := "ok   "
		var notes []string
		ba, baOK := b.Metrics["allocs/op"]
		ca, caOK := c.Metrics["allocs/op"]
		switch {
		case !gateAllocs:
			if baOK && caOK {
				notes = append(notes, fmt.Sprintf("allocs/op %.0f -> %.0f (advisory)", ba, ca))
			}
		case baOK && !caOK:
			// A candidate without the metric the baseline gates on (e.g.
			// -benchmem dropped from the bench invocation) must not slip
			// through as "0 allocations".
			verdict = "FAIL "
			failures++
			notes = append(notes, "allocs/op missing from candidate (run with -benchmem)")
		case baOK && ca > ba*(1+maxAllocs/100):
			verdict = "FAIL "
			failures++
			notes = append(notes, fmt.Sprintf("allocs/op regressed %.0f -> %.0f (limit +%.1f%%)", ba, ca, maxAllocs))
		case baOK && ca < ba*(1-staleFrac):
			verdict = "stale"
			stale = append(stale, k)
			notes = append(notes, fmt.Sprintf("allocs/op %.0f -> %.0f (more than %.0f%% below the baseline: re-record it)", ba, ca, staleFrac*100))
		case baOK:
			notes = append(notes, fmt.Sprintf("allocs/op %.0f -> %.0f", ba, ca))
		}
		if bn, cn := b.Metrics["ns/op"], c.Metrics["ns/op"]; bn > 0 && cn > 0 {
			deltaPct := (cn/bn - 1) * 100
			switch {
			case gateNS && deltaPct > maxNS:
				verdict = "FAIL "
				failures++
				notes = append(notes, fmt.Sprintf("ns/op regressed %+.1f%% (limit %+.1f%%)", deltaPct, maxNS))
			case gateNS:
				notes = append(notes, fmt.Sprintf("ns/op %+.1f%%", deltaPct))
			default:
				notes = append(notes, fmt.Sprintf("ns/op %+.1f%% (advisory)", deltaPct))
			}
		}
		fmt.Fprintf(w, "%s %-55s %s\n", verdict, k, strings.Join(notes, ", "))
	}
	for k := range base {
		if !seen[k] {
			fmt.Fprintf(w, "FAIL  %-55s gated benchmark missing from candidate run\n", k)
			failures++
		}
	}
	if len(stale) > 0 {
		fmt.Fprintf(w, "ralin-benchdiff: %d stale baseline(s), allocs/op more than %.0f%% below: %s\n",
			len(stale), staleFrac*100, strings.Join(stale, ", "))
	}
	if failures > 0 {
		fmt.Fprintf(w, "ralin-benchdiff: %d regression(s) against the baseline\n", failures)
	} else {
		fmt.Fprintln(w, "ralin-benchdiff: no regressions against the baseline")
	}
	return failures
}
