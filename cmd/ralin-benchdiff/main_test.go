package main

import (
	"regexp"
	"strings"
	"testing"
)

func doc(cpu string, benches ...Result) *Document {
	return &Document{Context: map[string]string{"cpu": cpu}, Benchmarks: benches}
}

func bench(name string, ns, allocs float64) Result {
	return Result{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

var gate = regexp.MustCompile(`^Benchmark(EngineNonLinearizable|BatchRefutations)\b`)

func runDiff(t *testing.T, baseline, candidate *Document, forceNS bool) (int, string) {
	t.Helper()
	var out strings.Builder
	n := diffTo(&out, baseline, candidate, gate, 25, forceNS)
	return n, out.String()
}

// diffTo adapts diff's io.Writer parameter for tests (strict allocs gate).
func diffTo(w *strings.Builder, baseline, candidate *Document, re *regexp.Regexp, maxNS float64, forceNS bool) int {
	return diff(w, baseline, candidate, re, maxNS, 0, forceNS)
}

func TestDiffAllocTolerance(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 1000))
	within := doc("cpuA", bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 1009))
	beyond := doc("cpuA", bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 1011))
	var out strings.Builder
	if n := diff(&out, b, within, gate, 25, 1, false); n != 0 {
		t.Fatalf("0.9%% alloc jitter must pass a 1%% tolerance:\n%s", out.String())
	}
	if n := diff(&out, b, beyond, gate, 25, 1, false); n != 1 {
		t.Fatalf("1.1%% alloc growth must fail a 1%% tolerance:\n%s", out.String())
	}
}

func TestDiffPassesWhenUnchanged(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300))
	c := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-8", 1100, 300))
	if n, out := runDiff(t, b, c, false); n != 0 {
		t.Fatalf("10%% ns drift and equal allocs must pass (got %d):\n%s", n, out)
	}
}

func TestDiffFailsOnAllocRegression(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 700))
	c := doc("cpuA", bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 701))
	n, out := runDiff(t, b, c, false)
	if n != 1 || !strings.Contains(out, "allocs/op regressed") {
		t.Fatalf("any allocs/op increase must fail (got %d):\n%s", n, out)
	}
}

func TestDiffFailsOnNSRegressionSameCPU(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300))
	c := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1300, 300))
	n, out := runDiff(t, b, c, false)
	if n != 1 || !strings.Contains(out, "ns/op regressed") {
		t.Fatalf(">25%% ns/op on the same CPU must fail (got %d):\n%s", n, out)
	}
}

func TestDiffNSAdvisoryAcrossCPUs(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300))
	c := doc("cpuB", bench("BenchmarkEngineNonLinearizable/pruned-4", 5000, 300))
	if n, out := runDiff(t, b, c, false); n != 0 || !strings.Contains(out, "advisory") {
		t.Fatalf("cross-CPU ns/op must be advisory (got %d):\n%s", n, out)
	}
	if n, _ := runDiff(t, b, c, true); n != 1 {
		t.Fatal("-force-ns must gate ns/op across CPUs")
	}
}

func TestDiffFailsOnMissingGatedBenchmark(t *testing.T) {
	b := doc("cpuA",
		bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300),
		bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 700))
	c := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300))
	n, out := runDiff(t, b, c, false)
	if n != 1 || !strings.Contains(out, "missing from candidate") {
		t.Fatalf("deleting a gated benchmark must fail the gate (got %d):\n%s", n, out)
	}
}

func TestDiffIgnoresUnmatchedAndNew(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkFig12Table-4", 100, 10))
	c := doc("cpuA",
		bench("BenchmarkFig12Table-4", 900, 90), // not gated: no failure
		bench("BenchmarkBatchRefutations/fresh/w1-4", 1, 1))
	n, out := runDiff(t, b, c, false)
	if n != 0 || !strings.Contains(out, "NEW") {
		t.Fatalf("ungated regressions must pass and new benchmarks be noted (got %d):\n%s", n, out)
	}
}

func TestDiffNSDisabled(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300))
	c := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 9000, 300))
	var out strings.Builder
	if n := diff(&out, b, c, gate, 0, 0, false); n != 0 || !strings.Contains(out.String(), "gating disabled") {
		t.Fatalf("-max-ns-regression 0 must disable ns gating even on the same CPU (got %d):\n%s", n, out.String())
	}
}

func TestDiffFailsOnMissingAllocsMetric(t *testing.T) {
	b := doc("cpuA", bench("BenchmarkBatchRefutations/shared/w4-4", 1000, 700))
	noAllocs := doc("cpuA", Result{
		Name:       "BenchmarkBatchRefutations/shared/w4-4",
		Iterations: 1,
		Metrics:    map[string]float64{"ns/op": 1000},
	})
	n, out := runDiff(t, b, noAllocs, false)
	if n != 1 || !strings.Contains(out, "allocs/op missing") {
		t.Fatalf("a candidate without allocs/op must fail the gate (got %d):\n%s", n, out)
	}
}

func TestDiffAllocsAdvisory(t *testing.T) {
	// The ns-only gate against a runner-cached baseline: allocs drift must
	// not fail, ns/op still gates on the same CPU string.
	b := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 300))
	allocDrift := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 900))
	var out strings.Builder
	if n := diff(&out, b, allocDrift, gate, 25, -1, false); n != 0 || !strings.Contains(out.String(), "allocs/op gating disabled") {
		t.Fatalf("-max-allocs-regression -1 must make allocs advisory (got %d):\n%s", n, out.String())
	}
	nsRegressed := doc("cpuA", bench("BenchmarkEngineNonLinearizable/pruned-4", 2000, 300))
	out.Reset()
	if n := diff(&out, b, nsRegressed, gate, 25, -1, false); n != 1 || !strings.Contains(out.String(), "ns/op regressed") {
		t.Fatalf("ns/op must still gate when allocs are advisory (got %d):\n%s", n, out.String())
	}
}

func TestKeyStripsGOMAXPROCSSuffix(t *testing.T) {
	if key("BenchmarkX/sub-8") != "BenchmarkX/sub" || key("BenchmarkX") != "BenchmarkX" {
		t.Fatal("suffix stripping wrong")
	}
}

func TestAssertZeroAllocs(t *testing.T) {
	re := regexp.MustCompile(`^BenchmarkSessionRecheck/session\b`)
	var out strings.Builder
	clean := doc("cpuA", bench("BenchmarkSessionRecheck/session-4", 1000, 0))
	if n := assertZeroAllocs(&out, clean, re); n != 0 || !strings.Contains(out.String(), "asserted") {
		t.Fatalf("0 allocs/op must pass the absolute gate (got %d):\n%s", n, out.String())
	}
	out.Reset()
	dirty := doc("cpuA", bench("BenchmarkSessionRecheck/session-4", 1000, 1))
	if n := assertZeroAllocs(&out, dirty, re); n != 1 || !strings.Contains(out.String(), "must be exactly 0") {
		t.Fatalf("1 alloc/op must fail the absolute gate (got %d):\n%s", n, out.String())
	}
	out.Reset()
	// A missing metric (run without -benchmem) and a pattern matching nothing
	// both fail: neither degradation may silence the assertion.
	bare := doc("cpuA", Result{Name: "BenchmarkSessionRecheck/session-4", Iterations: 1,
		Metrics: map[string]float64{"ns/op": 1000}})
	if n := assertZeroAllocs(&out, bare, re); n != 1 || !strings.Contains(out.String(), "missing") {
		t.Fatalf("missing allocs/op must fail the absolute gate (got %d):\n%s", n, out.String())
	}
	out.Reset()
	other := doc("cpuA", bench("BenchmarkSomethingElse-4", 1000, 0))
	if n := assertZeroAllocs(&out, other, re); n != 1 || !strings.Contains(out.String(), "matched") {
		t.Fatalf("an unmatched pattern must fail the absolute gate (got %d):\n%s", n, out.String())
	}
	if n := assertZeroAllocs(&out, dirty, nil); n != 0 {
		t.Fatal("a nil pattern must disable the absolute gate")
	}
}

func TestDiffListsStaleBaselines(t *testing.T) {
	b := doc("cpuA",
		bench("BenchmarkBatchRefutations/shared/w1-4", 1000, 1000),
		bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 1000))
	c := doc("cpuA",
		bench("BenchmarkBatchRefutations/shared/w1-4", 1000, 899),
		bench("BenchmarkEngineNonLinearizable/pruned-4", 1000, 901))
	n, out := runDiff(t, b, c, false)
	if n != 0 {
		t.Fatalf("a fall in allocs/op must not fail the gate (got %d):\n%s", n, out)
	}
	if !strings.Contains(out, "stale BenchmarkBatchRefutations/shared/w1") ||
		!strings.Contains(out, "1 stale baseline(s), allocs/op more than 10% below: BenchmarkBatchRefutations/shared/w1\n") {
		t.Fatalf("an allocs/op reading 10.1%% below its baseline must be listed stale:\n%s", out)
	}
	if strings.Contains(out, "stale BenchmarkEngineNonLinearizable") {
		t.Fatalf("a 9.9%% fall must not be listed stale:\n%s", out)
	}
}
