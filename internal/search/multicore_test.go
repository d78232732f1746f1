package search

import (
	"os"
	"runtime"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// TestWorkStealingMulticoreSpeedup is the CI multi-core scaling assertion for
// the work-stealing scheduler: on the flagship refutation (every node of the
// search space must be visited, so the work is real and the memo table keeps
// parallel node counts at the sequential level) a parallel search must
// actually steal branches and must not be slower than the sequential search.
//
// Wall-clock assertions are meaningless on single-core runners (where Steals
// is structurally 0) and flaky on loaded interactive machines, so the test
// only runs when RALIN_MULTICORE_BENCH=1 — the CI multicore job sets it.
// Timings are best-of-5 to shave scheduler noise.
func TestWorkStealingMulticoreSpeedup(t *testing.T) {
	if os.Getenv("RALIN_MULTICORE_BENCH") == "" {
		t.Skip("set RALIN_MULTICORE_BENCH=1 to run the wall-clock scaling assertion")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs at least 2 CPUs")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	// k=10 scales the flagship refutation up (~10x the k=7 benchmark
	// history, low-single-digit milliseconds sequential) so each worker
	// holds a subtree worth stealing and scheduling noise is small relative
	// to the measured work. The incs carry distinct arguments, so they are
	// not twins and the search still visits every subset of them.
	h := distinctIncsHistory(10, 99)
	measure := func(par int) (time.Duration, core.EngineOutcome) {
		var best time.Duration
		var out core.EngineOutcome
		for i := 0; i < 5; i++ {
			start := time.Now()
			o := Run(h, spec.Counter{}, false, core.CheckOptions{Parallelism: par})
			d := time.Since(start)
			if o.OK || !o.Complete {
				t.Fatalf("parallelism=%d: history must be refuted definitively: %+v", par, o)
			}
			if best == 0 || d < best {
				best, out = d, o
			}
		}
		return best, out
	}
	seqT, seqOut := measure(1)
	parT, parOut := measure(workers)
	if parOut.Steals == 0 {
		t.Fatalf("a %d-worker refutation must steal donated branches: %+v", workers, parOut)
	}
	// 10% tolerance: "not slower than sequential" should not hard-fail CI on
	// a noisy shared runner's scheduling jitter.
	if parT > seqT+seqT/10 {
		t.Fatalf("parallel refutation slower than sequential: %v with %d workers vs %v sequential (nodes %d vs %d)",
			parT, workers, seqT, parOut.Nodes, seqOut.Nodes)
	}
	t.Logf("sequential %v (%d nodes); %d workers %v (%d nodes, %d steals): %.2fx",
		seqT, seqOut.Nodes, workers, parT, parOut.Nodes, parOut.Steals,
		float64(seqT)/float64(parT))
}
