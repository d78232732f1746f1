package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"ralin/internal/core"
	"ralin/internal/spec"
)

// panicRet is the sentinel read() return value that makes trialPanicSpec blow
// up, so exactly the trials whose history carries it crash mid-search.
const panicRet = int64(-777)

// trialPanicSpec delegates to the counter specification but panics when asked
// to step a read returning panicRet.
type trialPanicSpec struct{ inner spec.Counter }

func (p trialPanicSpec) Name() string        { return "Spec(trial-panic)" }
func (p trialPanicSpec) Init() core.AbsState { return p.inner.Init() }
func (p trialPanicSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	if l.Kind == core.KindQuery {
		if ret, ok := l.Ret.(int64); ok && ret == panicRet {
			panic("trialPanicSpec: injected failure")
		}
	}
	return p.inner.StepAppend(dst, phi, l)
}

// slowSpec delegates to the counter specification with an artificial delay
// per step, so a deadline reliably lands mid-search.
type slowSpec struct{ inner spec.Counter }

func (p slowSpec) Name() string        { return "Spec(slow)" }
func (p slowSpec) Init() core.AbsState { return p.inner.Init() }
func (p slowSpec) StepAppend(dst []core.AbsState, phi core.AbsState, l *core.Label) []core.AbsState {
	time.Sleep(200 * time.Microsecond)
	return p.inner.StepAppend(dst, phi, l)
}

// TestBatchPanicIsolation checks the batch-level panic contract (run under
// the race detector in CI): one panicking trial becomes one Unknown outcome
// with the panic reason, every other trial of the batch keeps its verdict,
// and the result is identical whether the batch ran concurrently or
// sequentially.
func TestBatchPanicIsolation(t *testing.T) {
	const trials = 6
	gen := GeneratorFunc(func(trial int) (*core.History, int64, error) {
		if trial == 2 {
			return incsHistory(5, panicRet), int64(trial), nil
		}
		return incsHistory(5, 5), int64(trial), nil
	})
	opts := core.CheckOptions{Exhaustive: true}
	for _, workers := range []int{1, 4} {
		res, err := CheckGeneratedAgainst("panic-batch", trialPanicSpec{}, opts, gen, trials, Options{BatchWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: a panicking trial must not fail the batch: %v", workers, err)
		}
		if res.Histories != trials || res.Linearizable != trials-1 || res.Invalid != 0 {
			t.Fatalf("workers=%d: other trials' verdicts must be unchanged: %+v", workers, res)
		}
		if res.Unknown != 1 || res.UnknownByReason[string(core.ReasonPanic)] != 1 {
			t.Fatalf("workers=%d: the panicking trial must report Unknown/panic: %+v", workers, res)
		}
		if !strings.Contains(res.UnknownExample, "injected failure") {
			t.Fatalf("workers=%d: panic message must surface in the example: %q", workers, res.UnknownExample)
		}
	}
}

// TestBatchPreCancelledContextReturnsImmediately checks the cancellation
// acceptance bound: a batch whose context is already dead dispatches nothing,
// marks every trial Unknown/cancelled, and returns well within 100ms.
func TestBatchPreCancelledContextReturnsImmediately(t *testing.T) {
	const trials = 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen := GeneratorFunc(func(trial int) (*core.History, int64, error) {
		return incsHistory(6, 6), int64(trial), nil
	})
	start := time.Now()
	res, err := CheckGeneratedAgainst("cancelled-batch", spec.Counter{}, core.CheckOptions{Exhaustive: true}, gen, trials, Options{BatchWorkers: 4, Context: ctx})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancellation is a verdict, not an error: %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled batch took %v, want <100ms", elapsed)
	}
	if res.Unknown != trials || res.UnknownByReason[string(core.ReasonCancelled)] != trials {
		t.Fatalf("every trial of a cancelled batch must be Unknown/cancelled: %+v", res)
	}
	if res.Linearizable != 0 || res.Invalid != 0 {
		t.Fatalf("cancelled batch must not claim verdicts: %+v", res)
	}
}

// TestBatchDeadlineInterruptsSlowTrials drives a deadline into the middle of
// a slow batch: the run returns promptly after expiry and the truncated
// trials report Unknown with a deadline (or cancellation) reason.
func TestBatchDeadlineInterruptsSlowTrials(t *testing.T) {
	const trials = 4
	gen := GeneratorFunc(func(trial int) (*core.History, int64, error) {
		return incsHistory(8, 99), int64(trial), nil
	})
	start := time.Now()
	res, err := CheckGeneratedAgainst("slow-batch", slowSpec{}, core.CheckOptions{Exhaustive: true}, gen, trials, Options{BatchWorkers: 2, Timeout: 10 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline expiry is a verdict, not an error: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded batch took %v, want prompt return after the 10ms deadline", elapsed)
	}
	if res.Unknown == 0 {
		t.Fatalf("10ms deadline over a deliberately slow search must truncate at least one trial: %+v", res)
	}
	for reason, n := range res.UnknownByReason {
		if reason != string(core.ReasonDeadline) && reason != string(core.ReasonCancelled) {
			t.Fatalf("unexpected unknown reason %q (x%d): %+v", reason, n, res)
		}
	}
	if res.Unknown+res.Linearizable+res.Invalid != res.Histories {
		t.Fatalf("verdict counts must partition the batch: %+v", res)
	}
}
