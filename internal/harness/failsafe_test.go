package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
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
// per step, so a deadline reliably lands mid-search. Its slice field makes
// it non-comparable, so no transition table replays a step in its place and
// every step pays the delay.
type slowSpec struct {
	inner   spec.Counter
	noTable []int
}

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
// sequentially — for whole checks and for the op-by-op monitor, whose panic
// comes out of the certificate replay's justification of the read.
func TestBatchPanicIsolation(t *testing.T) {
	const trials = 6
	gen := GeneratorFunc(func(trial int) (*core.History, int64, error) {
		if trial == 2 {
			return incsHistory(5, panicRet), int64(trial), nil
		}
		return incsHistory(5, 5), int64(trial), nil
	})
	opts := core.CheckOptions{Exhaustive: true}
	entries := []struct {
		name string
		run  func(string, core.Spec, core.CheckOptions, HistoryGenerator, int, Options) (HistoryCheck, error)
	}{
		{"CheckGeneratedAgainst", CheckGeneratedAgainst},
		{"MonitorGenerated", MonitorGenerated},
	}
	for _, e := range entries {
		for _, workers := range []int{1, 4} {
			res, err := e.run("panic-batch", trialPanicSpec{}, opts, gen, trials, Options{BatchWorkers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: a panicking trial must not fail the batch: %v", e.name, workers, err)
			}
			if res.Histories != trials || res.Linearizable != trials-1 || res.Invalid != 0 {
				t.Fatalf("%s workers=%d: other trials' verdicts must be unchanged: %+v", e.name, workers, res)
			}
			if res.Unknown != 1 || res.UnknownByReason[string(core.ReasonPanic)] != 1 {
				t.Fatalf("%s workers=%d: the panicking trial must report Unknown/panic: %+v", e.name, workers, res)
			}
			if !strings.Contains(res.UnknownExample, "injected failure") {
				t.Fatalf("%s workers=%d: panic message must surface in the example: %q", e.name, workers, res.UnknownExample)
			}
		}
	}
}

// TestBatchGeneratorErrorStopsDispatch checks stop-on-first-error at both
// pool widths: once trial failAt's generator errors, no worker claims another
// trial, yet every trial below it has run, so the batch returns exactly that
// trial's error over the same folded prefix at 1 and 4 workers (up to the
// pool-geometry counters normalizeBatch strips). Trials past
// the failing one wait for it and then sleep, so the failure is recorded long
// before the later trials could run out.
func TestBatchGeneratorErrorStopsDispatch(t *testing.T) {
	const trials, failAt = 200, 20
	errGen := errors.New("injected generator failure")
	type outcome struct {
		res HistoryCheck
		err string
	}
	var outcomes []outcome
	for _, workers := range []int{1, 4} {
		var generated [trials]atomic.Bool
		failing := make(chan struct{})
		gen := GeneratorFunc(func(trial int) (*core.History, int64, error) {
			generated[trial].Store(true)
			switch {
			case trial == failAt:
				close(failing)
				return nil, int64(trial), fmt.Errorf("trial %d: %w", trial, errGen)
			case trial > failAt:
				<-failing
				time.Sleep(time.Millisecond)
			}
			return incsHistory(3, 3), int64(trial), nil
		})
		res, err := CheckGeneratedAgainst("failing-generator", spec.Counter{}, core.CheckOptions{Exhaustive: true}, gen, trials, Options{BatchWorkers: workers})
		if !errors.Is(err, errGen) || !strings.HasPrefix(err.Error(), fmt.Sprintf("trial %d:", failAt)) {
			t.Fatalf("workers=%d: want trial %d's generator error, got %v", workers, failAt, err)
		}
		n := 0
		for i := range generated {
			if generated[i].Load() {
				n++
			} else if i < failAt {
				t.Fatalf("workers=%d: trial %d below the failing trial was never generated", workers, i)
			}
		}
		if n >= trials {
			t.Fatalf("workers=%d: all %d trials were generated; the failure must stop dispatch", workers, n)
		}
		if workers == 1 && n != failAt+1 {
			t.Fatalf("workers=1: %d trials generated, want exactly %d", n, failAt+1)
		}
		if res.Histories != failAt || res.Linearizable != failAt {
			t.Fatalf("workers=%d: the fold must cover exactly the %d trials below the failure: %+v", workers, failAt, res)
		}
		outcomes = append(outcomes, outcome{normalizeBatch(res), err.Error()})
	}
	if !reflect.DeepEqual(outcomes[0], outcomes[1]) {
		t.Fatalf("result depends on pool width:\n  w1: %+v\n  w4: %+v", outcomes[0], outcomes[1])
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
