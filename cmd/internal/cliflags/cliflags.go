// Package cliflags factors the flag wiring shared by the cmd/ralin-* tools:
// the checker/batch flags (-engine, -batch-workers) and resource limits
// (-timeout, -max-interned, -max-memo-mb) that resolve to a harness.Options
// value, the -seed and -incremental flags, and the scenario selection flags
// (-scenario, -list-scenarios) backed by the internal/scenario library.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"time"

	"ralin/internal/core"
	"ralin/internal/harness"
	"ralin/internal/scenario"
	"ralin/internal/search"
)

// Common holds the checker/batch flags shared by every tool.
type Common struct {
	engine       *string
	batchWorkers *int
	timeout      *time.Duration
	maxInterned  *int
	maxMemoMB    *int
}

// AddCommon registers -engine, -batch-workers and the resource limit flags
// (-timeout, -max-interned, -max-memo-mb) on the flag set.
func AddCommon(fs *flag.FlagSet) *Common {
	return &Common{
		engine:       fs.String("engine", "pruned", "exhaustive-search engine: pruned or legacy (auto = pruned)"),
		batchWorkers: fs.Int("batch-workers", 0, "goroutines checking histories of one batch concurrently over a shared engine session (0 = GOMAXPROCS, 1 = sequential)"),
		timeout:      fs.Duration("timeout", 0, "wall-clock budget for the whole run; trials past the deadline report verdict unknown instead of hanging (0 = none)"),
		maxInterned:  fs.Int("max-interned", 0, "memory budget: max state IDs the session's searchers hold together (a state reached by two searchers counts twice) before searches degrade to memo-less mode (0 = unlimited)"),
		maxMemoMB:    fs.Int("max-memo-mb", 0, "memory budget: approximate MiB of live memoization entries per session before searches degrade to memo-less mode (0 = unlimited)"),
	}
}

// AddIncremental registers -incremental on the flag set of the tools that
// honour it (ralin-check, ralin-scenario): when given, histories are replayed
// op-by-op through harness.MonitorGenerated instead of batch-checked whole.
func AddIncremental(fs *flag.FlagSet) *bool {
	return fs.Bool("incremental", false, "replay each history op-by-op through the incremental checker (Session.Extend): every prefix is re-verified in ~marginal time, same final verdicts as the batch check")
}

// Options resolves the parsed flags into a harness.Options value.
func (c *Common) Options() (harness.Options, error) {
	eng, err := core.ParseEngine(*c.engine)
	if err != nil {
		return harness.Options{}, err
	}
	return harness.Options{
		Engine:       eng,
		BatchWorkers: *c.batchWorkers,
		Timeout:      *c.timeout,
		Budget: search.Budget{
			MaxInternedStates: *c.maxInterned,
			MaxMemoBytes:      int64(*c.maxMemoMB) << 20,
		},
	}, nil
}

// ExitCodesDoc is the exit-code contract of the verdict-aware checking tools
// (ralin-check, ralin-scenario), appended to their -h output so CI scripts
// can gate on verdicts.
const ExitCodesDoc = `
exit codes:
  0  every history valid (or, under -scenario, refutations were expected)
  1  at least one definitively invalid history (unexpected refutation)
  2  at least one unknown verdict (deadline, memory/node budget, cancellation
     or recovered panic truncated the check; also used by flag-usage errors)
  3  operational error (bad arguments, generator failure, I/O)

The three-valued verdict contract behind these codes (Valid/Invalid/Unknown
and every Incomplete reason) is documented in docs/VERDICTS.md.
`

// DocumentExitCodes appends ExitCodesDoc to the flag set's usage output.
func DocumentExitCodes(fs *flag.FlagSet) {
	prev := fs.Usage
	fs.Usage = func() {
		if prev != nil {
			prev()
		} else {
			fmt.Fprintf(fs.Output(), "Usage of %s:\n", fs.Name())
			fs.PrintDefaults()
		}
		fmt.Fprint(fs.Output(), ExitCodesDoc)
	}
}

// VerdictExitCode maps a batch result to the documented exit code:
// Invalid (1) dominates Unknown (2) dominates Valid (0); expectRefutations
// (the naive-specification scenario modes) makes Invalid the expected finding
// rather than a failure. Operational errors (exit 3) are the caller's to
// report — they never reach a HistoryCheck.
func VerdictExitCode(res harness.HistoryCheck, expectRefutations bool) int {
	if res.Invalid > 0 && !expectRefutations {
		return 1
	}
	if res.Unknown > 0 {
		return 2
	}
	return 0
}

// AddSeed registers the -seed flag.
func AddSeed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "workload seed")
}

// Scenario holds the scenario-selection flags.
type Scenario struct {
	name *string
	list *bool
}

// AddScenario registers -scenario and -list-scenarios on the flag set.
func AddScenario(fs *flag.FlagSet) *Scenario {
	return &Scenario{
		name: fs.String("scenario", "", "fault-schedule scenario to generate histories from (see -list-scenarios)"),
		list: fs.Bool("list-scenarios", false, "list the named fault-schedule scenarios and exit"),
	}
}

// Name returns the selected scenario name ("" for none).
func (s *Scenario) Name() string { return *s.name }

// HandleList prints the scenario library when -list-scenarios was given and
// reports whether it did (the caller should then exit).
func (s *Scenario) HandleList(w io.Writer) bool {
	if !*s.list {
		return false
	}
	ListScenarios(w)
	return true
}

// ListScenarios prints the scenario library, one line per scenario.
func ListScenarios(w io.Writer) {
	for _, sc := range scenario.All() {
		fmt.Fprintf(w, "%-20s %s (%s, %s mode)\n", sc.Name, sc.Description, sc.CRDT, sc.Mode)
	}
}
