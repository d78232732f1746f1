package core

import (
	"context"
	"errors"
	"fmt"
)

// Strategy selects a constructive linearization to try before (or instead of)
// the exhaustive search over linear extensions.
type Strategy int

const (
	// StrategyExecutionOrder builds the execution-order linearization
	// (Section 4.1): labels ordered as their generators executed.
	StrategyExecutionOrder Strategy = iota
	// StrategyTimestampOrder builds the timestamp-order linearization
	// (Section 4.2): labels ordered by their (virtual) timestamps.
	StrategyTimestampOrder
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyExecutionOrder:
		return "execution-order"
	case StrategyTimestampOrder:
		return "timestamp-order"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Engine selects the algorithm used by the exhaustive phase of the checker.
type Engine int

const (
	// EnginePruned, the zero value, selects the incremental pruned DFS over
	// linear extensions. It falls back to the legacy enumerator when no
	// engine is registered (importing internal/search registers it).
	EnginePruned Engine = iota
	// EngineLegacy selects the generate-then-test enumerator that validates
	// every complete linear extension from scratch. Kept as the oracle for
	// differential testing of the pruned engine.
	EngineLegacy
)

// String renders the engine name.
func (e Engine) String() string {
	switch e {
	case EnginePruned:
		return "pruned"
	case EngineLegacy:
		return "legacy"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name as accepted by the cmd/ralin-* flags;
// "auto" is accepted as a synonym of "pruned".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "pruned", "auto", "":
		return EnginePruned, nil
	case "legacy", "exhaustive":
		return EngineLegacy, nil
	default:
		return EnginePruned, fmt.Errorf("unknown engine %q (want pruned or legacy)", s)
	}
}

// Guidance is ignored: the pruned engine has one search order. In RA mode it
// places an enabled query at once (query commit) and otherwise tries
// frontier labels in generator-sequence rank order.
//
// Deprecated: ignored; kept only so the separate benchmark module, which
// still sets CheckOptions.Guidance, keeps compiling. It will be deleted with
// that module's next update.
type Guidance int

const (
	// Deprecated: ignored, see Guidance.
	GuidanceRankOrder Guidance = iota
	// Deprecated: ignored, see Guidance.
	GuidanceGuided
)

// EngineSession is a handle to cross-check state owned by a search engine:
// pooled searchers with their state IDs, memo tables and scratch that one
// batch of checks (for example a harness.CheckRandomHistoriesWith run) reuses
// instead of rebuilding per history, and the γ-rewriting and last verdict of
// each history it checked. Sessions are created by the engine package
// (search.NewSession) and threaded through CheckOptions.Session or
// CheckRAWith; a nil session gives every check fresh state, which is always
// correct, just slower for batches. Implementations must be safe for
// concurrent use by multiple checks.
type EngineSession interface {
	// SessionRewrite returns the session's rewriting of h in its current
	// size under g — deriving it on a miss — and reports whether it was
	// served rather than derived. CheckRA asks it for the rewriting, so a
	// history checked several times through one session is cloned and
	// rewritten once.
	SessionRewrite(h *History, g Rewriting) (*RewrittenHistory, bool, error)
	// Extend checks h (which already contains newOps as its final labels)
	// incrementally against the session's record of h's prefix: it grows the
	// session's rewriting of h in place, replays the previous verdict's
	// witness as a certificate, and searches the grown rewriting when the
	// certificate fails. It degrades to a warm from-scratch check whenever
	// the incremental preconditions fail, so the verdict is byte-identical to
	// CheckRA either way. The returned Result is complete — Verdict and
	// Incomplete are populated.
	Extend(h *History, spec Spec, newOps []*Label, opts CheckOptions) Result
}

// CheckOptions configures the RA-linearizability checker.
type CheckOptions struct {
	// Context carries the caller's deadline and cancellation into the check.
	// When it expires or is cancelled, every layer — the constructive
	// strategies, the legacy enumerator, and the pruned engine's search —
	// stops at its next node and the Result reports VerdictUnknown with
	// ReasonDeadline or ReasonCancelled. Nil means no deadline and no
	// cancellation, at zero per-node cost.
	Context context.Context
	// Rewriting is the query-update rewriting γ to apply before checking.
	// A nil rewriting is the identity (only valid when the history has no
	// query-update labels).
	Rewriting Rewriting
	// Strategies are constructive linearizations tried first, in order.
	Strategies []Strategy
	// Exhaustive enables the fallback search over all linear extensions of
	// the visibility relation when the constructive strategies fail (or when
	// no strategy is given).
	Exhaustive bool
	// MaxExtensions caps the number of linear extensions explored by the
	// exhaustive search. Zero means no cap.
	MaxExtensions int
	// Engine selects the algorithm used for the exhaustive phase.
	Engine Engine
	// Guidance is ignored: the pruned engine has one search order.
	//
	// Deprecated: ignored; kept only so the separate benchmark module, which
	// still sets it, keeps compiling. It will be deleted with that module's
	// next update.
	Guidance Guidance
	// Parallelism is ignored: one goroutine runs each check's search, and
	// concurrency comes from checking many histories at once (see
	// harness.Options.BatchWorkers).
	//
	// Deprecated: kept only so the separate benchmark module, which still
	// sets it, keeps compiling; it will be deleted with that module's next
	// update.
	Parallelism int
	// MaxNodes caps the number of prefix nodes the pruned engine explores.
	// Zero derives a budget from MaxExtensions (3× — an unpruned prefix tree
	// has at most e·n! nodes against n! complete extensions); a negative
	// value means unlimited.
	MaxNodes int
	// DisableMemo turns off the pruned engine's memoization of visited
	// (frontier-set, spec-state) pairs.
	DisableMemo bool
	// DebugMemo makes the pruned engine store the full interned-ID tuple of
	// every memoized configuration alongside its 128-bit hash and panic if
	// two distinct tuples ever share a hash — turning the ~2⁻⁶⁴ hash-
	// compaction collision risk into a checked invariant. Costs one tuple
	// allocation per memoized node; meant for differential and soak runs,
	// not production checking.
	DebugMemo bool
	// Session optionally carries engine state shared across the checks of a
	// batch (pooled searchers, caches). Nil means fresh state per
	// check. See CheckRAWith.
	Session EngineSession
}

// DefaultCheckOptions tries both constructive strategies and then falls back
// to a bounded exhaustive search.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{
		Strategies:    []Strategy{StrategyExecutionOrder, StrategyTimestampOrder},
		Exhaustive:    true,
		MaxExtensions: 200000,
	}
}

// Stats is the one record of the work a search performed: the counters an
// engine reports in its EngineOutcome, that a Result carries for one check,
// and that a harness.HistoryCheck sums over a batch. It is embedded in all
// three, so its fields read as res.Nodes, out.Leaves and so on, and Add is the
// only place counters are combined.
type Stats struct {
	// Nodes is the number of prefix nodes explored by the pruned engine.
	Nodes int
	// Pruned is the number of subtrees the pruned engine cut off at an
	// inadmissible or unjustifiable prefix.
	Pruned int
	// MemoHits is the number of subtrees the pruned engine skipped because an
	// equivalent (frontier-set, spec-state) pair had already been claimed in
	// the check's memo table.
	MemoHits int
	// Steals is always zero: the pruned engine runs each search on one
	// goroutine.
	//
	// Deprecated: kept only so the separate benchmark module, which still
	// reads it, keeps compiling; it will be deleted with that module's next
	// update.
	Steals int
	// Leaves is the number of complete candidate sequences reached.
	Leaves int
	// Steps is the number of live Spec.StepAppend calls the pruned engine
	// made. Steps+StepHits is the number of (state, label) transitions the
	// search took, which depends only on the history and the options.
	Steps int
	// StepHits is the number of transitions the pruned engine replayed from
	// its transition table instead of stepping the spec; how many depends
	// on how warm the table was.
	StepHits int
	// JustSteps is the number of spec steps Session.Extend's certificate
	// replay took to justify new queries: the steps of each justification
	// fold, the query's own step included. Without the replay's
	// justification cache it is the sum over new queries of their visible
	// updates plus one.
	JustSteps int
}

// Add folds o into s by summing the work counters.
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	s.Pruned += o.Pruned
	s.MemoHits += o.MemoHits
	s.Leaves += o.Leaves
	s.Steps += o.Steps
	s.StepHits += o.StepHits
	s.JustSteps += o.JustSteps
}

// FoldSteps returns s with StepHits folded into Steps. How a check's
// transitions split between live steps and table replays depends on what the
// searcher's table saw before (so on batch width and session warmth); their
// sum does not, so runs that must agree compare folded Stats.
func (s Stats) FoldSteps() Stats {
	s.Steps += s.StepHits
	s.StepHits = 0
	return s
}

// Result is the outcome of an RA-linearizability check.
type Result struct {
	// Verdict is the three-valued outcome: Valid (witness found), Invalid
	// (search space exhausted, no witness) or Unknown (truncated before a
	// decision).
	Verdict Verdict
	// Incomplete explains the truncation when Verdict is VerdictUnknown, and
	// is nil otherwise.
	Incomplete *Incomplete
	// Linearization is a witness RA-linearization of the rewritten history
	// when Verdict is VerdictValid.
	Linearization []*Label
	// Rewritten is the γ-rewriting of the checked history.
	Rewritten *History
	// Strategy records which constructive strategy produced the witness
	// (nil when the witness came from the exhaustive search or none found).
	Strategy *Strategy
	// Tried is the number of candidate sequences examined.
	Tried int
	// LastErr explains why the most recent candidate was rejected.
	LastErr error
	// Engine records which engine ran the exhaustive phase. Meaningful only
	// when the exhaustive search actually ran (the constructive strategies
	// did not produce a witness).
	Engine Engine
	// Stats is the work of the exhaustive phase (zero when it did not run).
	Stats
	// PlanReused reports that the pruned engine drew this check's prepared
	// history plan (the preds/succs/affected/order index arrays) from the
	// session's searcher pool instead of allocating it. An incremental
	// extension's fallback search reports the pool the same way.
	PlanReused bool
	// RewriteCached reports that the session served the γ-rewriting from
	// its record of the history instead of re-deriving it (Rewritten then
	// aliases the recorded clone). A record serves a history only in the
	// size it covers; an incremental extension grows it along with the
	// history, so a later plain check of the grown history is served too.
	RewriteCached bool
	// MemDegraded reports that the session memory budget tripped during this
	// check and the search finished (or truncated) in memo-less degraded
	// mode. A degraded check's verdict is still sound; only Nodes and
	// wall-clock are affected.
	MemDegraded bool
	// Extended reports that this verdict was produced by the incremental
	// extension path (CheckRAExtend through a session that had already
	// checked a prefix of the history): the rewriting was grown in place
	// instead of re-derived, and the verdict came from the certificate
	// replay or a search over that grown rewriting. The verdict itself is
	// byte-identical to a from-scratch check either way.
	Extended bool
	// WitnessReplayed reports that the extension validated the previous
	// check's cached witness as a certificate — the new operations were
	// appended to the stored linearization and re-justified without any
	// search. Implies Extended.
	WitnessReplayed bool
}

// EngineOutcome is what an exhaustive engine — the registered pruned engine
// or the legacy enumerator — reports back to CheckRA and
// CheckStrongLinearizable; ApplyEngineOutcome folds it into the Result.
type EngineOutcome struct {
	// OK reports whether a witness linearization was found.
	OK bool
	// Witness is the linearization found when OK is true.
	Witness []*Label
	// Complete reports whether the search space was exhausted (or a witness
	// found); false means the search was truncated.
	Complete bool
	// LastErr describes a representative rejected prefix.
	LastErr error
	// Stats is the work the search performed.
	Stats
	// PlanReused reports that the prepared history plan came from the
	// session's searcher pool.
	PlanReused bool
	// Incomplete explains why the search truncated (deadline, cancellation,
	// node budget, memory budget, recovered panic); nil when Complete.
	Incomplete *Incomplete
	// MemDegraded reports that the session memory budget tripped and the
	// search ran (partly) in memo-less degraded mode.
	MemDegraded bool
}

// PrunedEngineFunc is the entry point of a pruned search engine. The history
// must already be rewritten (RA mode) and acyclic. strong selects the
// strong-linearizability variant used by CheckStrongLinearizable.
type PrunedEngineFunc func(h *History, spec Spec, strong bool, opts CheckOptions) EngineOutcome

// prunedEngine is installed by internal/search's init; core cannot import the
// engine package directly without creating an import cycle.
var prunedEngine PrunedEngineFunc

// RegisterPrunedEngine installs the pruned search engine used for
// EnginePruned. It is called from internal/search's init, so any
// package importing internal/search (directly or blank) activates it.
func RegisterPrunedEngine(f PrunedEngineFunc) { prunedEngine = f }

// resolveEngine maps the requested engine to the one that will actually run.
func resolveEngine(e Engine) Engine {
	if e == EngineLegacy || prunedEngine == nil {
		return EngineLegacy
	}
	return EnginePruned
}

// ResolveEngine reports which engine a CheckOptions.Engine value selects in
// this binary: EngineLegacy when requested — or when no pruned engine is
// registered — and EnginePruned otherwise. Tools use it to report the engine
// that actually runs rather than the flag value.
func ResolveEngine(e Engine) Engine { return resolveEngine(e) }

// ErrNotRALinearizable is wrapped by errors reporting a definitive negative
// verdict.
var ErrNotRALinearizable = errors.New("history is not RA-linearizable")

// notRALinearizable is an engine's refutation reason wrapped as a definitive
// negative verdict. It renders as "<ErrNotRALinearizable>: <reason>" only when
// asked, so a refutation nobody prints costs no formatting.
type notRALinearizable struct{ reason error }

func (e notRALinearizable) Error() string {
	return ErrNotRALinearizable.Error() + ": " + e.reason.Error()
}

func (e notRALinearizable) Unwrap() error { return ErrNotRALinearizable }

// IsRALinearization checks conditions (i)–(iii) of Definition 3.5 for the
// sequence seq on the (already rewritten) history h with respect to spec.
// It returns nil when seq is an RA-linearization of h.
func IsRALinearization(h *History, seq []*Label, spec Spec) error {
	// The definition applies to histories of queries and updates only.
	for _, l := range h.seq {
		if l.IsQueryUpdate() {
			return fmt.Errorf("label %v is a query-update; apply a rewriting first", l)
		}
	}
	// (i) seq is consistent with the visibility relation.
	ranks, err := h.seqRanks(seq)
	if err != nil {
		return fmt.Errorf("condition (i): %w", err)
	}
	// (ii) the projection of seq to updates is admitted by the specification.
	updates := make([]*Label, 0, len(seq))
	updateRanks := make([]int32, 0, len(seq))
	for i, l := range seq {
		if l.IsUpdate() {
			updates = append(updates, l)
			updateRanks = append(updateRanks, ranks[i])
		}
	}
	if _, i := Fold(spec, updates); i >= 0 {
		return fmt.Errorf("condition (ii): update projection rejected by %s at %v",
			spec.Name(), updates[i])
	}
	// (iii) each query is justified by the visible updates in sequence order:
	// one predecessor-row probe per update, into one reused buffer.
	justification := make([]*Label, 0, len(updates)+1)
	for i, q := range seq {
		if !q.IsQuery() {
			continue
		}
		visibleTo := h.pred[ranks[i]]
		justification = justification[:0]
		for j, u := range updates {
			if visibleTo.test(int(updateRanks[j])) {
				justification = append(justification, u)
			}
		}
		justification = append(justification, q)
		if !Admits(spec, justification) {
			return fmt.Errorf("condition (iii): query %v not justified by its visible updates %s",
				q, FormatLabels(justification[:len(justification)-1]))
		}
	}
	return nil
}

// RewriteForCheck derives the γ-rewriting of h exactly the way CheckRA with
// the same options would — through opts.Session's SessionRewrite when there
// is a session, by RewriteHistory otherwise — and reports whether the
// session served it.
func RewriteForCheck(h *History, opts CheckOptions) (*RewrittenHistory, bool, error) {
	if opts.Session != nil {
		return opts.Session.SessionRewrite(h, opts.Rewriting)
	}
	rew, err := RewriteHistory(h, opts.Rewriting)
	return rew, false, err
}

// CheckRA checks whether the history h is RA-linearizable with respect to
// spec (Definition 3.7): it applies the query-update rewriting, tries the
// configured constructive strategies, and optionally searches all linear
// extensions of the visibility relation.
func CheckRA(h *History, spec Spec, opts CheckOptions) Result {
	if inc := ContextIncomplete(opts.Context); inc != nil {
		return Result{Incomplete: inc}
	}
	rew, cached, err := RewriteForCheck(h, opts)
	if err != nil {
		return Result{Verdict: VerdictInvalid, LastErr: err}
	}
	res := CheckRewritten(rew, spec, opts)
	res.RewriteCached = cached
	return res
}

// CheckRewritten is CheckRA after the rewriting: it checks the rewritten
// history rew against spec — acyclicity, the constructive strategies, then
// the exhaustive search. An engine session that already holds the rewriting
// of a history checks exactly that rewriting through it.
func CheckRewritten(rew *RewrittenHistory, spec Spec, opts CheckOptions) Result {
	res := Result{Rewritten: rew.History}
	if !rew.History.IsAcyclic() {
		res.LastErr = fmt.Errorf("%w: visibility relation is cyclic", ErrNotRALinearizable)
		res.Verdict = VerdictInvalid
		return res
	}

	for _, s := range opts.Strategies {
		if inc := ContextIncomplete(opts.Context); inc != nil {
			res.Incomplete = inc
			return res
		}
		var seq []*Label
		switch s {
		case StrategyExecutionOrder:
			seq = ExecutionOrderLinearization(rew.History)
		case StrategyTimestampOrder:
			seq = TimestampOrderLinearization(rew.History)
		default:
			continue
		}
		res.Tried++
		if err := IsRALinearization(rew.History, seq, spec); err == nil {
			strategy := s
			res.Verdict = VerdictValid
			res.Linearization = seq
			res.Strategy = &strategy
			return res
		} else {
			res.LastErr = err
		}
	}

	if !opts.Exhaustive {
		res.Incomplete = &Incomplete{
			Reason: ReasonNoSearch,
			Detail: "constructive strategies found no witness and the exhaustive search is disabled",
		}
		return res
	}

	res.Engine = resolveEngine(opts.Engine)
	var out EngineOutcome
	if res.Engine == EnginePruned {
		out = prunedEngine(rew.History, spec, false, opts)
	} else {
		out = enumerate(rew.History, opts, func(seq []*Label) error {
			return IsRALinearization(rew.History, seq, spec)
		})
	}
	ApplyEngineOutcome(&res, out, false)
	return res
}

// enumerate is the legacy engine: it generates the linear extensions of h's
// visibility relation (at most opts.MaxExtensions of them) and runs check on
// each complete candidate until one is accepted. Leaves counts the candidates
// checked and LastErr keeps the latest rejection.
func enumerate(h *History, opts CheckOptions, check func(seq []*Label) error) EngineOutcome {
	var out EngineOutcome
	_, truncated := LinearExtensions(h, opts.MaxExtensions, func(seq []*Label) bool {
		if out.Incomplete = ContextIncomplete(opts.Context); out.Incomplete != nil {
			return false
		}
		out.Leaves++
		if err := check(seq); err != nil {
			out.LastErr = err
			return true
		}
		out.OK = true
		out.Witness = seq
		return false
	})
	switch {
	case out.Incomplete != nil:
		// A deadline or cancellation stopped the enumeration.
	case truncated && !out.OK:
		out.Incomplete = &Incomplete{
			Reason: ReasonNodeBudget,
			Detail: fmt.Sprintf("legacy enumeration truncated at MaxExtensions=%d", opts.MaxExtensions),
		}
	default:
		out.Complete = true
	}
	return out
}

// CheckRAExtend is the incremental entry point of the checker: h grew by
// newOps (already appended — they are h's final labels) since the session in
// opts.Session last checked it. With a session and the pruned engine, the
// check grows the session's rewriting of h, reuses the previous verdict as a
// certificate and costs ~the marginal work of the new operations; the grown
// rewriting then also serves later plain checks of h through the session.
// When the certificate fails it runs the ordinary pruned search over the
// grown rewriting. Without a session, or under the legacy engine, it is a
// plain CheckRA. Verdicts are byte-identical to CheckRA on the full history
// in every case — only Result.Extended/WitnessReplayed and the engine
// statistics differ.
func CheckRAExtend(h *History, spec Spec, newOps []*Label, opts CheckOptions) Result {
	if opts.Session != nil && resolveEngine(opts.Engine) == EnginePruned {
		return opts.Session.Extend(h, spec, newOps, opts)
	}
	return CheckRA(h, spec, opts)
}

// CheckRAWith is CheckRA with an explicit engine session: the check reuses
// the session's pooled searchers — state IDs, transition tables and scratch —
// instead of rebuilding them, which amortizes warm-up across the histories of
// a batch.
// A nil session is the same as CheckRA. The session must outlive the call and
// may be shared by concurrent checks.
func CheckRAWith(h *History, spec Spec, opts CheckOptions, session EngineSession) Result {
	opts.Session = session
	return CheckRA(h, spec, opts)
}

// ApplyEngineOutcome is the one place an exhaustive engine's outcome becomes
// a check's Result: it adds the engine's leaves to Tried, takes its Stats and
// session flags, and sets the Verdict — Valid with the witness, Invalid, or
// Unknown with a populated Incomplete. In RA mode (strong false) an Invalid
// verdict's LastErr wraps ErrNotRALinearizable.
func ApplyEngineOutcome(res *Result, out EngineOutcome, strong bool) {
	res.Tried += out.Leaves
	res.Stats = out.Stats
	res.PlanReused = out.PlanReused
	res.MemDegraded = out.MemDegraded
	if out.LastErr != nil {
		res.LastErr = out.LastErr
	}
	switch {
	case out.OK:
		res.Verdict = VerdictValid
		res.Linearization = out.Witness
	case out.Complete:
		res.Verdict = VerdictInvalid
		if !strong && res.LastErr != nil {
			res.LastErr = notRALinearizable{res.LastErr}
		}
	default:
		res.Verdict = VerdictUnknown
		res.Incomplete = out.Incomplete
		if res.Incomplete == nil {
			res.Incomplete = &Incomplete{Reason: ReasonNodeBudget, Detail: "exhaustive search truncated"}
		}
	}
}

// CheckStrongLinearizable checks a stricter criterion used for the Figure 5a
// separation: no query-update rewriting is applied, and every query must be
// justified by the full prefix of updates preceding it in the linearization
// (not only the visible ones). This corresponds to the "standard definition
// of linearizability ... assuming a standard Set specification" discussed in
// Section 2.2, adapted to visibility-based histories. Only the Context,
// Engine, MaxExtensions, MaxNodes, DisableMemo and DebugMemo options are
// consulted; strategies and rewritings do not apply. The pruned engine's
// query-commit reduction is off in strong mode (a strong-mode query is judged
// against the full preceding prefix, so its justification is not final at
// enablement).
func CheckStrongLinearizable(h *History, spec Spec, opts CheckOptions) Result {
	res := Result{Rewritten: h}
	if inc := ContextIncomplete(opts.Context); inc != nil {
		res.Incomplete = inc
		return res
	}
	if !h.IsAcyclic() {
		res.Verdict = VerdictInvalid
		res.LastErr = fmt.Errorf("visibility relation is cyclic")
		return res
	}
	res.Engine = resolveEngine(opts.Engine)
	var out EngineOutcome
	if res.Engine == EnginePruned {
		out = prunedEngine(h, spec, true, opts)
	} else {
		out = enumerate(h, opts, func(seq []*Label) error {
			// The whole sequence, with query-updates treated as updates and
			// queries evaluated against the full preceding prefix, must be
			// admitted by the specification.
			var prefixUpdates []*Label
			for _, l := range seq {
				if l.IsQuery() {
					justification := append(append([]*Label(nil), prefixUpdates...), l)
					if !Admits(spec, justification) {
						return fmt.Errorf("query %v not justified by the preceding updates", l)
					}
					continue
				}
				prefixUpdates = append(prefixUpdates, l)
				if !Admits(spec, prefixUpdates) {
					return fmt.Errorf("update prefix rejected at %v", l)
				}
			}
			return nil
		})
	}
	ApplyEngineOutcome(&res, out, true)
	return res
}
