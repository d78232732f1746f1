package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"ralin/internal/clock"
	"ralin/internal/core"
)

// Entry is one corpus file under testdata/corpus/: a scenario-generated
// history (already reinterpreted by its mode's transform, so replay checks it
// directly), the scenario provenance, and the verdict recorded at harvest
// time. The regression suite replays every entry and asserts the verdict is
// stable; the engine differential test asserts the pruned and legacy engines
// agree on it.
type Entry struct {
	// Scenario is the generating scenario's name.
	Scenario string `json:"scenario"`
	// CRDT is the registry name of the data type.
	CRDT string `json:"crdt"`
	// Mode is the check mode the history was harvested under.
	Mode string `json:"mode"`
	// Spec names the specification the verdict is against.
	Spec string `json:"spec"`
	// Seed is the scenario seed that produced the history.
	Seed int64 `json:"seed"`
	// RALinearizable is the verdict (pruned engine, sequential search).
	RALinearizable bool `json:"ra_linearizable"`
	// Nodes is the pruned engine's sequential search-node count at harvest
	// time — informational, a measure of how hard the entry is.
	Nodes int `json:"nodes"`
	// Labels are the history's labels in insertion order.
	Labels []corpusLabel `json:"labels"`
	// Vis is the generating edge set of the visibility relation
	// (History.DirectVisEdges), as [from, to] identifier pairs.
	Vis [][2]uint64 `json:"vis"`
}

type corpusLabel struct {
	ID        uint64        `json:"id"`
	Object    string        `json:"object,omitempty"`
	Method    string        `json:"method"`
	Args      []corpusValue `json:"args,omitempty"`
	Ret       *corpusValue  `json:"ret,omitempty"`
	TSTime    uint64        `json:"ts_time,omitempty"`
	TSReplica int           `json:"ts_replica,omitempty"`
	Kind      string        `json:"kind"`
	Origin    int           `json:"origin"`
	GenSeq    uint64        `json:"gen_seq"`
}

// corpusValue is a tagged encoding of the core.Value types that appear on
// labels: "nil", "string", "int", "int64", "uint64", "bool", "strings" (a
// string slice), "pair"/"pairs" (core.Pair), and "vv" (clock.VersionVector).
// Unknown dynamic types are a loud error, not a silent null — the harvest
// skips histories it cannot encode faithfully.
type corpusValue struct {
	T  string            `json:"t"`
	S  string            `json:"s,omitempty"`
	I  int64             `json:"i,omitempty"`
	U  uint64            `json:"u,omitempty"`
	B  bool              `json:"b,omitempty"`
	SS []string          `json:"ss,omitempty"`
	PS []corpusPair      `json:"ps,omitempty"`
	VV map[string]uint64 `json:"vv,omitempty"`
}

type corpusPair struct {
	Elem string `json:"elem"`
	ID   uint64 `json:"id"`
}

func encodeValue(v core.Value) (corpusValue, error) {
	switch x := v.(type) {
	case nil:
		return corpusValue{T: "nil"}, nil
	case string:
		return corpusValue{T: "string", S: x}, nil
	case int:
		return corpusValue{T: "int", I: int64(x)}, nil
	case int64:
		return corpusValue{T: "int64", I: x}, nil
	case uint64:
		return corpusValue{T: "uint64", U: x}, nil
	case bool:
		return corpusValue{T: "bool", B: x}, nil
	case []string:
		ss := x
		if ss == nil {
			ss = []string{}
		}
		return corpusValue{T: "strings", SS: ss}, nil
	case core.Pair:
		return corpusValue{T: "pair", S: x.Elem, U: x.ID}, nil
	case []core.Pair:
		ps := make([]corpusPair, len(x))
		for i, p := range x {
			ps[i] = corpusPair{Elem: p.Elem, ID: p.ID}
		}
		return corpusValue{T: "pairs", PS: ps}, nil
	case clock.VersionVector:
		vv := make(map[string]uint64, len(x))
		for r, n := range x {
			vv[strconv.Itoa(int(r))] = n
		}
		return corpusValue{T: "vv", VV: vv}, nil
	default:
		return corpusValue{}, fmt.Errorf("corpus: unencodable value type %T", v)
	}
}

func decodeValue(cv corpusValue) (core.Value, error) {
	switch cv.T {
	case "nil":
		return nil, nil
	case "string":
		return cv.S, nil
	case "int":
		return int(cv.I), nil
	case "int64":
		return cv.I, nil
	case "uint64":
		return cv.U, nil
	case "bool":
		return cv.B, nil
	case "strings":
		if cv.SS == nil {
			return []string{}, nil
		}
		return cv.SS, nil
	case "pair":
		return core.Pair{Elem: cv.S, ID: cv.U}, nil
	case "pairs":
		ps := make([]core.Pair, len(cv.PS))
		for i, p := range cv.PS {
			ps[i] = core.Pair{Elem: p.Elem, ID: p.ID}
		}
		return ps, nil
	case "vv":
		vv := make(clock.VersionVector, len(cv.VV))
		for r, n := range cv.VV {
			ri, err := strconv.Atoi(r)
			if err != nil {
				return nil, fmt.Errorf("corpus: bad version vector replica %q", r)
			}
			vv[clock.ReplicaID(ri)] = n
		}
		return vv, nil
	default:
		return nil, fmt.Errorf("corpus: unknown value tag %q", cv.T)
	}
}

func encodeKind(k core.Kind) string {
	switch k {
	case core.KindQuery:
		return "query"
	case core.KindUpdate:
		return "update"
	case core.KindQueryUpdate:
		return "query-update"
	default:
		return "unknown"
	}
}

func decodeKind(s string) (core.Kind, error) {
	switch s {
	case "query":
		return core.KindQuery, nil
	case "update":
		return core.KindUpdate, nil
	case "query-update":
		return core.KindQueryUpdate, nil
	default:
		return 0, fmt.Errorf("corpus: unknown label kind %q", s)
	}
}

// EncodeHistory serializes a history into corpus form: labels in insertion
// order plus the generating visibility edges.
func EncodeHistory(h *core.History) ([]corpusLabel, [][2]uint64, error) {
	var labels []corpusLabel
	for _, l := range h.Labels() {
		cl := corpusLabel{
			ID:        l.ID,
			Object:    l.Object,
			Method:    l.Method,
			TSTime:    l.TS.Time,
			TSReplica: int(l.TS.Replica),
			Kind:      encodeKind(l.Kind),
			Origin:    int(l.Origin),
			GenSeq:    l.GenSeq,
		}
		for _, a := range l.Args {
			cv, err := encodeValue(a)
			if err != nil {
				return nil, nil, fmt.Errorf("label %d arg: %w", l.ID, err)
			}
			cl.Args = append(cl.Args, cv)
		}
		if l.Ret != nil {
			cv, err := encodeValue(l.Ret)
			if err != nil {
				return nil, nil, fmt.Errorf("label %d ret: %w", l.ID, err)
			}
			cl.Ret = &cv
		}
		labels = append(labels, cl)
	}
	vis := [][2]uint64{}
	h.DirectVisEdges(func(from, to uint64) {
		vis = append(vis, [2]uint64{from, to})
	})
	return labels, vis, nil
}

// History reconstructs the entry's history.
func (e Entry) History() (*core.History, error) {
	h := core.NewHistory()
	for _, cl := range e.Labels {
		kind, err := decodeKind(cl.Kind)
		if err != nil {
			return nil, err
		}
		l := &core.Label{
			ID:     cl.ID,
			Object: cl.Object,
			Method: cl.Method,
			TS:     clock.Timestamp{Time: cl.TSTime, Replica: clock.ReplicaID(cl.TSReplica)},
			Kind:   kind,
			Origin: clock.ReplicaID(cl.Origin),
			GenSeq: cl.GenSeq,
		}
		for _, cv := range cl.Args {
			v, err := decodeValue(cv)
			if err != nil {
				return nil, fmt.Errorf("label %d arg: %w", cl.ID, err)
			}
			l.Args = append(l.Args, v)
		}
		if cl.Ret != nil {
			v, err := decodeValue(*cl.Ret)
			if err != nil {
				return nil, fmt.Errorf("label %d ret: %w", cl.ID, err)
			}
			l.Ret = v
		}
		if err := h.Add(l); err != nil {
			return nil, err
		}
	}
	for _, edge := range e.Vis {
		if err := h.AddVis(edge[0], edge[1]); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Plan resolves the checker plan for replaying the entry. The stored history
// is already reinterpreted, so replay must use the plan's Spec and Options
// but NOT its Transform.
func (e Entry) Plan() (CheckPlan, error) { return planFor(e.CRDT, Mode(e.Mode)) }

// WriteEntry writes one corpus entry as indented JSON.
func WriteEntry(path string, e Entry) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadEntry reads one corpus entry.
func ReadEntry(path string) (Entry, error) {
	var e Entry
	data, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// LoadCorpus reads every *.json entry in dir, sorted by file name. A missing
// directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Entry, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	var entries []Entry
	for _, p := range paths {
		e, err := ReadEntry(p)
		if err != nil {
			return nil, nil, err
		}
		entries = append(entries, e)
	}
	return entries, paths, nil
}

// Harvest runs trials seeds of the scenario, checks every history under the
// scenario's plan (pruned engine, sequential search, so node counts are
// deterministic), and returns the keep most interesting entries: refutations
// first, then the highest node counts, ties broken by seed. Entries are
// filtered to those the legacy engine decides identically within a bounded
// enumeration budget — a corpus entry that only the pruned engine can finish
// would make the engine differential test unaffordable — and to histories the
// corpus codec can encode faithfully; nothing is dropped silently, the counts
// are reported in the returned summary.
func Harvest(sc Scenario, baseSeed int64, trials, keep int) ([]Entry, string, error) {
	if trials < 0 {
		return nil, "", fmt.Errorf("%s: negative trial count %d", sc.Name, trials)
	}
	plan, err := sc.Plan()
	if err != nil {
		return nil, "", err
	}
	prunedOpts := plan.Options
	prunedOpts.Engine = core.EnginePruned
	// Score hardness by the exhaustive search even for strategy-first modes:
	// a constructive witness reports zero nodes, which would make every
	// candidate look equally easy.
	prunedOpts.Strategies = nil
	legacyOpts := plan.Options
	legacyOpts.Engine = core.EngineLegacy
	legacyOpts.Strategies = nil
	legacyOpts.Exhaustive = true
	legacyOpts.MaxExtensions = 500000

	var candidates []Entry
	skippedCodec, skippedLegacy, skippedUndecided := 0, 0, 0
	undecidedReasons := map[core.IncompleteReason]int{}
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)*7919
		h, err := Run(sc, seed)
		if err != nil {
			return nil, "", err
		}
		if plan.Transform != nil {
			h = plan.Transform(h)
		}
		res := core.CheckRA(h, plan.Spec, prunedOpts)
		if res.Verdict == core.VerdictUnknown {
			// Undecided within budget (node/memory budget, deadline, panic);
			// useless as a regression verdict, recorded with its reason.
			skippedUndecided++
			if res.Incomplete != nil {
				undecidedReasons[res.Incomplete.Reason]++
			}
			continue
		}
		leg := core.CheckRA(h, plan.Spec, legacyOpts)
		if leg.Verdict == core.VerdictUnknown {
			skippedLegacy++
			continue
		}
		if leg.Verdict != res.Verdict {
			return nil, "", fmt.Errorf("scenario %s seed %d: pruned verdict %v but legacy verdict %v", sc.Name, seed, res.Verdict, leg.Verdict)
		}
		labels, vis, err := EncodeHistory(h)
		if err != nil {
			skippedCodec++
			continue
		}
		candidates = append(candidates, Entry{
			Scenario:       sc.Name,
			CRDT:           sc.CRDT,
			Mode:           string(sc.Mode),
			Spec:           plan.SpecName,
			Seed:           seed,
			RALinearizable: res.Verdict == core.VerdictValid,
			Nodes:          res.Nodes,
			Labels:         labels,
			Vis:            vis,
		})
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.RALinearizable != b.RALinearizable {
			return !a.RALinearizable // refutations first
		}
		if a.Nodes != b.Nodes {
			return a.Nodes > b.Nodes
		}
		return a.Seed < b.Seed
	})
	if keep > 0 && len(candidates) > keep {
		candidates = candidates[:keep]
	}
	undecided := fmt.Sprintf("%d skipped: undecided", skippedUndecided)
	if len(undecidedReasons) > 0 {
		reasons := make([]string, 0, len(undecidedReasons))
		for r := range undecidedReasons {
			reasons = append(reasons, string(r))
		}
		sort.Strings(reasons)
		for i, r := range reasons {
			sep := " ["
			if i > 0 {
				sep = ", "
			}
			undecided += fmt.Sprintf("%s%s: %d", sep, r, undecidedReasons[core.IncompleteReason(r)])
		}
		undecided += "]"
	}
	summary := fmt.Sprintf("%d trials, %d candidates kept (%s, %d skipped: legacy budget, %d skipped: codec)",
		trials, len(candidates), undecided, skippedLegacy, skippedCodec)
	return candidates, summary, nil
}
