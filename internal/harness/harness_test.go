package harness

import (
	"strings"
	"testing"

	"ralin/internal/core"
	"ralin/internal/crdt/counter"
	"ralin/internal/crdt/orset"
	"ralin/internal/crdt/registry"
	"ralin/internal/verify"
)

func TestRunRandomOpAndStateBased(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Ops = 6
	for _, name := range []string{"Counter", "PN-Counter", "RGA", "2P-Set"} {
		d, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := RunRandom(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Len() != 6 {
			t.Fatalf("%s: expected 6 labels, got %d", name, h.Len())
		}
	}
}

func TestCheckRandomHistories(t *testing.T) {
	d, _ := registry.Lookup("OR-Set")
	cfg := DefaultWorkload()
	cfg.Ops = 6
	res, err := CheckRandomHistories(d, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Histories != 5 || res.Operations != 30 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.ByStrategy["execution-order"] == 0 {
		t.Fatalf("OR-Set histories should linearize in execution order: %+v", res.ByStrategy)
	}
}

func TestFig12RowAndRendering(t *testing.T) {
	opts := Fig12Options{
		Verify:        verify.Options{Seed: 3, Trials: 3, Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, MaxStates: 15},
		HistoryTrials: 3,
		Workload:      WorkloadConfig{Seed: 5, Ops: 6, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40},
	}
	row, err := Fig12RowFor(counter.Descriptor(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !row.OK() {
		t.Fatalf("counter row must verify:\n%s", row.Obligations)
	}
	text := RenderFig12([]Fig12Row{row})
	if !strings.Contains(text, "Counter") || !strings.Contains(text, "proved") {
		t.Fatalf("table rendering wrong:\n%s", text)
	}
	details := RenderFig12Details([]Fig12Row{row})
	if !strings.Contains(details, "random histories") {
		t.Fatalf("details rendering wrong:\n%s", details)
	}
}

func TestFig12TableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full table takes a few seconds")
	}
	opts := Fig12Options{
		Verify:        verify.Options{Seed: 3, Trials: 3, Ops: 7, Replicas: 2, Elems: []string{"a", "b"}, MaxStates: 15},
		HistoryTrials: 4,
		Workload:      WorkloadConfig{Seed: 5, Ops: 7, Replicas: 2, Elems: []string{"a", "b"}, DeliveryProb: 40},
	}
	rows, err := Fig12Table(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK() {
			t.Errorf("row %s failed:\n%s\nhistories: %+v", r.Name, r.Obligations, r.Histories)
		}
	}
}

func TestExploreSchedulesCounts(t *testing.T) {
	d := counter.Descriptor()
	program := Program{
		{{Method: "inc"}, {Method: "read"}},
		{{Method: "inc"}},
	}
	runs, err := ExploreSchedules(d, program, 0, func(run Run) bool {
		if run.Label(0, 1) == nil || run.Label(0, 1).Method != "read" {
			t.Fatal("labels not recorded")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs == 0 {
		t.Fatal("no schedules explored")
	}
	// The read must observe 1 or 2 depending on whether the remote inc was
	// delivered before it; both values must occur across schedules.
	seen := map[int64]bool{}
	_, err = ExploreSchedules(d, program, 0, func(run Run) bool {
		seen[run.Label(0, 1).Ret.(int64)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("schedule exploration missed delivery interleavings: %v", seen)
	}
	// Limits and early stops are honoured.
	n, err := ExploreSchedules(d, program, 2, func(Run) bool { return true })
	if err != nil || n != 2 {
		t.Fatalf("limit not honoured: %d %v", n, err)
	}
	n, err = ExploreSchedules(d, program, 0, func(Run) bool { return false })
	if err != nil || n != 1 {
		t.Fatalf("early stop not honoured: %d %v", n, err)
	}
}

func TestExploreSchedulesErrors(t *testing.T) {
	if _, err := ExploreSchedules(orset.Descriptor(), Program{}, 0, func(Run) bool { return true }); err == nil {
		t.Fatal("empty program must fail")
	}
	d, _ := registry.Lookup("PN-Counter")
	if _, err := ExploreSchedules(d, Program{{{Method: "inc"}}}, 0, func(Run) bool { return true }); err == nil {
		t.Fatal("state-based descriptors must be rejected")
	}
}

func TestExperimentsAllReproduce(t *testing.T) {
	for _, e := range Experiments(Options{}) {
		if !e.OK {
			t.Errorf("experiment %s did not reproduce:\n%s", e.ID, e)
		}
		if e.Claim == "" || e.Observed == "" || e.Title == "" {
			t.Errorf("experiment %s is missing descriptive fields", e.ID)
		}
	}
}

func TestExperimentLookupAndRendering(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 10 {
		t.Fatalf("expected 10 experiments, got %d", len(ids))
	}
	e, err := ExperimentByID("fig-8", Options{})
	if err != nil || e.ID != "fig-8" {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := ExperimentByID("fig-99", Options{}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	text := e.String()
	if !strings.Contains(text, "REPRODUCED") || !strings.Contains(text, "paper:") {
		t.Fatalf("experiment rendering wrong:\n%s", text)
	}
	bad := Experiment{ID: "x", Title: "t", Claim: "c", Observed: "o", OK: false}
	if !strings.Contains(bad.String(), "MISMATCH") {
		t.Fatal("mismatch rendering wrong")
	}
}

func TestNaiveSetHistoryReinterpretation(t *testing.T) {
	_, h := fig5System()
	naive := orset.NaiveSetHistory(h)
	for _, l := range naive.Labels() {
		if l.Method == "remove" && (l.Kind != core.KindUpdate || l.Ret != nil) {
			t.Fatalf("remove not reinterpreted: %v", l)
		}
		if l.Method == "add" && l.Ret != nil {
			t.Fatalf("add identifier not dropped: %v", l)
		}
	}
	if naive.Len() != h.Len() {
		t.Fatal("label count changed")
	}
}

func TestWorkloadConfigFill(t *testing.T) {
	c := WorkloadConfig{DeliveryProb: 500}
	c.fill()
	if c.Ops == 0 || c.Replicas == 0 || len(c.Elems) == 0 || c.DeliveryProb != 100 {
		t.Fatalf("fill wrong: %+v", c)
	}
	c2 := WorkloadConfig{DeliveryProb: -3}
	c2.fill()
	if c2.DeliveryProb != 0 {
		t.Fatal("negative delivery probability must clamp to zero")
	}
}
