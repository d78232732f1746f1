package ralin

import (
	"testing"

	"ralin/internal/runtime"
)

func TestFacadeLookupAndCheck(t *testing.T) {
	d, err := Lookup("Counter")
	if err != nil {
		t.Fatal(err)
	}
	sys := d.NewOpSystem(runtime.Config{Replicas: 2})
	sys.MustInvoke(0, "inc")
	sys.MustInvoke(1, "read")
	if err := sys.DeliverAll(); err != nil {
		t.Fatal(err)
	}
	res := Check(d, sys.History())
	if res.Verdict != VerdictValid {
		t.Fatalf("counter history must be RA-linearizable: %v", res.LastErr)
	}
	if _, err := Lookup("Skiplist"); err == nil {
		t.Fatal("unknown CRDT must fail")
	}
	if len(CRDTs()) != 10 {
		t.Fatalf("expected 10 registered CRDTs, got %d", len(CRDTs()))
	}
}

func TestFacadeVerify(t *testing.T) {
	for _, name := range []string{"Counter", "2P-Set"} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if report := Verify(d); !report.OK() {
			t.Fatalf("%s verification failed:\n%s", name, report)
		}
	}
}

func TestFacadeExperimentsAndTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full table and figures take a few seconds")
	}
	for _, e := range Experiments() {
		if !e.OK {
			t.Errorf("experiment %s did not reproduce", e.ID)
		}
	}
	rows, err := Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("expected 9 Figure 12 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK() {
			t.Errorf("Figure 12 row %s failed verification", r.Name)
		}
	}
}
