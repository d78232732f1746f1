// Quickstart: replicate an OR-Set over three replicas, run a few concurrent
// operations, converge, and check the resulting history for
// replication-aware linearizability against Spec(OR-Set).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ralin/internal/core"
	"ralin/internal/crdt/orset"
	"ralin/internal/runtime"

	// Activates the pruned search engine for core.CheckRA.
	_ "ralin/internal/search"
)

func main() {
	// An OR-Set deployment with three replicas. The descriptor bundles the
	// implementation, its sequential specification, the query-update
	// rewriting and the linearization strategy used by the checker.
	d := orset.Descriptor()
	sys := d.NewOpSystem(runtime.Config{Replicas: 3})

	// Replica r0 adds "milk"; replica r1 concurrently adds and then removes
	// "eggs"; replica r2 reads before receiving anything.
	must(sys.Invoke(0, "add", "milk"))
	must(sys.Invoke(1, "add", "eggs"))
	must(sys.Invoke(1, "remove", "eggs"))
	early := mustLabel(sys.Invoke(2, "read"))
	fmt.Printf("replica r2 before delivery: read() => %v\n", early.Ret)

	// Deliver every effector everywhere and read again: all replicas agree.
	if err := sys.DeliverAll(); err != nil {
		log.Fatal(err)
	}
	for _, r := range sys.Replicas() {
		l := mustLabel(sys.Invoke(r, "read"))
		fmt.Printf("replica %s after delivery:  read() => %v\n", r, l.Ret)
	}
	fmt.Printf("replicas converged: %v\n\n", sys.Converged())

	// Check the whole history for RA-linearizability. The OR-Set linearizes
	// in execution order after its remove operations are split into
	// readIds · removeIds (the query-update rewriting of the paper).
	history := sys.History()
	result := core.CheckRA(history, d.Spec, d.CheckOptions())
	fmt.Printf("history has %d operations\n", history.Len())
	fmt.Printf("RA-linearizable: %v (witness strategy: %v)\n", result.Verdict == core.VerdictValid, result.Strategy)
	if result.Verdict == core.VerdictValid {
		fmt.Println("witness linearization:")
		fmt.Println(" ", core.FormatLabels(result.Linearization))
	}
}

func must(_ *core.Label, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustLabel(l *core.Label, err error) *core.Label {
	if err != nil {
		log.Fatal(err)
	}
	return l
}
