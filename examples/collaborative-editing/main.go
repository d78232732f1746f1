// Collaborative editing: the text-editing scenario that motivates the RGA in
// the paper's introduction. Two users type into the same document from two
// replicas; conflicting insertions at the same position are resolved by
// timestamps; a deletion issued concurrently with an insertion after the
// deleted character still works thanks to tombstones. The resulting history
// is checked RA-linearizable against Spec(RGA) with a timestamp-order
// witness.
//
//	go run ./examples/collaborative-editing
package main

import (
	"fmt"
	"log"
	"strings"

	"ralin/internal/clock"
	"ralin/internal/core"
	"ralin/internal/crdt/rga"
	"ralin/internal/runtime"

	// Activates the pruned search engine for core.CheckRA.
	_ "ralin/internal/search"
)

const (
	alice = clock.ReplicaID(0)
	bob   = clock.ReplicaID(1)
)

func main() {
	d := rga.Descriptor()
	doc := d.NewOpSystem(runtime.Config{Replicas: 2})

	// Alice types "abef".
	type insertion struct{ after, char string }
	for _, ins := range []insertion{
		{rga.Root, "a"}, {"a", "b"}, {"b", "e"}, {"e", "f"},
	} {
		invoke(doc, alice, "addAfter", ins.after, ins.char)
	}
	sync(doc)
	fmt.Printf("shared document:        %s\n", render(doc, bob))

	// Alice inserts "c" after "b" while Bob concurrently inserts "d" after
	// "b" — the introduction's running example.
	invoke(doc, alice, "addAfter", "b", "c")
	invoke(doc, bob, "addAfter", "b", "d")
	fmt.Printf("Alice sees:             %s\n", render(doc, alice))
	fmt.Printf("Bob sees:               %s\n", render(doc, bob))
	sync(doc)
	fmt.Printf("after synchronisation:  %s (both replicas agree: %v)\n", render(doc, alice), doc.Converged())

	// Bob deletes "e" while Alice concurrently inserts "x" after "e": the
	// tombstone keeps the deleted character addressable.
	invoke(doc, bob, "remove", "e")
	invoke(doc, alice, "addAfter", "e", "x")
	sync(doc)
	fmt.Printf("after delete/insert:    %s\n\n", render(doc, bob))

	// The whole editing session is RA-linearizable w.r.t. the sequential
	// list specification, using timestamp-order linearizations.
	res := core.CheckRA(doc.History(), d.Spec, d.CheckOptions())
	fmt.Printf("session RA-linearizable: %v (strategy %v, %d candidate(s) tried)\n",
		res.Verdict == core.VerdictValid, res.Strategy, res.Tried)
}

func invoke(sys *runtime.System, replica clock.ReplicaID, method string, args ...core.Value) {
	if _, err := sys.Invoke(replica, method, args...); err != nil {
		log.Fatal(err)
	}
}

func render(sys *runtime.System, replica clock.ReplicaID) string {
	l, err := sys.Invoke(replica, "read")
	if err != nil {
		log.Fatal(err)
	}
	return strings.Join(l.Ret.([]string), "")
}

func sync(sys *runtime.System) {
	if err := sys.DeliverAll(); err != nil {
		log.Fatal(err)
	}
}
