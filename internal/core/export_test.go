package core

// CheckTransport exposes the rewriting oracle comparison (rewriting_test.go)
// to the external test package, whose tests draw histories from the CRDT
// registry and compositions that package core cannot import.
var CheckTransport = checkTransport

// SetFold exposes the breadth-first reference fold (spec_test.go) to the
// external fuzz targets that compare Fold against it.
var SetFold = setFold

// VisitedRows runs add — AddVis calls on h — and returns how many ancestor
// rows their propagation walks visited. The walk stamps every rank it visits
// with a fresh epoch, so the ranks stamped past the epoch before add are
// exactly the rows it touched.
func VisitedRows(h *History, add func()) int {
	before := h.epoch
	add()
	n := 0
	for _, m := range h.mark {
		if m > before {
			n++
		}
	}
	return n
}
