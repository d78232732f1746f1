package core

// CheckTransport exposes the rewriting oracle comparison (rewriting_test.go)
// to the external test package, whose tests draw histories from the CRDT
// registry and compositions that package core cannot import.
var CheckTransport = checkTransport

// SetFold exposes the breadth-first reference fold (spec_test.go) to the
// external fuzz targets that compare Fold against it.
var SetFold = setFold
