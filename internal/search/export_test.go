package search

// SetNoJustCache turns the certificate replay's justification cache off
// (true) or back on, for the external tests that compare the two.
func SetNoJustCache(off bool) { testHookNoJustCache = off }
