package core

import (
	"testing"
)

// FuzzHistoryVis is the fuzz face of the bitset/oracle differential: the
// input bytes decode into an AddVis sequence over a small label set
// (including out-of-range identifiers and reflexive and cycle-forming
// edges), and every insertion verdict plus every visibility query must match
// the legacy map-closure oracle exactly. CI runs it as a
// bounded smoke (`go test -fuzz=FuzzHistoryVis -fuzztime=30s`) on top of the
// seed corpus.
func FuzzHistoryVis(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 1})          // chain plus a cycle attempt
	f.Add(uint8(6), []byte{1, 6, 2, 6, 3, 6, 6, 1})    // fan-in plus a back edge
	f.Add(uint8(3), []byte{0, 1, 1, 9, 1, 1, 2, 1})    // unknown ids, reflexive, back edge
	f.Add(uint8(8), []byte{1, 3, 3, 5, 5, 7, 1, 5, 3}) // transitive skips, odd tail byte
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		labels := 2 + int(n%24)
		h := NewHistory()
		o := newLegacyVisOracle()
		for i := 1; i <= labels; i++ {
			l := mkLabel(uint64(i), "op", KindUpdate)
			h.MustAdd(l)
			if err := o.add(l); err != nil {
				t.Fatal(err)
			}
		}
		// Each byte pair is one edge; ids are taken modulo labels+2 so 0 and
		// labels+1 probe the unknown-label path.
		for i := 0; i+1 < len(data) && i < 128; i += 2 {
			from := uint64(int(data[i]) % (labels + 2))
			to := uint64(int(data[i+1]) % (labels + 2))
			applyEdgeDifferential(t, h, o, from, to)
		}
		assertMatchesOracle(t, h, o)
	})
}
