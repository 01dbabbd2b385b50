package engine

import (
	"math/rand"
	"testing"

	"seabed/internal/idlist"
)

// TestIDRunsMergeMatchesListMerge pins the merge's identifier-list run to
// idlist.List.Merge, range for range: ascending disjoint runs (the append
// fast path), abutting runs that must coalesce, interleaved and overlapping
// runs (the general path), empty inputs, and lists that arrive unsorted.
func TestIDRunsMergeMatchesListMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randomList := func() idlist.List {
		var rs []idlist.Range
		lo := uint64(rng.Intn(40))
		for k := rng.Intn(5); k > 0; k-- {
			hi := lo + uint64(rng.Intn(4))
			rs = append(rs, idlist.Range{Lo: lo, Hi: hi})
			switch rng.Intn(4) {
			case 0:
				lo = hi + 1 // abuts: coalesces when merged, not when cloned
			case 1:
				lo = uint64(rng.Intn(40)) // anywhere: overlapping or out of order
			default:
				lo = hi + 2 + uint64(rng.Intn(10))
			}
		}
		return idlist.View(rs)
	}
	var run idRun
	var scratch []idlist.Range
	for trial := 0; trial < 2000; trial++ {
		inputs := make([]idlist.List, 1+rng.Intn(6))
		for i := range inputs {
			inputs[i] = randomList()
			if trial%2 == 0 && i > 0 { // ascending shards: mostly the fast path
				shift := inputs[i-1].Ranges()
				if len(shift) > 0 && rng.Intn(8) > 0 {
					base := shift[len(shift)-1].Hi + uint64(rng.Intn(3))
					rs := append([]idlist.Range(nil), inputs[i].Ranges()...)
					for k := range rs {
						rs[k].Lo += base
						rs[k].Hi += base
					}
					inputs[i] = idlist.View(rs)
				}
			}
		}
		var want idlist.List
		run.set(run.ranges[:0]) // one run, reused, as finish reuses it
		for _, in := range inputs {
			want.Merge(in)
			run.merge(in.Ranges(), &scratch)
		}
		if got := idlist.View(run.ranges); !got.Equal(want) {
			t.Fatalf("trial %d: merging %v\n got %v (n=%d)\nwant %v (n=%d)", trial, inputs, got, got.Len(), want, want.Len())
		}
	}
}
