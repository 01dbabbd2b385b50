package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"seabed/internal/idlist"
	"seabed/internal/store"
)

// TestReducerBucketsAgree: the vectorized and the reference map task, over
// the same partition, send every group to the same reducer bucket — for u64
// keys (under the dense span and past it), DET keys in a Fixed column,
// variable-width DET bytes and strings, each with inflation off and on. The
// vectorized task buckets its byte keys by the hash its table kept, the
// reference by hashing the key afresh: a reducer merges one key's groups only
// if the two agree, and so do the shards of a fleet.
func TestReducerBucketsAgree(t *testing.T) {
	const rows, groups, buckets = 8192, 600, 4
	u, k, b, s := make([]uint64, rows), make([]uint64, rows), make([][]byte, rows), make([]string, rows)
	for i := range rows {
		g := uint64(i*7919) % groups
		u[i] = g * 13 // about half under denseDefaultEntries, half hashed
		k[i] = g
		s[i] = fmt.Sprintf("dim-%d", g)
		b[i] = detKey.EncryptString(s[i])
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "u", Kind: store.U64, U64: u},
		detFixed("k", k),
		{Name: "b", Kind: store.Bytes, Bytes: b},
		{Name: "s", Kind: store.Str, Str: s},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: buckets, Seed: 5})
	ctx := context.Background()
	bucketOf := func(tg *taskGroups) map[string]int {
		out := map[string]int{}
		for bk := range buckets {
			if len(tg.bucket(bk)) == 0 {
				t.Fatalf("bucket %d of %d is empty", bk, buckets)
			}
			for _, g := range tg.bucket(bk) {
				key := fmt.Sprint(tg.keys.suffixAt(int(g)), "/")
				if tg.keys.kind == store.U64 {
					key += fmt.Sprint(tg.keys.u64[g])
				} else {
					key += string(tg.keys.bytesAt(int(g)))
				}
				out[key] = bk
			}
		}
		return out
	}
	for _, col := range []string{"u", "k", "b", "s"} {
		for _, inflate := range []int{0, 3} {
			pl := &Plan{Table: tbl, GroupBy: &GroupBy{Col: col, Inflate: inflate}, Aggs: []Agg{{Kind: AggCount}}}
			cp, err := pl.compile(c.cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := pl.compileReference()
			if err != nil {
				t.Fatal(err)
			}
			vec, err := cp.runMapTask(ctx, c, tbl.Parts[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := rp.runMapTask(ctx, c, tbl.Parts[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			got, want := bucketOf(vec.groups), bucketOf(ref.groups)
			if len(got) < groups || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, inflate %d: the executors bucket %d and %d groups differently", col, inflate, len(got), len(want))
			}
		}
	}
}

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
