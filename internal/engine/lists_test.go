package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"seabed/internal/ashe"
	"seabed/internal/idlist"
	"seabed/internal/store"
)

// This file pins the life of an ASHE identifier list: built once by the map
// task, laid out once at task end, merged through one buffer, and passed
// through the codec only where a result frame is written or read.

// countingCodec counts the calls an identifier-list codec receives. Reducers
// encode in parallel, so the counters are atomic.
type countingCodec struct {
	idlist.Codec
	encodes, decodes *atomic.Int64
}

func newCountingCodec(inner idlist.Codec) countingCodec {
	return countingCodec{Codec: inner, encodes: new(atomic.Int64), decodes: new(atomic.Int64)}
}

func (c countingCodec) AppendEncode(dst []byte, l idlist.List) ([]byte, error) {
	c.encodes.Add(1)
	return c.Codec.AppendEncode(dst, l)
}

func (c countingCodec) AppendDecode(dst []idlist.Range, data []byte) ([]idlist.Range, error) {
	c.decodes.Add(1)
	return c.Codec.AppendDecode(dst, data)
}

func (c countingCodec) Encode(l idlist.List) ([]byte, error) {
	c.encodes.Add(1)
	return c.Codec.Encode(l)
}

func (c countingCodec) Decode(data []byte) (idlist.List, error) {
	c.decodes.Add(1)
	return c.Codec.Decode(data)
}

// TestListsMeetTheCodecOncePerResultList: a run encodes each list of its
// result once — one for an ungrouped sum, groups × ASHE aggregates for a
// group-by — however many map tasks fed it, and never decodes; the
// coordinator's merge of three Range+Partial sub-results decodes each shard
// list once and encodes nothing, until somebody asks for the row view.
func TestListsMeetTheCodecOncePerResultList(t *testing.T) {
	const rows, parts, groups = 20000, 7, 7 // d has 7 values
	tbl, _, _ := diffFixture(t, rows, parts)
	cl := NewCluster(Config{Workers: 4})
	for _, tc := range []struct {
		name  string
		lists int64
		plan  func(tbl *store.Table, codec idlist.Codec) *Plan
	}{
		{"ungrouped", 1, func(tbl *store.Table, codec idlist.Codec) *Plan {
			return &Plan{Table: tbl, Codec: codec,
				Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 7}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"grouped", 2 * groups, func(tbl *store.Table, codec idlist.Codec) *Plan {
			return &Plan{Table: tbl, Codec: codec, GroupBy: &GroupBy{Col: "d_det"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}, {Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"grouped-generic", groups, func(tbl *store.Table, codec idlist.Codec) *Plan {
			return &Plan{Table: tbl, Codec: codec, GroupBy: &GroupBy{Col: "d_det"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggOpeMax, Col: "v_ope"}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec := newCountingCodec(idlist.RangeVBDiff)
			if _, err := cl.Run(context.Background(), tc.plan(tbl, codec)); err != nil {
				t.Fatal(err)
			}
			if e, d := codec.encodes.Load(), codec.decodes.Load(); e != tc.lists || d != 0 {
				t.Fatalf("one run over %d map tasks: %d encodes and %d decodes, want %d (one per result list) and 0", parts, e, d, tc.lists)
			}

			plan, partials, _ := shardRuns(t, cl, tbl, func(tbl *store.Table) *Plan { return tc.plan(tbl, codec) }, groupAuto)
			codec.encodes.Store(0)
			merged, err := Merge(plan, partials)
			if err != nil {
				t.Fatal(err)
			}
			if e, d := codec.encodes.Load(), codec.decodes.Load(); e != 0 || d != 3*tc.lists {
				t.Fatalf("Merge of three sub-results: %d encodes and %d decodes, want 0 and %d", e, d, 3*tc.lists)
			}
			for ai := range merged.Cols.Aggs {
				if col := &merged.Cols.Aggs[ai]; col.Kind == AggAsheSum && (col.RangeOff == nil || col.IDOff != nil) {
					t.Fatalf("merged aggregate %d is not a decoded column", ai)
				}
			}
			merged.View()
			merged.View() // cached: the view encodes when it is built, once
			if e := codec.encodes.Load(); e != tc.lists {
				t.Fatalf("the row view encoded %d lists, want %d", e, tc.lists)
			}
		})
	}
}

// asheTask runs one map task of an ASHE group-by over rows rows in groups
// groups and returns its output.
func asheTask(tb testing.TB, rows, groups int, arenas *nodeArenas) *mapResult {
	tb.Helper()
	tbl := detKeyFixture(tb, rows, groups, 1, false)
	cp, err := wideBytesGroupByPlan(tbl).compile(0)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := cp.runMapTask(context.Background(), NewCluster(Config{Workers: 4}), tbl.Parts[0], arenas)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestTaskListsAreViews: once a task has laid its lists out, reading one is a
// view — no walk, no scratch copy, no allocation — at 24 slots and at 16,384,
// and every slot's run holds exactly the identifiers its rows had, in order.
func TestTaskListsAreViews(t *testing.T) {
	for _, groups := range []int{24, 1 << 14} {
		rows := 4 * groups
		res := asheTask(t, rows, groups, nil)
		tg := res.groups
		lists := &tg.cols[0]
		if tg.keys.len() != groups || len(lists.RangeOff) != groups+1 || len(lists.Ranges) != int(lists.RangeOff[groups]) {
			t.Fatalf("%d groups: task holds %d keys, %d offsets over %d ranges", groups, tg.keys.len(), len(lists.RangeOff), len(lists.Ranges))
		}
		var scratch []idlist.Range
		var ids uint64
		if avg := testing.AllocsPerRun(3, func() {
			ids = 0
			for g := 0; g < groups; g++ {
				rs, err := tg.idsAt(0, g, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rs {
					if r.Lo > r.Hi || i > 0 && r.Lo <= rs[i-1].Hi+1 {
						t.Fatalf("%d groups: slot %d's run is not ascending, coalesced ranges: %v", groups, g, rs)
					}
					ids += r.Span()
				}
			}
		}); avg != 0 {
			t.Errorf("%d groups: reading every list of a finished task allocates %.0f times, want 0", groups, avg)
		}
		if ids != uint64(rows) {
			t.Errorf("%d groups: the lists hold %d identifiers, want %d", groups, ids, rows)
		}
	}
}

// singleTasks runs the ungrouped ASHE sum's map tasks over tbl.
func singleTasks(tb testing.TB, tbl *store.Table, pl *Plan) []*mapResult {
	tb.Helper()
	cp, err := pl.compile(0)
	if err != nil {
		tb.Fatal(err)
	}
	cl := NewCluster(Config{Workers: 4})
	results := make([]*mapResult, len(tbl.Parts))
	for i, part := range tbl.Parts {
		if results[i], err = cp.runMapTask(context.Background(), cl, part, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return results
}

// wideSumPlan is the dashboard's wide filtered sum: 72 % of the rows selected,
// so the list is tens of thousands of short ranges.
func wideSumPlan(tbl *store.Table) *Plan {
	return &Plan{Table: tbl, Codec: idlist.RangeVBDiff,
		Filters: []Filter{{Kind: FilterRandom, Prob: 0.72, Seed: 9}},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
}

// TestMergeSingleAllocsIndependentOfTasks: the driver's fold of an ungrouped
// plan merges every task's list through one buffer, so five times the map
// tasks cost not one allocation more.
func TestMergeSingleAllocsIndependentOfTasks(t *testing.T) {
	allocs := func(parts int) float64 {
		tbl := detKeyFixture(t, 50_000, 16, parts, false)
		pl := wideSumPlan(tbl)
		results := singleTasks(t, tbl, pl)
		return testing.AllocsPerRun(5, func() {
			var m Metrics
			if _, err := foldSingle(pl, results, pl.Codec, &m); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(5), allocs(25)
	if few != many || many > 40 {
		t.Fatalf("foldSingle allocates %.0f times over 5 tasks' outputs and %.0f over 25, want the same small number", few, many)
	}
}

// asheColumns returns every ASHE aggregate's identifier lists of a result, by
// aggregate and then group in key order (the columns hold groups in no key
// order), decoding the columns that are encoded.
func asheColumns(t *testing.T, c *GroupCols, codec idlist.Codec) map[int][][]idlist.Range {
	t.Helper()
	out := map[int][][]idlist.Range{}
	for ai := range c.Aggs {
		col := &c.Aggs[ai]
		if col.Kind != AggAsheSum {
			continue
		}
		lists := make([][]idlist.Range, c.Len())
		for i, g := range c.keyOrder() {
			if col.RangeOff != nil {
				lists[i] = col.DecodedIDs(g)
				continue
			}
			rs, err := codec.AppendDecode(nil, col.EncodedIDs(g))
			if err != nil {
				t.Fatal(err)
			}
			lists[i] = rs
		}
		out[ai] = lists
	}
	return out
}

// asheSums decrypts every ASHE sum of a result as the client does: body and
// identifier list under the column's key. The lists are asheColumns', in key
// order.
func asheSums(c *GroupCols, lists map[int][][]idlist.Range) map[int][]uint64 {
	out := map[int][]uint64{}
	order := c.keyOrder()
	for ai, ls := range lists {
		for i, rs := range ls {
			out[ai] = append(out[ai], asheKey.Decrypt(ashe.Ciphertext{Body: c.Aggs[ai].Lane[order[i]], IDs: idlist.View(rs)}))
		}
	}
	return out
}

// TestDifferentialMergedLists: for every differential case with an ASHE sum,
// one engine over the whole table ≡ engine.Merge of three sub-results
// (decoded columns) ≡ the same through MergeResults().View() (encoded on
// demand), compared as range lists, as decrypted sums and as row views. The
// sub-results come two ways: contiguous ranges, whose lists the merge appends,
// and partitions dealt round-robin — the shape appended batches give a
// fleet's shards — whose lists interleave (idRun's general path). Inflated
// cases are also deflated from both column forms. TestDifferentialMergedShards
// takes every other case through the same merge.
func TestDifferentialMergedLists(t *testing.T) {
	const rows, parts = 20000, 7
	tbl, right, sk := diffFixture(t, rows, parts)
	cl := NewCluster(Config{Workers: 4, Seed: 11})
	ctx := context.Background()
	deal := func(tbl *store.Table) []*store.Table { // partitions dealt round-robin
		subs := make([]*store.Table, 3)
		for k := range subs {
			subs[k] = &store.Table{Name: tbl.Name}
		}
		for i, p := range tbl.Parts {
			subs[i%3].Parts = append(subs[i%3].Parts, p)
		}
		return subs
	}
	ran := 0
	for _, tc := range differentialCases(&sk.PublicKey) {
		probe := tc.plan(tbl, right)
		hasSum := false
		for _, a := range probe.Aggs {
			hasSum = hasSum || a.Kind == AggAsheSum
		}
		if !hasSum || probe.Range != nil {
			continue
		}
		ran++
		t.Run(tc.name, func(t *testing.T) {
			whole, err := cl.Run(ctx, tc.plan(tbl, right))
			if err != nil {
				t.Fatal(err)
			}
			codec := tc.plan(tbl, right).EffectiveCodec()
			wantLists := asheColumns(t, whole.Cols, codec)
			wantSums := asheSums(whole.Cols, wantLists)
			for split, subs := range map[string][]*store.Table{"contiguous": tbl.SplitRanges(3), "interleaved": deal(tbl)} {
				partials := make([]*Result, len(subs))
				for k, sub := range subs {
					pl := tc.plan(sub, right)
					pl.Partial = true
					if partials[k], err = cl.Run(ctx, pl); err != nil {
						t.Fatal(err)
					}
				}
				plan := tc.plan(tbl, right)
				merged, err := Merge(plan, partials)
				if err != nil {
					t.Fatal(err)
				}
				gotLists := asheColumns(t, merged.Cols, codec)
				if !reflect.DeepEqual(gotLists, wantLists) {
					t.Fatalf("%s: merged identifier lists diverge from one engine's", split)
				}
				if got := asheSums(merged.Cols, gotLists); !reflect.DeepEqual(got, wantSums) {
					t.Fatalf("%s: merged sums decrypt to %v, one engine's to %v", split, got, wantSums)
				}
				viewed, err := MergeResults(plan, partials)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(viewed.Groups, whole.View()) || !reflect.DeepEqual(merged.View(), whole.View()) {
					t.Fatalf("%s: the merged result's row view diverges from one engine's", split)
				}
				if plan.GroupBy == nil || plan.GroupBy.Inflate < 2 {
					continue
				}
				// Deflating takes a decoded column as readily as an encoded one.
				fromDecoded, err := DeflateGroups(plan, merged.Cols)
				if err != nil {
					t.Fatal(err)
				}
				fromEncoded, err := DeflateGroups(plan, whole.Cols)
				if err != nil {
					t.Fatal(err)
				}
				if fromDecoded.Len() >= merged.Cols.Len() || !reflect.DeepEqual((&Result{Cols: fromDecoded}).View(), (&Result{Cols: fromEncoded}).View()) {
					t.Fatalf("%s: deflating %d decoded groups gives %d, diverging from the encoded column's %d",
						split, merged.Cols.Len(), fromDecoded.Len(), fromEncoded.Len())
				}
			}
		})
	}
	if ran < 10 {
		t.Fatalf("only %d differential cases carry an ASHE sum", ran)
	}
}

// TestDifferentialMergedShards: every differential case without a range scope
// of its own — Paillier products, OPE extremes and medians, plain lanes, scans
// and joins as well as ASHE sums — run as three contiguous Range+Partial shard
// slices and folded by Merge, views (and scans) exactly as one engine over the
// whole table does.
func TestDifferentialMergedShards(t *testing.T) {
	tbl, right, sk := diffFixture(t, 20000, 7)
	cl := NewCluster(Config{Workers: 4, Seed: 11})
	ran := 0
	for _, tc := range differentialCases(&sk.PublicKey) {
		if tc.plan(tbl, right).Range != nil {
			continue
		}
		ran++
		t.Run(tc.name, func(t *testing.T) {
			plan, partials, whole := shardRuns(t, cl, tbl, func(tbl *store.Table) *Plan { return tc.plan(tbl, right) }, groupAuto)
			merged, err := Merge(plan, partials)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(merged.View(), whole.View()) || !reflect.DeepEqual(flatScan(merged.Scan), flatScan(whole.Scan)) {
				t.Fatalf("three merged shard slices diverge from one engine:\nmerged %+v\nwhole  %+v", merged.View(), whole.View())
			}
		})
	}
	if ran < 30 {
		t.Fatalf("only %d differential cases ran through the merge", ran)
	}
}

// --- microbenchmarks ---

// BenchmarkMergeSingleWide measures the ungrouped merge at the dashboard's
// wide sum: 25 task lists of a 72 %-selected 200k-row column folded through
// one buffer and encoded once.
func BenchmarkMergeSingleWide(b *testing.B) {
	tbl := detKeyFixture(b, 200_000, 16, 25, false)
	pl := wideSumPlan(tbl)
	pl.Codec = idlist.Default
	results := singleTasks(b, tbl, pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Metrics
		if _, err := foldSingle(pl, results, pl.Codec, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskListsLayout measures what a map task pays for its
// identifier lists from first row to laid out, at 24 slots and at 16,384: the
// whole task runs (the lists cannot be built without it), with the node arena
// recycled as a run recycles it across its tasks.
func BenchmarkTaskListsLayout(b *testing.B) {
	for _, groups := range []int{24, 1 << 14} {
		b.Run(fmt.Sprintf("slots=%d", groups), func(b *testing.B) {
			const rows = 1 << 16
			tbl := detKeyFixture(b, rows, groups, 1, false)
			cp, err := wideBytesGroupByPlan(tbl).compile(0)
			if err != nil {
				b.Fatal(err)
			}
			cl, ctx := NewCluster(Config{Workers: 4}), context.Background()
			var arenas nodeArenas
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.runMapTask(ctx, cl, tbl.Parts[0], &arenas); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
