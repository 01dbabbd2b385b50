package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"seabed/internal/ashe"
	"seabed/internal/idlist"
	"seabed/internal/store"
)

// This file pins the life of a result's identifier section: kept by each map
// task as its survivors' identifiers and slots, written once by the driver —
// one list through the codec — renumbered, never read, by the coordinator's
// merge, and cut into per-group lists only by the row view.

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

// TestListsMeetTheCodecOncePerResultList: a run encodes one list for its whole
// result — ungrouped or grouped, however many ASHE sums share it and map tasks
// fed it — and never decodes; the coordinator's merge of three Range+Partial
// sub-results neither decodes nor encodes anything, keeping each shard's
// section as a part; and the row view decodes each part once and encodes one
// list per group, shared by the ASHE sums.
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
		{"grouped", groups, func(tbl *store.Table, codec idlist.Codec) *Plan {
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
			if e, d := codec.encodes.Load(), codec.decodes.Load(); e != 1 || d != 0 {
				t.Fatalf("one run over %d map tasks: %d encodes and %d decodes, want 1 (the result's one list) and 0", parts, e, d)
			}

			plan, partials, _ := shardRuns(t, cl, tbl, func(tbl *store.Table) *Plan { return tc.plan(tbl, codec) }, groupAuto)
			codec.encodes.Store(0)
			merged, err := Merge(plan, partials)
			if err != nil {
				t.Fatal(err)
			}
			if e, d := codec.encodes.Load(), codec.decodes.Load(); e != 0 || d != 0 || len(merged.Cols.IDs) != 3 {
				t.Fatalf("Merge of three sub-results: %d encodes, %d decodes and %d parts, want 0, 0 and 3", e, d, len(merged.Cols.IDs))
			}
			merged.View()
			merged.View() // cached: the view decodes and encodes when it is built, once
			if e, d := codec.encodes.Load(), codec.decodes.Load(); e != tc.lists || d != 3 {
				t.Fatalf("the row view encoded %d lists and decoded %d, want %d (one a group) and 3 (one a part)", e, d, tc.lists)
			}
		})
	}
}

// asheTask runs one map task of an ASHE group-by over rows rows in groups
// groups and returns its output and the compiled plan.
func asheTask(tb testing.TB, rows, groups int) *mapResult {
	tb.Helper()
	tbl := detKeyFixture(tb, rows, groups, 1, false)
	cp, err := wideBytesGroupByPlan(tbl).compile(0)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := cp.runMapTask(context.Background(), NewCluster(Config{Workers: 4}), tbl.Parts[0])
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestTaskKeepsSectionInput: a grouped ASHE map task keeps, for the identifier
// section, exactly its survivors' identifiers — ascending, coalesced ranges —
// and beside each, in row order, the slot of its group in the task's table, at
// 24 slots and at 16,384.
func TestTaskKeepsSectionInput(t *testing.T) {
	for _, groups := range []int{24, 1 << 14} {
		rows := 4 * groups
		res := asheTask(t, rows, groups)
		tg := res.groups
		if tg.keys.len() != groups || len(res.tags) != rows {
			t.Fatalf("%d groups: task holds %d keys and %d slots for %d rows", groups, tg.keys.len(), len(res.tags), rows)
		}
		ids := uint64(0)
		for i, r := range res.ids {
			if r.Lo > r.Hi || i > 0 && r.Lo <= res.ids[i-1].Hi+1 {
				t.Fatalf("%d groups: the task's identifiers are not ascending, coalesced ranges: %v", groups, res.ids)
			}
			ids += r.Span()
		}
		if ids != uint64(rows) {
			t.Errorf("%d groups: the task keeps %d identifiers, want %d", groups, ids, rows)
		}
		rowsOf := make([]uint64, groups)
		for _, s := range res.tags {
			rowsOf[s]++
		}
		if !reflect.DeepEqual(rowsOf, tg.rows) {
			t.Errorf("%d groups: the slots kept count %v rows a group, the table %v", groups, rowsOf, tg.rows)
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
		if results[i], err = cp.runMapTask(context.Background(), cl, part); err != nil {
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
// plan writes every task's identifiers into one list, reserved once, so five
// times the map tasks cost not one allocation more.
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

// groupIDs returns each group's identifiers in a result's section, groups in
// key order (the columns hold them in no key order), expanded one by one
// from each part's decoded list and runs — an oracle apart from the row view.
func groupIDs(t *testing.T, c *GroupCols, codec idlist.Codec) [][]idlist.Range {
	t.Helper()
	if err := checkParts(c.IDs, c.Len()); err != nil {
		t.Fatal(err)
	}
	byGroup := make([][]uint64, c.Len())
	for pi := range c.IDs {
		p := &c.IDs[pi]
		list, err := codec.Decode(p.List)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []idlist.Run
		runs, err := p.Tags(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		ids := list.IDs()
		if len(runs) == 0 { // a part of one group
			byGroup[p.WholeGroup()] = append(byGroup[p.WholeGroup()], ids...)
			ids = nil
		}
		for _, r := range runs {
			g := p.group(int(r.Group))
			byGroup[g] = append(byGroup[g], ids[:r.Len]...)
			ids = ids[r.Len:]
		}
		if len(ids) != 0 {
			t.Fatalf("part %d: %d identifiers past its runs", pi, len(ids))
		}
	}
	out := make([][]idlist.Range, c.Len())
	for i, g := range c.keyOrder() {
		slices.Sort(byGroup[g])
		var l idlist.List
		for _, id := range byGroup[g] {
			l.Append(id)
		}
		out[i] = l.Ranges()
	}
	return out
}

// asheSums decrypts every ASHE sum of a result as the client does, each group
// pointwise: body and identifier list under the column's key. The lists are
// groupIDs', in key order.
func asheSums(c *GroupCols, lists [][]idlist.Range) map[int][]uint64 {
	out := map[int][]uint64{}
	order := c.keyOrder()
	for ai := range c.Aggs {
		if c.Aggs[ai].Kind != AggAsheSum {
			continue
		}
		for i, rs := range lists {
			out[ai] = append(out[ai], asheKey.Decrypt(ashe.Ciphertext{Body: c.Aggs[ai].Lane[order[i]], IDs: idlist.View(rs)}))
		}
	}
	return out
}

// TestDifferentialMergedLists: for every differential case with an ASHE sum,
// one engine over the whole table ≡ engine.Merge of three sub-results (one
// section part each, renumbered) ≡ the same through MergeResults().View()
// (per-group lists rebuilt on demand), compared as per-group identifier
// lists, as decrypted sums and as row views. The sub-results come two ways:
// contiguous ranges, whose parts follow one another, and partitions dealt
// round-robin — the shape appended batches give a fleet's shards — whose parts
// interleave. Inflated cases are also deflated from the merged and the
// single-run section. TestDifferentialMergedShards takes every other case
// through the same merge.
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
			wantLists := groupIDs(t, whole.Cols, codec)
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
				gotLists := groupIDs(t, merged.Cols, codec)
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
				// Deflating renumbers a merged section's parts as readily as a
				// single run's one part.
				fromMerged, err := DeflateGroups(plan, merged.Cols)
				if err != nil {
					t.Fatal(err)
				}
				fromWhole, err := DeflateGroups(plan, whole.Cols)
				if err != nil {
					t.Fatal(err)
				}
				if fromMerged.Len() >= merged.Cols.Len() || !reflect.DeepEqual((&Result{Cols: fromMerged}).View(), (&Result{Cols: fromWhole}).View()) ||
					!reflect.DeepEqual(asheSums(fromMerged, groupIDs(t, fromMerged, codec)), asheSums(fromWhole, groupIDs(t, fromWhole, codec))) {
					t.Fatalf("%s: deflating %d merged groups gives %d, diverging from the single run's %d",
						split, merged.Cols.Len(), fromMerged.Len(), fromWhole.Len())
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

// BenchmarkMergeSingleWide measures the ungrouped fold at the dashboard's
// wide sum: 25 tasks' identifiers of a 72 %-selected 200k-row column written
// into one list and encoded once.
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

// BenchmarkTaskSectionInput measures a grouped ASHE map task, which keeps its
// survivors' identifiers and slots for the section, from first row to last,
// at 24 slots and at 16,384.
func BenchmarkTaskSectionInput(b *testing.B) {
	for _, groups := range []int{24, 1 << 14} {
		b.Run(fmt.Sprintf("slots=%d", groups), func(b *testing.B) {
			const rows = 1 << 16
			tbl := detKeyFixture(b, rows, groups, 1, false)
			cp, err := wideBytesGroupByPlan(tbl).compile(0)
			if err != nil {
				b.Fatal(err)
			}
			cl, ctx := NewCluster(Config{Workers: 4}), context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.runMapTask(ctx, cl, tbl.Parts[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// TestDecodeListAscending: DecodeList reports a list whose ranges ascend
// without overlapping — abutting ones included — as the sweep can read it,
// and no other; an inverted range, or a list holding other than its part's
// selected count, is refused.
func TestDecodeListAscending(t *testing.T) {
	for _, tc := range []struct {
		list      []idlist.Range
		ascending bool
	}{
		{[]idlist.Range{{Lo: 1, Hi: 4}, {Lo: 5, Hi: 5}, {Lo: 9, Hi: 12}}, true},
		{[]idlist.Range{{Lo: 3, Hi: 3}}, true},
		{[]idlist.Range{{Lo: 1, Hi: 5}, {Lo: 5, Hi: 9}}, false},
		{[]idlist.Range{{Lo: 7, Hi: 7}, {Lo: 3, Hi: 3}}, false},
		{[]idlist.Range{{Lo: 2, Hi: 2}, {Lo: 2, Hi: 2}}, false},
	} {
		l := idlist.View(tc.list)
		enc, err := idlist.RangeVB.Encode(l)
		if err != nil {
			t.Fatal(err)
		}
		p := IDPart{Selected: l.Len(), List: enc, Groups: 1}
		if got, ascending, err := p.DecodeList(idlist.RangeVB, nil); err != nil || ascending != tc.ascending || !slices.Equal(got, tc.list) {
			t.Errorf("%v: decoded %v, ascending %v (%v); want ascending %v", tc.list, got, ascending, err, tc.ascending)
		}
		p.Selected++
		if _, _, err := p.DecodeList(idlist.RangeVB, nil); err == nil {
			t.Errorf("%v: decoded as %d identifiers", tc.list, p.Selected)
		}
	}
	inverted, err := idlist.RangeVB.Encode(idlist.View([]idlist.Range{{Lo: 5, Hi: 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&IDPart{Selected: 1<<64 - 1, List: inverted, Groups: 1}).DecodeList(idlist.RangeVB, nil); err == nil {
		t.Error("an inverted range decoded")
	}
}

// BenchmarkDecodeRuns measures reading a wide group-by's runs: one daemon's
// share of 200k rows over 16,384 groups, nearly every run one identifier —
// what the result decoder checks and decodes, once, for the client.
func BenchmarkDecodeRuns(b *testing.B) {
	const groups, rows = 1 << 14, 66_667
	var runs []byte
	for i := range rows {
		runs = appendRun(runs, 1, int(splitmix64(uint64(i))%groups), tagBits(groups))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := IDPart{Selected: rows, Runs: runs, Groups: groups}
		if err := p.DecodeRuns(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/run")
}
