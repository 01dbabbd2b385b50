package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// shardRuns runs the same plan once over the whole table and once as three
// Partial, range-scoped shard slices — the sub-queries a coordinator scatters —
// every run in the given group-by strategy, and returns the unscoped plan to
// merge them under, the slices' results and the whole-table result.
func shardRuns(t *testing.T, cl *Cluster, tbl *store.Table, mkPlan func(tbl *store.Table) *Plan, strategy groupStrategy) (*Plan, []*Result, *Result) {
	t.Helper()
	whole, err := cl.run(context.Background(), mkPlan(tbl), false, nil, strategy)
	if err != nil {
		t.Fatal(err)
	}
	subs := tbl.SplitRanges(3)
	partials := make([]*Result, len(subs))
	merged := mkPlan(tbl)
	for i, sub := range subs {
		pl := mkPlan(sub)
		pl.Partial = true
		if sub.NumRows() > 0 {
			pl.Range = &IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
		}
		if partials[i], err = cl.run(context.Background(), pl, false, nil, strategy); err != nil {
			t.Fatal(err)
		}
	}
	return merged, partials, whole
}

// shardSplit merges shardRuns' slices with MergeResults and returns the merged
// and the whole-table result, for the caller to assert identical groups and
// scan rows — the unit-level version of the loopback acceptance test in
// internal/fleet.
func shardSplit(t *testing.T, tbl *store.Table, mkPlan func(tbl *store.Table) *Plan) (*Result, *Result) {
	t.Helper()
	merged, partials, want := shardRuns(t, NewCluster(Config{Workers: 4}), tbl, mkPlan, groupAuto)
	got, err := MergeResults(merged, partials)
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

func TestMergeResultsMatchesSingleRun(t *testing.T) {
	const rows = 999
	vals := make([]uint64, rows)
	grp := make([]uint64, rows)
	idx := make([]uint64, rows)
	for i := range vals {
		vals[i] = uint64(i*i%1000 + 1)
		grp[i] = uint64(i % 5)
		idx[i] = uint64(i + 1)
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "g", Kind: store.U64, U64: grp},
		{Name: "idx", Kind: store.U64, U64: idx},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(tbl *store.Table) *Plan{
		"sum-count-minmax": func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl, Aggs: []Agg{
				{Kind: AggPlainSum, Col: "v"},
				{Kind: AggCount},
				{Kind: AggPlainMin, Col: "v"},
				{Kind: AggPlainMax, Col: "v"},
			}}
		},
		"ashe-sum": func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v"}}}
		},
		"median": func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}}}
		},
		"group-by": func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl,
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggAsheSum, Col: "v"}},
				GroupBy: &GroupBy{Col: "g"}}
		},
		"filtered-empty-shards": func(tbl *store.Table) *Plan {
			// Only rows 1..3 match: the later shards select nothing, so the
			// merge must honor the "seen" semantics for min/max.
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "idx", Op: sqlparse.OpLe, U64: 3}},
				Aggs:    []Agg{{Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMax, Col: "v"}, {Kind: AggCount}}}
		},
		"filtered-no-match": func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 1_000_000}},
				Aggs:    []Agg{{Kind: AggPlainMin, Col: "v"}, {Kind: AggCount}}}
		},
		"scan": func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "g", Op: sqlparse.OpEq, U64: 2}},
				Project: []string{"v"}}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			got, want := shardSplit(t, tbl, mk)
			if !reflect.DeepEqual(got.View(), want.View()) {
				t.Errorf("merged groups differ:\n got %+v\nwant %+v", got.View(), want.View())
			}
			if !reflect.DeepEqual(flatScan(got.Scan), flatScan(want.Scan)) {
				t.Errorf("merged scan differs:\n got %+v\nwant %+v", got.Scan, want.Scan)
			}
			if got.Metrics.RowsScanned != want.Metrics.RowsScanned {
				t.Errorf("rows scanned = %d, want %d", got.Metrics.RowsScanned, want.Metrics.RowsScanned)
			}
		})
	}
}

// TestIDRangeScoping pins the shard frame: a range-scoped plan aggregates
// only the rows inside [Lo, Hi], skipping partitions wholly outside.
func TestIDRangeScoping(t *testing.T) {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = 1
	}
	tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: vals}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(Config{Workers: 2})
	res, err := cl.Run(context.Background(), &Plan{Table: tbl,
		Range: &IDRange{Lo: 11, Hi: 40},
		Aggs:  []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.View()[0].Aggs[0].U64; got != 30 {
		t.Fatalf("scoped sum = %d, want 30", got)
	}
	if res.Metrics.RowsScanned != 30 {
		t.Fatalf("scoped rows scanned = %d, want 30", res.Metrics.RowsScanned)
	}
	// An inverted range selects nothing but still yields the zero group.
	res, err = cl.Run(context.Background(), &Plan{Table: tbl,
		Range: &IDRange{Lo: 50, Hi: 10},
		Aggs:  []Agg{{Kind: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.View()[0].Aggs[0].U64 != 0 || res.Metrics.RowsScanned != 0 {
		t.Fatalf("inverted range scanned %d rows, counted %d", res.Metrics.RowsScanned, res.View()[0].Aggs[0].U64)
	}
}

// TestMergeRefusesHostileMedian: a shard's OPE-median collection whose
// identifiers are fewer than its ciphertexts — or whose companions are
// neither absent nor one per ciphertext — is refused where shard columns
// enter the merge, with an error naming the aggregate and the group, grouped
// and ungrouped, instead of panicking the median's collapse.
func TestMergeRefusesHostileMedian(t *testing.T) {
	aggs := []Agg{{Kind: AggCount}, {Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}}
	cts := [][]byte{opeKey.Encrypt(3), opeKey.Encrypt(1), opeKey.Encrypt(2)}
	short := AggValue{Kind: AggOpeMedian, MedOpe: cts, MedIDs: []uint64{7}}
	badComp := AggValue{Kind: AggOpeMedian, MedOpe: cts, MedIDs: []uint64{7, 8, 9}, MedComp: []uint64{1}}
	honest := AggValue{Kind: AggOpeMedian, MedOpe: cts[:1], MedIDs: []uint64{4}, MedComp: []uint64{5}}
	one := func(av AggValue) *GroupCols {
		n := uint64(len(av.MedOpe))
		return &GroupCols{KeyKind: store.U64, KeyU64: []uint64{0}, Rows: []uint64{n},
			Aggs: []AggCol{{Kind: AggCount, Lane: []uint64{n}}, {Kind: AggOpeMedian, Vals: []AggValue{av}}}}
	}
	two := func(av AggValue) *GroupCols {
		return &GroupCols{KeyKind: store.U64, KeyU64: []uint64{4, 5}, Rows: []uint64{1, 3},
			Aggs: []AggCol{{Kind: AggCount, Lane: []uint64{1, 3}}, {Kind: AggOpeMedian, Vals: []AggValue{honest, av}}}}
	}
	for _, tc := range []struct {
		name  string
		group *GroupBy
		cols  *GroupCols
		want  string
	}{
		{"ungrouped", nil, one(short), "aggregate 1 (ope_median) of group 0 collects 3 ciphertexts with 1 identifiers"},
		{"grouped", &GroupBy{Col: "k"}, two(short), "aggregate 1 (ope_median) of group 1 collects 3 ciphertexts with 1 identifiers"},
		{"companions", &GroupBy{Col: "k"}, two(badComp), "aggregate 1 (ope_median) of group 1 collects 3 ciphertexts with 3 identifiers and 1 companions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := &Plan{Aggs: aggs, GroupBy: tc.group}
			honestShard := &Result{Cols: one(honest)}
			if tc.group != nil {
				honestShard.Cols.KeyU64[0] = 4
			}
			_, err := Merge(pl, []*Result{honestShard, {Cols: tc.cols}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("merging a hostile median collection: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// wideShardPartials runs the encrypted wide GROUP BY (16-byte DET keys, ASHE
// sum + count) as three Partial range plans, returning the unscoped plan and
// the partials a coordinator would gather for it. Every group has rows in
// every range.
func wideShardPartials(tb testing.TB, groups int) (*Plan, []*Result) {
	tb.Helper()
	tbl := detKeyFixture(tb, 6*groups, groups, 6, false)
	cl := NewCluster(Config{Workers: 4})
	mk := func(tbl *store.Table) *Plan {
		pl := wideBytesGroupByPlan(tbl)
		pl.Codec = idlist.VBDiff
		return pl
	}
	subs := tbl.SplitRanges(3)
	partials := make([]*Result, len(subs))
	for i, sub := range subs {
		pl := mk(sub)
		pl.Partial = true
		pl.Range = &IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
		var err error
		if partials[i], err = cl.Run(context.Background(), pl); err != nil {
			tb.Fatal(err)
		}
		if len(partials[i].View()) != groups {
			tb.Fatalf("range %d holds %d groups, want %d", i, len(partials[i].View()), groups)
		}
	}
	return mk(tbl), partials
}

// TestMergeResultsAllocsPerGroup pins the coordinator merge's allocation
// shape: folding three 16k-group partials allocates a fixed handful of blocks
// — key arena, lanes, identifier-list arena, one []AggValue, one []Group —
// not several objects per group.
func TestMergeResultsAllocsPerGroup(t *testing.T) {
	const groups = 1 << 14
	pl, partials := wideShardPartials(t, groups)
	res, err := MergeResults(pl, partials)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.View()) != groups || res.View()[0].Rows != 6 {
		t.Fatalf("merged %d groups of %d rows, want %d of 6", len(res.View()), res.View()[0].Rows, groups)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := MergeResults(pl, partials); err != nil {
			t.Fatal(err)
		}
	})
	if avg > groups/64 {
		t.Fatalf("MergeResults over three %d-group partials makes %.0f allocations, want at most %d", groups, avg, groups/64)
	}
}

// BenchmarkMergeResultsWide measures the coordinator's merge of three shards'
// 16k-group encrypted GROUP BY results: what a fleet query pays between the
// last shard's frame and decryption.
func BenchmarkMergeResultsWide(b *testing.B) {
	const groups = 1 << 14
	pl, partials := wideShardPartials(b, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeResults(pl, partials); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(3*groups)*float64(b.N)/b.Elapsed().Seconds(), "groups/s")
}

// BenchmarkMergeWide is BenchmarkMergeResultsWide without the row view: what
// the fleet coordinator runs (engine.Merge), columns in and columns out, the
// merged identifier lists left decoded for the client.
func BenchmarkMergeWide(b *testing.B) {
	const groups = 1 << 14
	pl, partials := wideShardPartials(b, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(pl, partials); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(3*groups)*float64(b.N)/b.Elapsed().Seconds(), "groups/s")
}
