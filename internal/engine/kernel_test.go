package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"seabed/internal/ope"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file pins the vectorized executor's allocation behavior and measures
// kernel throughput against the retained reference evaluator. The
// BenchmarkKernel* benchmarks are the acceptance gauge for the
// vectorization work: run
//
//	go test -bench BenchmarkKernel -benchmem ./internal/engine
//
// and compare rows/s between each kernel and its *Reference twin (the
// pre-vectorization row-at-a-time loop). CI smokes them with -benchtime=1x.

// kernelFixture builds a plaintext table: v = i%100, d = i%7, a 1024-value
// dim column w for small-domain group-by stress, and a distinct-per-row
// column whose values spread far past any bound for slot-table group-by
// stress.
func kernelFixture(tb testing.TB, rows, parts int) *store.Table {
	tb.Helper()
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	wide := make([]uint64, rows)
	uniq := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 100)
		dims[i] = uint64(i % 7)
		wide[i] = uint64(i % 1024)
		uniq[i] = uint64(i)*0x9e3779b1 + 11
	}
	tbl, err := store.Build("k", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "w", Kind: store.U64, U64: wide},
		{Name: "u", Kind: store.U64, U64: uniq},
	}, parts)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

func filterSumPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 50}},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

// resetSingle rewinds an ungrouped task's one slot — its row count and the
// sum and count lanes these benchmarks use — so execute can run again over the
// same state without reallocating.
func resetSingle(ts *taskState) {
	acc := &ts.g.acc
	acc.rows[0] = 0
	ts.res.rowsSelected = 0
	for i := range acc.cols {
		acc.cols[i].Lane[0] = 0
	}
}

// TestKernelU64FilterSumAllocFree asserts the tentpole's allocation
// guarantee: once a task's state exists, the u64 filter+sum kernel path —
// selection-vector fill, predicate compaction, bulk accumulation — touches
// the heap zero times per partition pass.
func TestKernelU64FilterSumAllocFree(t *testing.T) {
	tbl := kernelFixture(t, 1<<16, 1)
	cp, err := filterSumPlan(tbl).compile(0)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil { // warm up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("u64 filter+sum kernel path allocates %.1f allocs per pass, want 0", avg)
	}
}

// TestKernelU64JoinProbeAllocFree asserts the satellite fix for hashKeyOf:
// the typed join index probes u64 keys without rendering them as strings,
// so the probe+count path is allocation-free in steady state.
func TestKernelU64JoinProbeAllocFree(t *testing.T) {
	tbl := kernelFixture(t, 1<<14, 1)
	right := kernelFixture(t, 5, 1) // d values 0..4: dims 5 and 6 drop
	pl := &Plan{
		Table: tbl,
		Join:  &Join{Right: right, LeftCol: "d", RightCol: "d", RightCols: []string{"v"}},
		Aggs:  []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
	cp, err := pl.compile(0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.joinU64 == nil {
		t.Fatal("u64 join key did not compile to a typed u64 index")
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("u64 join probe path allocates %.1f allocs per pass, want 0", avg)
	}
}

// TestKernelU64GroupKeyAllocFree asserts the group-by fast path: u64 group
// keys never round-trip through strings, so once every group's slot exists,
// accumulating more rows allocates nothing.
func TestKernelU64GroupKeyAllocFree(t *testing.T) {
	tbl := kernelFixture(t, 1<<14, 1)
	pl := &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "w"}, // 1024 distinct u64 keys
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
	cp, err := pl.compile(0)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil { // gives every group its slot
		t.Fatal(err)
	}
	if ts.g.t.len() != 1024 {
		t.Fatalf("u64 grouper holds %d groups, want 1024", ts.g.t.len())
	}
	avg := testing.AllocsPerRun(10, func() {
		ts.res.rowsSelected = 0
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("u64 group-key path allocates %.1f allocs per pass in steady state, want 0", avg)
	}
}

// TestKernelBytesGroupKeyAllocFree asserts the same for the keys every
// encrypted GROUP BY has: 16-byte DET ciphertexts intern into slots through
// the shared table, key bytes in the task's arena, so once every group has a
// slot the batch loop — hash, probe, lane accumulation — allocates nothing.
func TestKernelBytesGroupKeyAllocFree(t *testing.T) {
	const groups = 4096
	tbl := detKeyFixture(t, 1<<14, groups, 1, false)
	pl := &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "k"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMax, Col: "v"}},
	}
	cp, err := pl.compile(0)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	ctx := context.Background()
	n := tbl.Parts[0].NumRows()
	if err := ts.execute(ctx, 0, n-1); err != nil { // gives every group its slot
		t.Fatal(err)
	}
	if ts.g.t.len() != groups {
		t.Fatalf("byte-keyed grouper holds %d groups, want %d", ts.g.t.len(), groups)
	}
	avg := testing.AllocsPerRun(10, func() {
		ts.res.rowsSelected = 0
		if err := ts.execute(ctx, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("byte-keyed group-by path allocates %.1f allocs per pass in steady state, want 0", avg)
	}
}

// TestGrouperMemoryTracksGroupsNotRows pins what a map task's group-by state
// scales with: on a partition with a hundred times more rows than groups,
// every per-slot vector holds under twice the groups — room's doubling, on a
// plan's first run; the last run's count and a quarter after it — never a
// share of the rows still to come.
func TestGrouperMemoryTracksGroupsNotRows(t *testing.T) {
	const rows, groups = 300_000, 3000
	tbl := detKeyFixture(t, rows, groups, 1, false)
	pl := &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "k"},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}},
	}
	cp, err := pl.compile(0)
	if err != nil {
		t.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	if err := ts.execute(context.Background(), 0, rows-1); err != nil {
		t.Fatal(err)
	}
	g := &ts.g
	if g.t.len() != groups {
		t.Fatalf("%d groups, want %d", g.t.len(), groups)
	}
	for name, c := range map[string]int{
		"rows":      cap(g.acc.rows),
		"lane":      cap(g.acc.cols[0].Lane),
		"key spans": cap(g.t.off),
		"key arena": cap(g.t.arena) / 16,
	} {
		if c > 2*groups {
			t.Errorf("%s: capacity for %d slots with %d groups over %d rows", name, c, groups, rows)
		}
	}
}

// TestGrouperSizedFromLastTask: a map task of a compiled plan starts sized by
// the plan's last task, so over a partition with as many groups as that one
// its slot table never grows and none of its per-slot vectors — keys,
// row counts, lanes, values — reallocates.
func TestGrouperSizedFromLastTask(t *testing.T) {
	// Two partitions, each holding every group and, at 20 rows a group and
	// suffix, every suffix of it too.
	const rows, groups = 120_000, 1000
	tbl := detKeyFixture(t, rows, groups, 2, false)
	for _, inflate := range []int{0, 3} {
		pl := &Plan{Table: tbl, GroupBy: &GroupBy{Col: "k", Inflate: inflate},
			Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}, {Kind: AggPlainMedian, Col: "v"}}}
		cp, err := pl.compile(0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		first, err := cp.runMapTask(ctx, NewCluster(Config{Workers: 4}), tbl.Parts[0])
		if err != nil {
			t.Fatal(err)
		}
		ts := cp.newTaskState(tbl.Parts[1], nil)
		g := &ts.g
		caps := func() map[string]int {
			return map[string]int{
				"table":     len(g.t.table),
				"key spans": cap(g.t.off),
				"key arena": cap(g.t.arena),
				"suffixes":  cap(g.t.sfx),
				"rows":      cap(g.acc.rows),
				"sum lane":  cap(g.acc.cols[0].Lane),
				"count":     cap(g.acc.cols[1].Lane),
				"medians":   cap(g.acc.cols[2].Vals),
			}
		}
		sized := caps()
		if err := ts.execute(ctx, 0, tbl.Parts[1].NumRows()-1); err != nil {
			t.Fatal(err)
		}
		if n := g.t.len(); n != first.groups.keys.len() || n < groups {
			t.Fatalf("inflate %d: the tasks hold %d and %d groups", inflate, first.groups.keys.len(), n)
		}
		if ran := caps(); !reflect.DeepEqual(ran, sized) {
			t.Errorf("inflate %d: capacities grew during the task\nsized %v\nran   %v", inflate, sized, ran)
		}
	}
}

// --- benchmarks: vectorized kernels vs the pre-refactor loop ---

const benchRows = 1 << 18

func reportRows(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkKernelFilterSumU64 measures the compiled kernel path alone — the
// zero-allocation claim in the acceptance criteria is this benchmark's
// allocs/op column.
func BenchmarkKernelFilterSumU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := filterSumPlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, benchRows-1); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelFilterOpe measures the OPE range filter the way a dimension
// meets it: day-of-year values (< 365, so any two ciphertexts agree on their
// first 55 trits) against one constant, about half the rows passing, then a
// count. 0 allocs/op.
func BenchmarkKernelFilterOpe(b *testing.B) {
	days := make([]uint64, benchRows)
	for i := range days {
		days[i] = uint64(i) * 0x9e3779b1 % 365
	}
	benchFilterCount(b, opeFixed("day_ope", days),
		Filter{Kind: FilterOpeCmp, Col: "day_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(180)})
}

// BenchmarkKernelFilterOpeShuffled is BenchmarkKernelFilterOpe over the same
// day-of-year values in random order. Rows there pass in a pattern that
// repeats every 365, which a branch predictor learns; here it cannot, and a
// filter that branched on each answer would pay a mispredict on about every
// other row.
func BenchmarkKernelFilterOpeShuffled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	days := make([]uint64, benchRows)
	for i := range days {
		days[i] = uint64(rng.Intn(365))
	}
	benchFilterCount(b, opeFixed("day_ope", days),
		Filter{Kind: FilterOpeCmp, Col: "day_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(180)})
}

// BenchmarkKernelFilterDetEq measures DET equality over a fixed-width column:
// one of eight values, so an eighth of the rows pass, then a count. The
// kernel reads value i at i×16 in the column's one buffer. 0 allocs/op.
func BenchmarkKernelFilterDetEq(b *testing.B) {
	ids := make([]uint64, benchRows)
	for i := range ids {
		ids[i] = uint64(i) * 0x9e3779b1 % 8
	}
	benchFilterCount(b, detFixed("id_det", ids),
		Filter{Kind: FilterDetEq, Col: "id_det", Bytes: detKey.EncryptU64(3)})
}

// benchFilterCount runs one filter and a count over a one-column partition of
// benchRows rows: the compiled kernel path alone. The task reads no codes, so
// the raw kernel runs (BenchmarkOpeFilter measures the coded one beside it).
func benchFilterCount(b *testing.B, col store.Column, f Filter) {
	tbl, err := store.Build("k", []store.Column{col}, 1)
	if err != nil {
		b.Fatal(err)
	}
	pl := &Plan{Table: tbl, Filters: []Filter{f}, Aggs: []Agg{{Kind: AggCount}}}
	cp, err := pl.compile(0)
	if err != nil {
		b.Fatal(err)
	}
	ts := cp.newTaskState(tbl.Parts[0], nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetSingle(ts)
		if err := ts.execute(ctx, 0, benchRows-1); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelFilterSumU64MapTask is the same plan through the full
// vectorized map task (bind, execute, encode, shuffle accounting) — the
// production per-partition cost.
func BenchmarkKernelFilterSumU64MapTask(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := filterSumPlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelFilterSumU64Reference is the pre-refactor row-at-a-time
// loop on the identical plan and partition.
func BenchmarkKernelFilterSumU64Reference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := filterSumPlan(tbl).compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// ashePlan sums a u64 column as ASHE ciphertext bodies (the paper's core
// aggregate): body adds plus identifier-list growth. With no filter the
// executor takes the dense path, growing the id-list by whole ranges.
func ashePlan(tbl *store.Table) *Plan {
	return &Plan{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v"}}}
}

func BenchmarkKernelAsheSum(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := ashePlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelAsheSumReference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := ashePlan(tbl).compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func groupByPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "w"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelGroupByU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := groupByPlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelGroupByU64Reference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := groupByPlan(tbl).compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkRunGroupByU64 is groupByPlan through Cluster.Run — map, reduce,
// gather — over 256 Ki rows on 8 partitions, with w's 1,024 values declared
// as KeyBound (bounded: the NoEnc shape of a SPLASHE dimension, adding into
// lanes) and not (unbounded: the slot table), on one Cluster reused across
// iterations, as a daemon's is.
func BenchmarkRunGroupByU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 8)
	for _, bound := range []uint64{1024, 0} {
		b.Run(map[bool]string{true: "bounded", false: "unbounded"}[bound > 0], func(b *testing.B) {
			mk := func() *Plan {
				pl := groupByPlan(tbl)
				pl.GroupBy.KeyBound = bound
				return pl
			}
			c := NewCluster(Config{Workers: 4})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := c.Run(ctx, mk()); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, benchRows)
		})
	}
}

// wideGroupByPlan groups on the distinct-per-row column, so the grouper's
// open-addressed table carries the whole load.
func wideGroupByPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "u"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelGroupByU64Wide(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	cp, err := wideGroupByPlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelGroupByU64WideReference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	rp, err := wideGroupByPlan(tbl).compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// wideBytesGroupByPlan is the encrypted wide GROUP BY: distinct 16-byte DET
// ciphertext keys, an ASHE sum and a count — the shape no u64 kernel above
// ever sees, and the one every Seabed-mode GROUP BY executes.
func wideBytesGroupByPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "k"},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelGroupByBytesWide(b *testing.B) {
	tbl := detKeyFixture(b, benchRows, benchRows, 1, false)
	cp, err := wideBytesGroupByPlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelGroupByBytesWideReference(b *testing.B) {
	tbl := detKeyFixture(b, benchRows, benchRows, 1, false)
	rp, err := wideBytesGroupByPlan(tbl).compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkRunGroupByBytesWide is one daemon's share of the fleet benchmark's
// wide group-by: the encrypted wide GROUP BY through Cluster.Run — map,
// shuffle, reduce, gather — over 64 Ki rows in 16 Ki groups on 8 partitions,
// on one Cluster reused across iterations, so the plan cache and the last run
// it keeps behave as a daemon's do. One untimed run first leaves that last
// run, so even a single timed iteration sees the steady state: coded, the
// table's codebook (16 Ki values, under half its rows) and its lanes; raw,
// pinned to the raw slot tables, per-task tables at about half a row per
// group per map task.
func BenchmarkRunGroupByBytesWide(b *testing.B) {
	const rows = 1 << 16
	tbl := detKeyFixture(b, rows, 1<<14, 8, false)
	for _, st := range []struct {
		name     string
		strategy groupStrategy
	}{{"coded", groupAuto}, {"raw", groupRaw}} {
		b.Run(st.name, func(b *testing.B) {
			c := NewCluster(Config{Workers: 4})
			ctx := context.Background()
			if _, err := c.run(ctx, wideBytesGroupByPlan(tbl), nil, nil, st.strategy); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(ctx, wideBytesGroupByPlan(tbl), nil, nil, st.strategy); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkRunGroupByBytes is the encrypted GROUP BY of
// BenchmarkRunGroupByBytesWide — 64 Ki rows on 8 partitions, so N ÷ (G × T)
// rows per group per map task is 8192 ÷ G — at 16 to 64 Ki groups, on both
// paths: raw, pinned to the raw slot tables over the 16-byte keys, and coded,
// the run's own choice, table-wide codes up to 32 Ki groups (half the rows),
// raw keys past. The 16- and 32-group cases are the dashboard's shape, a DET
// key of a day's hours: small tables, many rows a group.
func BenchmarkRunGroupByBytes(b *testing.B) {
	const rows = 1 << 16
	for _, groups := range []int{16, 32, 1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16} {
		tbl := detKeyFixture(b, rows, groups, 8, false)
		for _, st := range []struct {
			name     string
			strategy groupStrategy
		}{{"raw", groupRaw}, {"coded", groupAuto}} {
			b.Run(fmt.Sprintf("groups=%d/%s", groups, st.name), func(b *testing.B) {
				c := NewCluster(Config{Workers: 4})
				ctx := context.Background()
				if _, err := c.run(ctx, wideBytesGroupByPlan(tbl), nil, nil, st.strategy); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.run(ctx, wideBytesGroupByPlan(tbl), nil, nil, st.strategy); err != nil {
						b.Fatal(err)
					}
				}
				reportRows(b, rows)
			})
		}
	}
}

// genericGroupByPlan is TestDifferentialDetKeys' seabed/generic mix over the
// wide DET keys: an OPE minimum and an OPE median, each with an ASHE
// companion, beside an ASHE sum — the kinds that accumulate in a value per
// slot beside the lanes.
func genericGroupByPlan(tbl *store.Table) *Plan {
	return &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "k"},
		Aggs: []Agg{{Kind: AggOpeMin, Col: "v_ope", Companion: "v_ashe"},
			{Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}, {Kind: AggAsheSum, Col: "v_ashe"}},
	}
}

func BenchmarkKernelGroupByGeneric(b *testing.B) {
	tbl := detKeyFixture(b, benchRows, benchRows, 1, true)
	cp, err := genericGroupByPlan(tbl).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func joinPlan(tbl, right *store.Table) *Plan {
	return &Plan{
		Table: tbl,
		Join:  &Join{Right: right, LeftCol: "d", RightCol: "d", RightCols: []string{"v"}},
		Aggs:  []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	}
}

func BenchmarkKernelJoinProbeU64(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	right := kernelFixture(b, 5, 1)
	cp, err := joinPlan(tbl, right).compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelJoinProbeU64Reference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	right := kernelFixture(b, 5, 1)
	rp, err := joinPlan(tbl, right).compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// BenchmarkKernelScanProject measures the scan projection: a map task's
// survivors gathered column by column into its one chunk.
func BenchmarkKernelScanProject(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	pl := &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
		Project: []string{"v", "w"},
	}
	cp, err := pl.compile(0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

func BenchmarkKernelScanProjectReference(b *testing.B) {
	tbl := kernelFixture(b, benchRows, 1)
	pl := &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
		Project: []string{"v", "w"},
	}
	rp, err := pl.compileReference()
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(Config{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.runMapTask(ctx, c, tbl.Parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, benchRows)
}

// TestOpeFilterKernelTrits holds the branch-free OPE range filter to
// ope.CompareWords, the row-at-a-time comparison: every one of the 16 trit
// pairs (row, constant) — hostile code-3 trits among them — at first
// differences low, middle and high in each word, and equal ciphertexts, under
// every operator.
func TestOpeFilterKernelTrits(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	for _, inLo := range []bool{false, true} {
		for _, trit := range []uint{0, 1, 15, 30, 31} {
			for y := uint64(0); y < 4; y++ {
				// The constant has trit y at the position; each row agrees with it
				// above, holds trit x there, and anything below.
				shift := 2 * trit
				chi, clo := rng.Uint64(), rng.Uint64()
				word := &chi
				if inLo {
					word = &clo
				}
				*word = *word&^(3<<shift) | y<<shift
				var rows [][2]uint64
				for x := uint64(0); x < 4; x++ {
					for range 3 {
						rhi, rlo := chi, rng.Uint64()
						rw := &rhi
						if inLo {
							rw = &rlo
						}
						above := ^uint64(0) << shift << 2 // the trits above the position
						*rw = *word&above | x<<shift | rng.Uint64()&(1<<shift-1)
						rows = append(rows, [2]uint64{rhi, rlo})
					}
				}
				rows = append(rows, [2]uint64{chi, clo}) // equal ciphertexts
				col := store.Column{Name: "o", Kind: store.Fixed, Width: ope.CiphertextSize}
				for _, r := range rows {
					col.Fixed = binary.BigEndian.AppendUint64(col.Fixed, r[0])
					col.Fixed = binary.BigEndian.AppendUint64(col.Fixed, r[1])
				}
				tbl, err := store.Build("o", []store.Column{col}, 1)
				if err != nil {
					t.Fatal(err)
				}
				constant := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, chi), clo)
				for _, op := range ops {
					cp, err := (&Plan{Table: tbl, Aggs: []Agg{{Kind: AggCount}},
						Filters: []Filter{{Kind: FilterOpeCmp, Col: "o", Op: op, Bytes: constant}}}).compile(0)
					if err != nil {
						t.Fatal(err)
					}
					ts := cp.newTaskState(tbl.Parts[0], nil)
					b := batch{}
					var want []int32
					for i, r := range rows {
						b.sel = append(b.sel, int32(i))
						if cmpMatch(op, ope.CompareWords(r[0], r[1], chi, clo)) {
							want = append(want, int32(i))
						}
					}
					cp.preds[0](&ts.pc, &b, tbl.Parts[0].StartID)
					if !slices.Equal(b.sel, want) {
						t.Errorf("lo=%v trit %d, constant trit %d, %v: kernel keeps %v, CompareWords %v", inLo, trit, y, op, b.sel, want)
					}
				}
			}
		}
	}
}
