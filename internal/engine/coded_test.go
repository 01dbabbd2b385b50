package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"seabed/internal/ope"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file holds the differential tests of coded columns: a partition's
// DET and OPE columns with few distinct values carry dictionaries
// (store.Partition.Dict), over which a map task runs its filters as pass
// tables and resolves group keys once per code. A table whose partitions fall
// on both sides of the distinct limit must answer every query as the
// reference evaluator does, which reads raw values only.

const codedPartRows = 512

// codedLayout lists the fixture's partitions: their rows, distinct DET keys,
// distinct OPE values (hostile ones included) and whether each column is
// coded, which the distinct counts decide (a quarter of the rows: 128 of 512,
// 10 of 40). The last two partitions are small appends.
var codedLayout = []struct {
	rows, keys, opes int
	hostile          bool
	codedK, codedO   bool
}{
	{codedPartRows, 4, 6, true, true, true},
	{codedPartRows, 128, 128, false, true, true},
	{codedPartRows, 129, 131, true, false, false},
	{codedPartRows, 300, 300, false, false, false},
	{40, 6, 6, false, true, true},
	{40, 25, 25, false, false, false},
}

// hostileOpe is the ciphertext of v with a code-3 trit at trit position p of
// its low word: no encryption makes it, and a daemon must answer for it as
// ope.CompareWords does.
func hostileOpe(v uint64, p uint) []byte {
	hi, lo := ope.Words(opeKey.Encrypt(v))
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, hi), lo|3<<(2*p))
}

// codedFixture builds the table codedLayout describes and a join's right
// side. DET keys are values 0..keys−1 and OPE values 10+3j, every one of them
// used in its partition; the hostile partitions' first two rows hold code-3
// ciphertexts instead.
func codedFixture(tb testing.TB) (*store.Table, *store.Table) {
	tb.Helper()
	rng := rand.New(rand.NewSource(50))
	draw := func(i, n int) uint64 {
		if i < n {
			return uint64(i)
		}
		return uint64(rng.Intn(n))
	}
	var tbl *store.Table
	start := uint64(1)
	for _, l := range codedLayout {
		keys, opeVals, v, asheCol := make([]uint64, l.rows), make([]uint64, l.rows), make([]uint64, l.rows), make([]uint64, l.rows)
		opes := l.opes
		if l.hostile {
			opes -= 2
		}
		for i := range l.rows {
			keys[i] = draw((i+7)%l.rows, l.keys)
			opeVals[i] = 10 + 3*draw(i, opes)
			v[i] = uint64(rng.Intn(1000))
			asheCol[i] = asheKey.EncryptBody(v[i], start+uint64(i))
		}
		o := opeFixed("o", opeVals)
		if l.hostile {
			// Two more rows, two more distinct values: shift the rows they
			// displace to the end so every honest value stays used.
			copy(o.Fixed[16*l.rows-32:], o.Fixed[:32])
			copy(o.Fixed, hostileOpe(13, 3))
			copy(o.Fixed[16:], hostileOpe(700, 30))
		}
		part, err := store.BuildFrom("c", []store.Column{
			detFixed("k", keys), o,
			{Name: "v", Kind: store.U64, U64: v},
			{Name: "v_ashe", Kind: store.U64, U64: asheCol},
		}, 1, start)
		if err != nil {
			tb.Fatal(err)
		}
		if tbl == nil {
			tbl = part
		} else if err := tbl.AppendTable(part); err != nil {
			tb.Fatal(err)
		}
		start += uint64(l.rows)
	}
	const rrows = 90 // keys 0..89 join; the rest drop
	rk, tier, rv := make([]uint64, rrows), make([]uint64, rrows), make([]uint64, rrows)
	for i := range rrows {
		rk[i], tier[i], rv[i] = uint64(i), uint64(i%3), uint64(i*7)
	}
	right, err := store.Build("r", []store.Column{detFixed("rk", rk), detFixed("tier", tier),
		{Name: "rv", Kind: store.U64, U64: rv}}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl, right
}

// codedCases lists the queries: every comparison operator against OPE
// constants below, equal to, between and above the stored values and one
// with a code-3 trit; DET equality and its negation on present and absent
// keys; and group-bys on the DET and the OPE column, with and without
// inflation and a filter, and on a right-side key.
func codedCases() []diffCase {
	var cases []diffCase
	aggs := []Agg{{Kind: AggCount}, {Kind: AggPlainSum, Col: "v"}, {Kind: AggAsheSum, Col: "v_ashe"}}
	consts := []struct {
		name string
		ct   []byte
	}{
		{"below", opeKey.Encrypt(2)}, {"equal", opeKey.Encrypt(10 + 3*5)}, {"between", opeKey.Encrypt(10 + 3*5 + 1)},
		{"above", opeKey.Encrypt(1 << 20)}, {"hostile", hostileOpe(100, 7)},
	}
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	for _, c := range consts {
		for _, op := range ops {
			f := Filter{Kind: FilterOpeCmp, Col: "o", Op: op, Bytes: c.ct}
			cases = append(cases, diffCase{fmt.Sprintf("ope/%s/%v", c.name, op), func(tbl, _ *store.Table) *Plan {
				return &Plan{Table: tbl, Filters: []Filter{f}, Aggs: aggs}
			}})
		}
	}
	for _, key := range []uint64{2, 128, 250, 999} {
		for _, neg := range []bool{false, true} {
			f := Filter{Kind: FilterDetEq, Col: "k", Bytes: detKey.EncryptU64(key), Negate: neg}
			cases = append(cases, diffCase{fmt.Sprintf("det/%d/negate=%v", key, neg), func(tbl, _ *store.Table) *Plan {
				return &Plan{Table: tbl, Filters: []Filter{f}, Aggs: aggs}
			}})
		}
	}
	gbAggs := []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}, {Kind: AggPlainMin, Col: "v"},
		{Kind: AggOpeMin, Col: "o", Companion: "v_ashe"}}
	rangeFilter := Filter{Kind: FilterOpeCmp, Col: "o", Op: sqlparse.OpLe, Bytes: opeKey.Encrypt(10 + 3*60)}
	for _, col := range []string{"k", "o"} {
		for _, inflate := range []int{0, 3} {
			for _, filtered := range []bool{false, true} {
				var filters []Filter
				if filtered {
					filters = []Filter{rangeFilter, {Kind: FilterDetEq, Col: "k", Bytes: detKey.EncryptU64(3), Negate: true}}
				}
				cases = append(cases, diffCase{fmt.Sprintf("group-by-%s/inflate=%d/filtered=%v", col, inflate, filtered), func(tbl, _ *store.Table) *Plan {
					return &Plan{Table: tbl, Filters: filters, GroupBy: &GroupBy{Col: col, Inflate: inflate}, Aggs: gbAggs}
				}})
			}
		}
	}
	cases = append(cases, diffCase{"join/group-by-right", func(tbl, right *store.Table) *Plan {
		return &Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "k", RightCol: "rk", RightCols: []string{"tier", "rv"}},
			Filters: []Filter{rangeFilter},
			GroupBy: &GroupBy{Col: "tier"}, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rv"}}}
	}}, diffCase{"join/group-by-left", func(tbl, right *store.Table) *Plan {
		return &Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "k", RightCol: "rk", RightCols: []string{"rv"}},
			GroupBy: &GroupBy{Col: "k"}, Aggs: []Agg{{Kind: AggCount}, {Kind: AggPlainSum, Col: "rv"}}}
	}})
	return cases
}

// TestDifferentialCoded runs every coded case through the vectorized executor
// and the reference evaluator, on heap partitions and on view partitions
// recovered from a segment, and each group-by in both strategies: every
// answer must be the reference's. The partitions the layout says are coded
// are, the others are not, and a DET group-by's per-task tables resolve the
// coded partitions' rows by code (dense) and the rest by hash.
func TestDifferentialCoded(t *testing.T) {
	tbl, right := codedFixture(t)
	vtbl := viewOf(t, tbl)
	c := NewCluster(Config{Workers: 4, Seed: 12})
	ctx := context.Background()
	for _, tc := range codedCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, tb := range []struct {
				name string
				tbl  *store.Table
			}{{"heap", tbl}, {"view", vtbl}} {
				name := tc.name + " (" + tb.name + ")"
				ref, err := c.RunReference(ctx, tc.plan(tb.tbl, right))
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				vec, err := c.Run(ctx, tc.plan(tb.tbl, right))
				if err != nil {
					t.Fatalf("%s: vectorized: %v", name, err)
				}
				assertSameResult(t, name, vec, ref)
				if tc.plan(tb.tbl, right).GroupBy != nil {
					bothStrategies(t, c, name, func() *Plan { return tc.plan(tb.tbl, right) }, ref)
				}
			}
		})
	}

	for _, tb := range []*store.Table{tbl, vtbl} {
		for i, p := range tb.Parts {
			release, err := p.Pin(nil)
			if err != nil {
				t.Fatal(err)
			}
			l := codedLayout[i]
			if gotK, gotO := p.Dict(p.ColIndex("k")) != nil, p.Dict(p.ColIndex("o")) != nil; gotK != l.codedK || gotO != l.codedO {
				t.Errorf("partition %d: k coded %v, o coded %v; want %v, %v", i, gotK, gotO, l.codedK, l.codedO)
			}
			release()
		}
	}
	res, err := c.run(ctx, &Plan{Table: tbl, GroupBy: &GroupBy{Col: "k"}, Aggs: []Agg{{Kind: AggCount}}}, nil, nil, groupTables)
	if err != nil {
		t.Fatal(err)
	}
	var coded uint64
	for i, l := range codedLayout {
		if l.codedK {
			coded += uint64(tbl.Parts[i].NumRows())
		}
	}
	if ops := res.Metrics.Ops; ops.GroupDense != coded || ops.GroupHash != tbl.NumRows()-coded {
		t.Errorf("DET group-by resolved %d rows by code and %d by hash, want %d and %d", ops.GroupDense, ops.GroupHash, coded, tbl.NumRows()-coded)
	}
}

// TestCodedAcrossEviction serves the fixture as view partitions under a
// budget of one partition's columns: each run evicts what the last one
// faulted. The answers stay the reference's, run after run, and a partition
// keeps the dictionaries its first run built.
func TestCodedAcrossEviction(t *testing.T) {
	heap, _ := codedFixture(t)
	res := store.NewResidency(1)
	tbl := viewTable(t, heap, res, -1)
	c := NewCluster(Config{Workers: 2})
	ctx := context.Background()
	plans := []func(*store.Table) *Plan{
		func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl, Filters: []Filter{{Kind: FilterOpeCmp, Col: "o", Op: sqlparse.OpGt, Bytes: opeKey.Encrypt(40)}},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		},
		func(tbl *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "k"}, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		},
	}
	var dicts []*store.Dict
	for round := range 3 {
		for _, mk := range plans {
			ref, err := c.RunReference(ctx, mk(heap))
			if err != nil {
				t.Fatal(err)
			}
			vec, err := c.Run(ctx, mk(tbl))
			if err != nil {
				t.Fatal(err)
			}
			// From the second round on, the group-by may bucket its rows
			// (groupHint): its map-output bytes are not the reference's.
			assertSameGroups(t, fmt.Sprintf("round %d", round), mk(heap), vec, ref)
		}
		var now []*store.Dict
		for _, p := range tbl.Parts {
			release, err := p.Pin(nil)
			if err != nil {
				t.Fatal(err)
			}
			now = append(now, p.Dict(p.ColIndex("k")), p.Dict(p.ColIndex("o")))
			release()
		}
		if dicts == nil {
			dicts = now
		} else if !slices.Equal(now, dicts) {
			t.Errorf("round %d: the partitions' dictionaries were rebuilt", round)
		}
	}
	if st := res.Stats(); st.Evictions == 0 {
		t.Fatalf("nothing was evicted: %+v", st)
	}
}

// TestFixedJoinIndex holds the broadcast join's index over a Fixed key to a
// Go map of the same keys: a duplicate key finds its last row, as the
// reference evaluator's hash build does, and an absent key none. A join whose
// keys hold values of different layouts is refused when the plan compiles.
func TestFixedJoinIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(2000)) // about a third of the keys repeat
	}
	key := detFixed("rk", vals)
	x := newFixedIndex(&key)
	want := map[string]int32{}
	for i := range vals {
		want[string(key.BytesAt(i))] = int32(i)
	}
	for v := range uint64(2100) {
		ct := detKey.EncryptU64(v)
		j, ok := want[string(ct)]
		if !ok {
			j = -1
		}
		if got := x.find(ct); got != j {
			t.Fatalf("key of %d: row %d, want %d", v, got, j)
		}
	}

	tbl, right := codedFixture(t)
	_, err := (&Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "v", RightCol: "rk"}, Aggs: []Agg{{Kind: AggCount}}}).compile(0)
	if err == nil {
		t.Fatal("a join of a u64 key to a Fixed one compiled")
	}
}

// BenchmarkOpeFilter is the OPE range filter over one 8,192-row partition of
// day-of-year values in random order, about half the rows passing, then a
// count: coded, through the partition's dictionary, and raw, with the same
// task's pass table taken away.
func BenchmarkOpeFilter(b *testing.B) {
	const rows = 8192
	rng := rand.New(rand.NewSource(1))
	days := make([]uint64, rows)
	for i := range days {
		days[i] = uint64(rng.Intn(365))
	}
	tbl, err := store.Build("k", []store.Column{opeFixed("day_ope", days)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	pl := &Plan{Table: tbl, Aggs: []Agg{{Kind: AggCount}},
		Filters: []Filter{{Kind: FilterOpeCmp, Col: "day_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(180)}}}
	cp, err := pl.compile(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, coded := range []bool{true, false} {
		b.Run(map[bool]string{true: "coded", false: "raw"}[coded], func(b *testing.B) {
			ts := cp.newTaskState(tbl.Parts[0])
			if ts.pc.codes[0] == nil {
				b.Fatal("the partition is not coded")
			}
			if !coded {
				ts.pc.codes[0] = nil
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				resetSingle(ts)
				if err := ts.execute(ctx, 0, rows-1); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, rows)
		})
	}
}
