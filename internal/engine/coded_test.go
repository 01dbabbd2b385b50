package engine

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"

	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file holds the differential tests of table-wide codes (codes.go): the
// 16-byte Fixed columns a plan filters, groups or joins on are coded against
// one codebook per column of the table's lineage (store.Codebook), and a map
// task runs its filters as pass tables over the codes, probes a join by code,
// and — for a lane-shaped group-by — adds into code-indexed lanes. Whatever
// the codebook holds, and whichever partitions it left raw, every query must
// answer as the reference evaluator does, which reads raw values only.

// codedBatch is one batch of the fixture's lineage: its partitions' rows, the
// DET keys it draws from (keys [lo, hi)), the OPE values (10+3j for j under
// opes, hostile code-3 ones in the first two rows when hostile), and whether
// the key column is coded once the batch is appended.
type codedBatch struct {
	parts, rows int
	lo, hi      int
	opes        int
	hostile     bool
	codedK      bool
}

// codedBatches grows one table: a base of four partitions, then appends. The
// key codebook grows with the first append's 20 new keys; the third batch's
// 2,048 fresh keys would take it past half the rows coded with it (60 +
// 2,048 > (2,088 + 2,048) / 2), so that partition keeps raw keys, and the
// fourth, with no new key, is coded again; the OPE column, with few values,
// stays coded throughout. (A table recovered whole from the third batch on
// is a fresh lineage, whose first coding refuses the key column outright.)
var codedBatches = []codedBatch{
	{4, 512, 0, 40, 30, true, true},
	{1, 40, 40, 60, 36, false, true},
	{1, 2048, 1000, 3048, 30, true, false},
	{1, 40, 0, 60, 6, false, true},
}

// hostileOpe is the ciphertext of v with a code-3 trit at trit position p of
// its low word: no encryption makes it, and a daemon must answer for it as
// ope.CompareWords does.
func hostileOpe(v uint64, p uint) []byte {
	hi, lo := ope.Words(opeKey.Encrypt(v))
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, hi), lo|3<<(2*p))
}

// codedKeys is the Paillier key of the fixture's v_pail column and a pool
// of masks for it, made once.
var codedKeys = sync.OnceValues(func() (*paillier.PrivateKey, *paillier.MaskPool) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	pool, err := sk.NewMaskPool(rand.Reader, 16)
	if err != nil {
		panic(err)
	}
	return sk, pool
})

// codedTable builds one batch of the fixture at identifier start: every key
// of [lo, hi) used, the rest drawn at random; a unique DET column u, which
// the codebook refuses; a measure in plaintext, ASHE and Paillier form.
func codedTable(tb testing.TB, rng *mrand.Rand, b codedBatch, start uint64) *store.Table {
	tb.Helper()
	sk, pool := codedKeys()
	n := b.parts * b.rows
	keys, opeVals, v, asheCol, uniq := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	pail := make([][]byte, n)
	span := b.hi - b.lo
	for i := range n {
		keys[i] = uint64(b.lo + rng.Intn(span))
		if i < span {
			keys[i] = uint64(b.lo + i)
		}
		opeVals[i] = 10 + 3*uint64(rng.Intn(b.opes))
		if i < b.opes {
			opeVals[i] = 10 + 3*uint64(i)
		}
		v[i] = uint64(rng.Intn(1000))
		asheCol[i] = asheKey.EncryptBody(v[i], start+uint64(i))
		uniq[i] = start + uint64(i) + 1<<20
		pail[i] = sk.Marshal(pool.EncryptU64(v[i]))
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	o := opeFixed("o", opeVals)
	if b.hostile {
		copy(o.Fixed, hostileOpe(13, 3))
		copy(o.Fixed[16:], hostileOpe(700, 30))
	}
	tbl, err := store.BuildFrom("c", []store.Column{
		detFixed("k", keys), o,
		{Name: "v", Kind: store.U64, U64: v},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
		{Name: "v_pail", Kind: store.Bytes, Bytes: pail},
		detFixed("u", uniq),
	}, b.parts, start)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// codedLineage returns the fixture's tables as they grow, one per batch,
// each the last grown by WithAppended (as a daemon appends), and a join's
// right side.
func codedLineage(tb testing.TB) ([]*store.Table, *store.Table) {
	tb.Helper()
	rng := mrand.New(mrand.NewSource(50))
	var out []*store.Table
	start := uint64(1)
	for _, b := range codedBatches {
		batch := codedTable(tb, rng, b, start)
		if len(out) == 0 {
			out = append(out, batch)
		} else {
			grown, err := out[len(out)-1].WithAppended(batch)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, grown)
		}
		start += uint64(b.parts * b.rows)
	}
	return out, codedRight(tb)
}

// codedRight is the join's right side: keys 0..89, the later ones twice (the
// last occurrence wins), a tier and a payload.
func codedRight(tb testing.TB) *store.Table {
	const rrows = 120
	rk, tier, rv := make([]uint64, rrows), make([]uint64, rrows), make([]uint64, rrows)
	for i := range rrows {
		rk[i], tier[i], rv[i] = uint64(i%90), uint64(i%3), uint64(i*7)
	}
	right, err := store.Build("r", []store.Column{detFixed("rk", rk), detFixed("tier", tier),
		{Name: "rv", Kind: store.U64, U64: rv}}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return right
}

// codedCases lists the queries: every comparison operator against OPE
// constants below, equal to, between and above the stored values and one
// with a code-3 trit; DET equality and its negation on present and absent
// keys; lane-shaped group-bys on the DET and the OPE column, with and without
// filters and inflation, which add into lanes where every partition is coded,
// and the same on a refused key; the group-bys that keep their raw paths
// under non-lane aggregates — Paillier, OPE extremes, medians; and joins
// probed by code, grouped by a left key or by a right-side key that the right
// table's codebook codes, inflated or not.
func codedCases(pk *paillier.PublicKey) []diffCase {
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
	for _, key := range []uint64{2, 45, 128, 250, 999, 1500} {
		for _, neg := range []bool{false, true} {
			f := Filter{Kind: FilterDetEq, Col: "k", Bytes: detKey.EncryptU64(key), Negate: neg}
			cases = append(cases, diffCase{fmt.Sprintf("det/%d/negate=%v", key, neg), func(tbl, _ *store.Table) *Plan {
				return &Plan{Table: tbl, Filters: []Filter{f}, Aggs: aggs}
			}})
		}
	}
	lanes := []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}, {Kind: AggPlainSum, Col: "v"},
		{Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMax, Col: "v"}}
	rangeFilter := Filter{Kind: FilterOpeCmp, Col: "o", Op: sqlparse.OpLe, Bytes: opeKey.Encrypt(10 + 3*20)}
	filters := []Filter{rangeFilter, {Kind: FilterDetEq, Col: "k", Bytes: detKey.EncryptU64(3), Negate: true}}
	for _, col := range []string{"k", "o", "u"} {
		for _, inflate := range []int{0, 3} {
			for _, filtered := range []bool{false, true} {
				var fs []Filter
				if filtered {
					fs = filters
				}
				cases = append(cases, diffCase{fmt.Sprintf("group-by-%s/inflate=%d/filtered=%v", col, inflate, filtered), func(tbl, _ *store.Table) *Plan {
					return &Plan{Table: tbl, Filters: fs, GroupBy: &GroupBy{Col: col, Inflate: inflate}, Aggs: lanes}
				}})
			}
		}
	}
	raw := []struct {
		name string
		aggs []Agg
	}{
		{"paillier", []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}, {Kind: AggCount}}},
		{"ope-extremes", []Agg{{Kind: AggOpeMin, Col: "o", Companion: "v_ashe"}, {Kind: AggOpeMax, Col: "o"}, {Kind: AggAsheSum, Col: "v_ashe"}}},
		{"medians", []Agg{{Kind: AggOpeMedian, Col: "o", Companion: "v_ashe"}, {Kind: AggPlainMedian, Col: "v"}}},
	}
	for _, r := range raw {
		cases = append(cases, diffCase{"group-by-k/" + r.name, func(tbl, _ *store.Table) *Plan {
			return &Plan{Table: tbl, Filters: filters, GroupBy: &GroupBy{Col: "k"}, Aggs: r.aggs}
		}})
	}
	cases = append(cases, diffCase{"join/group-by-right", func(tbl, right *store.Table) *Plan {
		// join_gb's shape: the left key probed by code, grouped by a right column.
		return &Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "k", RightCol: "rk", RightCols: []string{"tier"}},
			GroupBy: &GroupBy{Col: "tier"}, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
	}}, diffCase{"join/group-by-right/inflate=3", func(tbl, right *store.Table) *Plan {
		return &Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "k", RightCol: "rk", RightCols: []string{"tier"}},
			Filters: []Filter{rangeFilter},
			GroupBy: &GroupBy{Col: "tier", Inflate: 3}, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
	}}, diffCase{"join/group-by-left", func(tbl, right *store.Table) *Plan {
		return &Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "k", RightCol: "rk", RightCols: []string{"rv"}},
			GroupBy: &GroupBy{Col: "k"}, Aggs: []Agg{{Kind: AggCount}, {Kind: AggPlainSum, Col: "rv"}}}
	}}, diffCase{"join/sum-by-code", func(tbl, right *store.Table) *Plan {
		return &Plan{Table: tbl, Join: &Join{Right: right, LeftCol: "k", RightCol: "rk", RightCols: []string{"rv"}},
			Filters: []Filter{{Kind: FilterPlainCmp, Col: "rv", Op: sqlparse.OpGt, U64: 200}},
			Aggs:    []Agg{{Kind: AggPlainSum, Col: "rv"}, {Kind: AggAsheSum, Col: "v_ashe"}}}
	}})
	return cases
}

// tookLanes reports whether r is a lane group-by's result (codes.go): a
// lane-shaped plan whose every selected row grouped by lane, none through a
// slot table, in one fold.
func tookLanes(pl *Plan, r *Result) bool {
	return pl.LaneGroupBy() && r.Metrics.RowsSelected > 0 && r.Metrics.Ops.GroupHash == 0 &&
		r.Metrics.Ops.GroupDense == r.Metrics.RowsSelected && r.Metrics.ReduceTasks == 1
}

// tookSlots reports whether r is a group-by's result whose every selected row
// grouped through the raw slot tables.
func tookSlots(r *Result) bool {
	return r.Metrics.Ops.GroupDense == 0 && r.Metrics.Ops.GroupHash == r.Metrics.RowsSelected
}

// assertAnswer compares a vectorized run with the reference evaluator's: a
// lane group-by in everything but its map output and its one reduce (the
// lanes are the shuffle, and one fold the reduce), anything else in
// everything assertSameResult compares.
func assertAnswer(t *testing.T, name string, pl *Plan, vec, ref *Result) {
	t.Helper()
	if tookLanes(pl, vec) {
		vec2 := *vec
		vec2.Metrics.ReduceTasks = ref.Metrics.ReduceTasks
		assertSameGroups(t, name, pl, &vec2, ref)
		return
	}
	assertSameResult(t, name, vec, ref)
}

// partsCoded returns, per partition of tbl, whether column col is coded.
func partsCoded(t testing.TB, tbl *store.Table, col string) []bool {
	t.Helper()
	i := tbl.Parts[0].ColIndex(col)
	_, codes, err := tbl.Codebook(i).Code(tbl.Parts, i)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(codes))
	for p, c := range codes {
		out[p] = c != nil
	}
	return out
}

// TestDifferentialCoded runs every coded case through the vectorized executor
// and the reference evaluator over a table lineage as it grows by appends —
// its key codebook growing, then leaving one partition raw beside coded
// ones — on heap partitions and on view partitions recovered
// from a segment, and each group-by pinned to the raw slot tables too:
// every answer must be the reference's. A lane-shaped group-by on a key every
// partition codes adds into lanes, inflated or not, a right-side key through
// the right table's codebook; one on a key with raw partitions, a refused key
// or a right table whose codebook left a partition raw takes the slot table.
func TestDifferentialCoded(t *testing.T) {
	lineage, right := codedLineage(t)
	views := make([]*store.Table, len(lineage))
	for stage, tbl := range lineage {
		views[stage] = viewOf(t, tbl)
	}
	c := NewCluster(Config{Workers: 4, Seed: 12})
	ctx := context.Background()
	sk, _ := codedKeys()
	for _, tc := range codedCases(&sk.PublicKey) {
		t.Run(tc.name, func(t *testing.T) {
			for stage := range lineage {
				for _, tb := range []struct {
					name string
					tbl  *store.Table
				}{{"heap", lineage[stage]}, {"view", views[stage]}} {
					name := fmt.Sprintf("%s (stage %d, %s)", tc.name, stage, tb.name)
					ref, err := c.RunReference(ctx, tc.plan(tb.tbl, right))
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					pl := tc.plan(tb.tbl, right)
					vec, err := c.Run(ctx, pl)
					if err != nil {
						t.Fatalf("%s: vectorized: %v", name, err)
					}
					assertAnswer(t, name, pl, vec, ref)
					if pl.GroupBy == nil {
						continue
					}
					rawGroups(t, c, name, func() *Plan { return tc.plan(tb.tbl, right) }, ref)
					col := pl.GroupBy.Col
					lanes := pl.LaneGroupBy() && (col == "o" || col == "tier" || col == "k" && stage < 2)
					if tookLanes(pl, vec) != lanes || !lanes && !tookSlots(vec) {
						t.Errorf("%s: lanes %v, want %v (%+v)", name, tookLanes(pl, vec), lanes, vec.Metrics.Ops)
					}
				}
			}
		})
	}

	// A right table whose tier codebook left its appended partition raw: its
	// right-side group-by takes the slot tables, inflated or not.
	refused := refusedRight(t)
	for _, inflate := range []int{0, 3} {
		name := fmt.Sprintf("join/group-by-right-refused/inflate=%d", inflate)
		mk := func() *Plan {
			return &Plan{Table: lineage[1], Join: &Join{Right: refused, LeftCol: "k", RightCol: "rk", RightCols: []string{"tier"}},
				GroupBy: &GroupBy{Col: "tier", Inflate: inflate}, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}
		ref, err := c.RunReference(ctx, mk())
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		pl := mk()
		vec, err := c.Run(ctx, pl)
		if err != nil {
			t.Fatalf("%s: vectorized: %v", name, err)
		}
		assertAnswer(t, name, pl, vec, ref)
		if !pl.LaneGroupBy() || !tookSlots(vec) {
			t.Errorf("%s: did not take the slot tables (%+v)", name, vec.Metrics.Ops)
		}
	}

	// The codebooks: the key column's codes every partition but the third
	// batch's; the OPE column's every one; the unique column's none.
	last := lineage[len(lineage)-1]
	var wantK []bool
	for _, b := range codedBatches {
		for range b.parts {
			wantK = append(wantK, b.codedK)
		}
	}
	for _, col := range []struct {
		name string
		want func(int) bool
	}{{"k", func(p int) bool { return wantK[p] }}, {"o", func(int) bool { return true }}, {"u", func(int) bool { return false }}} {
		for p, got := range partsCoded(t, last, col.name) {
			if got != col.want(p) {
				t.Errorf("column %s, partition %d: coded %v, want %v", col.name, p, got, col.want(p))
			}
		}
	}
}

// refusedRight is codedRight with its tier column coded, grown by a
// partition of 200 fresh tiers: past half the rows coded with it, so the
// codebook leaves that partition raw beside the coded two.
func refusedRight(tb testing.TB) *store.Table {
	tb.Helper()
	right := codedRight(tb)
	col := right.Parts[0].ColIndex("tier")
	if _, _, err := right.Codebook(col).Code(right.Parts, col); err != nil {
		tb.Fatal(err)
	}
	const rows = 200
	rk, tier, rv := make([]uint64, rows), make([]uint64, rows), make([]uint64, rows)
	for i := range rows {
		rk[i], tier[i], rv[i] = uint64(i%90), uint64(1000+i), uint64(i*5)
	}
	batch, err := store.BuildFrom("r", []store.Column{detFixed("rk", rk), detFixed("tier", tier),
		{Name: "rv", Kind: store.U64, U64: rv}}, 1, uint64(right.NumRows())+1)
	if err != nil {
		tb.Fatal(err)
	}
	grown, err := right.WithAppended(batch)
	if err != nil {
		tb.Fatal(err)
	}
	if coded := partsCoded(tb, grown, "tier"); len(coded) != 3 || !coded[0] || !coded[1] || coded[2] {
		tb.Fatalf("the tier column's partitions coded %v, want [true true false]", coded)
	}
	return grown
}

// TestCodedRunsRaceAppends runs coded queries on each table of a lineage
// while another goroutine keeps growing it by appends of batches with new
// keys, so the shared codebooks grow under running runs: every answer is the
// reference's over the table the run read.
func TestCodedRunsRaceAppends(t *testing.T) {
	rng := mrand.New(mrand.NewSource(51))
	base := codedTable(t, rng, codedBatch{4, 512, 0, 40, 30, true, true}, 1)
	right := codedRight(t)
	var batches []*store.Table
	start := uint64(2049)
	for i := range 12 {
		b := codedBatch{1, 64, 40 + 8*i, 60 + 8*i, 30 + i, false, true}
		batches = append(batches, codedTable(t, rng, b, start))
		start += 64
	}
	c := NewCluster(Config{Workers: 3, RealParallelism: 3})
	ctx := context.Background()
	sk, _ := codedKeys()
	cases := codedCases(&sk.PublicKey)
	tables := make(chan *store.Table, len(batches)+1)
	tables <- base
	var wg, stale sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(tables)
		cur := base
		for _, b := range batches {
			grown, err := cur.WithAppended(b)
			if err != nil {
				t.Error(err)
				return
			}
			// A run on the older table codes its partitions as the grown one
			// codes the new one.
			stale.Add(1)
			go func(cur *store.Table) {
				defer stale.Done()
				if _, err := c.Run(ctx, &Plan{Table: cur, GroupBy: &GroupBy{Col: "k"}, Aggs: []Agg{{Kind: AggCount}}}); err != nil {
					t.Error(err)
				}
			}(cur)
			tables <- grown
			cur = grown
		}
	}()
	var runs sync.WaitGroup
	var asserting sync.Mutex // the test's ASHE key decrypts one result at a time
	for tbl := range tables {
		for ci, tc := range cases {
			if ci%4 != 0 && !(tc.name[0] == 'g' || tc.name[0] == 'j') {
				continue // every group-by and join case, a quarter of the rest
			}
			runs.Add(1)
			go func() {
				defer runs.Done()
				pl := tc.plan(tbl, right)
				vec, err := c.Run(ctx, pl)
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
					return
				}
				ref, err := c.RunReference(ctx, tc.plan(tbl, right))
				if err != nil {
					t.Errorf("%s: reference: %v", tc.name, err)
					return
				}
				asserting.Lock()
				defer asserting.Unlock()
				assertAnswer(t, fmt.Sprintf("%s (%d rows)", tc.name, tbl.NumRows()), pl, vec, ref)
			}()
		}
		runs.Wait()
	}
	wg.Wait()
	stale.Wait()
}

// TestCodedAcrossEviction serves the fixture's base as view partitions under
// a budget of one partition's columns: each run evicts what the last one
// faulted. The answers stay the reference's, run after run, and the
// partitions keep the codes their first run made.
func TestCodedAcrossEviction(t *testing.T) {
	lineage, _ := codedLineage(t)
	heap := lineage[0]
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
	var first [][]*uint16
	for round := range 3 {
		for _, mk := range plans {
			ref, err := c.RunReference(ctx, mk(heap))
			if err != nil {
				t.Fatal(err)
			}
			pl := mk(tbl)
			vec, err := c.Run(ctx, pl)
			if err != nil {
				t.Fatal(err)
			}
			assertAnswer(t, fmt.Sprintf("round %d", round), pl, vec, ref)
		}
		var now [][]*uint16
		for _, col := range []string{"k", "o"} {
			i := tbl.Parts[0].ColIndex(col)
			_, codes, err := tbl.Codebook(i).Code(tbl.Parts, i)
			if err != nil {
				t.Fatal(err)
			}
			var at []*uint16
			for _, c := range codes {
				at = append(at, &c[0])
			}
			now = append(now, at)
		}
		if first == nil {
			first = now
		} else if !reflect.DeepEqual(now, first) {
			t.Errorf("round %d: the partitions were coded again", round)
		}
	}
	if st := res.Stats(); st.Evictions == 0 {
		t.Fatalf("nothing was evicted: %+v", st)
	}
}

// TestFixedJoinIndex holds the broadcast join's index over a Fixed key — the
// compiled plan's byte-key map, and the right row per code (rightOf) that a
// run reads through the left key's codebook — to a Go map of the same keys: a
// duplicate key finds its last row, as the reference evaluator's hash build
// does, and an absent key −1. A join whose keys hold values of different
// layouts is refused when the plan compiles.
func TestFixedJoinIndex(t *testing.T) {
	rng := mrand.New(mrand.NewSource(51))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(2000)) // about a third of the keys repeat
	}
	// Every key and keys the right side lacks, each three times: a codebook
	// refuses a column of more than one value per two rows.
	probes := make([]uint64, 3*2100)
	for i := range probes {
		probes[i] = uint64(i % 2100)
	}
	right, err := store.Build("r", []store.Column{detFixed("rk", vals)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	left, err := store.Build("l", []store.Column{detFixed("lk", probes)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int32{}
	for i, v := range vals {
		want[string(detKey.EncryptU64(v))] = int32(i)
	}
	cp, err := (&Plan{Table: left, Join: &Join{Right: right, LeftCol: "lk", RightCol: "rk"}, Aggs: []Agg{{Kind: AggCount}}}).compile(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp.joinStr, want) {
		t.Fatalf("the join index holds %d keys, want %d", len(cp.joinStr), len(want))
	}
	rc, err := cp.codeRun(left.Parts, true, 1)
	if err != nil || rc == nil {
		t.Fatal("the join key is not coded", err)
	}
	for pi, part := range left.Parts {
		tc := &rc.parts[pi]
		if tc.join == nil {
			t.Fatalf("partition %d: the join key is not coded", pi)
		}
		for row := range part.NumRows() {
			j, ok := want[string(part.Cols[0].BytesAt(row))]
			if !ok {
				j = -1
			}
			if got := tc.rightOf[tc.join[row]]; got != j {
				t.Fatalf("partition %d, row %d: right row %d, want %d", pi, row, got, j)
			}
		}
	}

	lineage, codedRight := codedLineage(t)
	_, err = (&Plan{Table: lineage[0], Join: &Join{Right: codedRight, LeftCol: "v", RightCol: "rk"}, Aggs: []Agg{{Kind: AggCount}}}).compile(0)
	if err == nil {
		t.Fatal("a join of a u64 key to a Fixed one compiled")
	}
}

// BenchmarkOpeFilter is the OPE range filter over one 8,192-row partition of
// day-of-year values in random order, about half the rows passing, then a
// count: coded, through the table's codebook and the plan's pass table, and
// raw, the same task reading no codes.
func BenchmarkOpeFilter(b *testing.B) {
	const rows = 8192
	rng := mrand.New(mrand.NewSource(1))
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
	rc, err := cp.codeRun(tbl.Parts, true, 1)
	if err != nil || rc == nil || rc.parts[0].filters == nil {
		b.Fatal("the partition is not coded", err)
	}
	for _, coded := range []bool{true, false} {
		b.Run(map[bool]string{true: "coded", false: "raw"}[coded], func(b *testing.B) {
			tc := &rc.parts[0]
			if !coded {
				tc = nil
			}
			ts := cp.newTaskState(tbl.Parts[0], tc)
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
