package engine

import (
	"context"
	"crypto/rand"
	"fmt"
	"reflect"
	"testing"

	"seabed/internal/durable"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file differentially tests the vectorized executor (Run) against the
// retained straight-line reference evaluator (RunReference): every query
// category — filter, aggregate, group-by, join, median, scan — in each of
// the NoEnc (plaintext), Seabed (ASHE/DET/OPE), and Paillier column
// representations must produce byte-identical results and identical
// deterministic cost accounting through both executors. CI runs the package
// under -race, so the compiled plan's sharing across concurrent map tasks
// is exercised too.

// diffFixture extends the test fixture with a string dimension and a
// Paillier ciphertext column so all three encryption modes are present in
// one table.
func diffFixture(t *testing.T, rows, parts int) (*store.Table, *store.Table, *paillier.PrivateKey) {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sk.NewMaskPool(rand.Reader, 16)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	wide := make([]uint64, rows)
	strs := make([]string, rows)
	asheCol := make([]uint64, rows)
	strDet := make([][]byte, rows) // DET of strings: the one variable-width scheme
	pailCol := make([][]byte, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 97)
		dims[i] = uint64(i % 7)
		// Distinct per row and spread far past the grouper's dense span, so
		// wide group-bys drive the slot table's hashed probes.
		wide[i] = uint64(i)*0x9e3779b1 + 11
		strs[i] = fmt.Sprintf("dim-%d", i%5)
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
		strDet[i] = detKey.EncryptString(strs[i])
		pailCol[i] = sk.Marshal(pool.EncryptU64(vals[i]))
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "w", Kind: store.U64, U64: wide},
		{Name: "s", Kind: store.Str, Str: strs},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
		detFixed("d_det", dims),
		opeFixed("v_ope", vals),
		{Name: "s_det", Kind: store.Bytes, Bytes: strDet},
		{Name: "v_pail", Kind: store.Bytes, Bytes: pailCol},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}

	// Right side for broadcast joins: one row per dim value, keyed as
	// plaintext u64, as DET bytes, as a string and as DET of that string,
	// with a payload column.
	const rdims = 5 // leave dims 5 and 6 unmatched so inner-join drops occur
	rdim := make([]uint64, rdims)
	rank := make([]uint64, rdims)
	rstr := make([]string, rdims)
	rstrDet := make([][]byte, rdims)
	for i := 0; i < rdims; i++ {
		rdim[i] = uint64(i)
		rank[i] = uint64(100 + i*11)
		rstr[i] = fmt.Sprintf("dim-%d", i+1) // dim-0 unmatched, dim-5 on no left row
		rstrDet[i] = detKey.EncryptString(rstr[i])
	}
	right, err := store.Build("r", []store.Column{
		{Name: "rdim", Kind: store.U64, U64: rdim},
		detFixed("rdim_det", rdim),
		{Name: "rank", Kind: store.U64, U64: rank},
		{Name: "rs", Kind: store.Str, Str: rstr},
		{Name: "rs_det", Kind: store.Bytes, Bytes: rstrDet},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, right, sk
}

// assertSameResult compares everything deterministic about two results:
// groups (keys, rows, every aggregate value including encoded id-lists and
// Paillier ciphertexts), scan rows, and the non-timing metrics.
func assertSameResult(t *testing.T, name string, vec, ref *Result) {
	t.Helper()
	if !reflect.DeepEqual(vec.View(), ref.View()) {
		t.Errorf("%s: groups diverge\nvectorized: %+v\nreference:  %+v", name, vec.View(), ref.View())
	}
	if !reflect.DeepEqual(flatScan(vec.Scan), flatScan(ref.Scan)) {
		t.Errorf("%s: scan rows diverge (%d vs %d rows)", name, len(vec.Scan), len(ref.Scan))
	}
	type det struct {
		ShuffleBytes, ResultBytes, MapTasks, ReduceTasks int
		RowsScanned, RowsSelected                        uint64
	}
	v := det{vec.Metrics.ShuffleBytes, vec.Metrics.ResultBytes, vec.Metrics.MapTasks, vec.Metrics.ReduceTasks, vec.Metrics.RowsScanned, vec.Metrics.RowsSelected}
	r := det{ref.Metrics.ShuffleBytes, ref.Metrics.ResultBytes, ref.Metrics.MapTasks, ref.Metrics.ReduceTasks, ref.Metrics.RowsScanned, ref.Metrics.RowsSelected}
	if v != r {
		t.Errorf("%s: deterministic metrics diverge\nvectorized: %+v\nreference:  %+v", name, v, r)
	}
}

// assertSameGroups compares what two runs of one group-by on different paths
// must share: groups (keys, rows, lanes, values, encoded identifier lists),
// the decrypted ASHE sums, and the result's bytes, rows and task counts. Their
// map-output bytes differ by design — a coded run's are its lane sets'
// (Metrics.ShuffleBytes).
func assertSameGroups(t *testing.T, name string, pl *Plan, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.View(), want.View()) {
		t.Errorf("%s: groups diverge\n got %+v\nwant %+v", name, got.View(), want.View())
	}
	if g, w := viewAsheSums(t, pl, got), viewAsheSums(t, pl, want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: decrypted ASHE sums diverge\n got %v\nwant %v", name, g, w)
	}
	type det struct {
		ResultBytes, MapTasks, ReduceTasks int
		RowsScanned, RowsSelected          uint64
	}
	g := det{got.Metrics.ResultBytes, got.Metrics.MapTasks, got.Metrics.ReduceTasks, got.Metrics.RowsScanned, got.Metrics.RowsSelected}
	w := det{want.Metrics.ResultBytes, want.Metrics.MapTasks, want.Metrics.ReduceTasks, want.Metrics.RowsScanned, want.Metrics.RowsSelected}
	if g != w {
		t.Errorf("%s: deterministic metrics diverge\n got %+v\nwant %+v", name, g, w)
	}
}

// viewAsheSums decrypts every ASHE sum of a result's groups, in View order.
func viewAsheSums(t *testing.T, pl *Plan, r *Result) [][]uint64 {
	t.Helper()
	var out [][]uint64
	for _, g := range r.View() {
		var sums []uint64
		for _, av := range g.Aggs {
			if av.Kind == AggAsheSum {
				sums = append(sums, asheKey.Decrypt(asheCT(t, pl.EffectiveCodec(), av.Ashe)))
			}
		}
		out = append(out, sums)
	}
	return out
}

// rawGroups runs a group-by vectorized with its key pinned to the raw slot
// tables (groupRaw), a codable key's too, and checks it against ref, the
// reference evaluator's result, in everything assertSameResult compares.
func rawGroups(t *testing.T, c *Cluster, name string, mk func() *Plan, ref *Result) *Result {
	t.Helper()
	raw, err := c.run(context.Background(), mk(), nil, nil, groupRaw)
	if err != nil {
		t.Fatalf("%s: raw slot tables: %v", name, err)
	}
	assertSameResult(t, name+" (raw slot tables)", raw, ref)
	return raw
}

// diffCase is one query of the differential suite, built over diffFixture's
// tables.
type diffCase struct {
	name string
	plan func(tbl, right *store.Table) *Plan
}

// differentialCases lists every query category of the suite.
func differentialCases(pk *paillier.PublicKey) []diffCase {
	return []diffCase{
		// --- NoEnc: plaintext filters and aggregates ---
		{"noenc/filter-agg", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 40}},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount},
					{Kind: AggPlainSumSq, Col: "v"}, {Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/every-op", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{
					{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGe, U64: 10},
					{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpLe, U64: 90},
					{Kind: FilterPlainCmp, Col: "d", Op: sqlparse.OpNe, U64: 6},
				},
				Aggs: []Agg{{Kind: AggCount}}}
		}},
		{"noenc/str-filter", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterStrCmp, Col: "s", Op: sqlparse.OpGt, Str: "dim-1"}},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/random-filter", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterRandom, Prob: 0.37, Seed: 1234}},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/group-by-u64", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/group-by-str", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "s"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}}
		}},
		{"noenc/group-by-inflated", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", Inflate: 4},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		// Bounded key domains: KeyBound sizes the dense flat-array path
		// exactly (7), undershoots so keys 3..6 must fall back to the hashed
		// path (3), and composes with inflation.
		{"noenc/group-by-bounded", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMin, Col: "v"}}}
		}},
		{"noenc/group-by-bound-undershoot", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 3},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/group-by-bounded-inflated", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7, Inflate: 4},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		// Wide keys (every row distinct, values far past the dense span):
		// the hashed probe path, with lane accumulators, generic per-slot
		// partials (median is not lane-eligible), and inflation suffixes.
		{"noenc/group-by-wide", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMin, Col: "v"}}}
		}},
		{"noenc/group-by-wide-median", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/group-by-wide-inflated", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w", Inflate: 2},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}}
		}},
		{"noenc/median", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "d", Op: sqlparse.OpEq, U64: 3}},
				Aggs:    []Agg{{Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"noenc/median-partial", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, Partial: true,
				Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"noenc/scan", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 88}},
				Project: []string{"v", "s", "d"}}
		}},
		{"noenc/join", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join: &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggPlainSum, Col: "rank"}, {Kind: AggCount}}}
		}},
		{"noenc/join-right-filter", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "rank", Op: sqlparse.OpGt, U64: 110}},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
		{"noenc/join-groupby-scan-project-right", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
				Project: []string{"v", "rank"}}
		}},
		{"noenc/join-str-keys", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join: &Join{Right: right, LeftCol: "s", RightCol: "rs", RightCols: []string{"rank"}},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggPlainSum, Col: "rank"}, {Kind: AggCount}}}
		}},
		// Right-side u64 keys, read through each row's join match: ranks
		// 100–144 under the default dense span, inflated, and with KeyBound
		// 120, where ranks 100 and 111 index densely and 122–144 take the
		// slot table.
		{"noenc/join-group-right-u64", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				GroupBy: &GroupBy{Col: "rank"},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMax, Col: "v"}}}
		}},
		{"noenc/join-group-right-u64-bounded", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				GroupBy: &GroupBy{Col: "rank", KeyBound: 120},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainMin, Col: "v"}}}
		}},
		{"noenc/join-group-right-u64-inflated", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "rdim", RightCols: []string{"rank"}},
				GroupBy: &GroupBy{Col: "rank", Inflate: 3},
				Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},

		// --- Seabed: ASHE sums, DET/OPE filters, OPE extremes and medians ---
		{"seabed/det-filter-ashe-sum", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(3)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/det-negate", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(3), Negate: true}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"seabed/ope-filter", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(30)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/group-by-det", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d_det"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/group-by-det-inflated", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d_det", Inflate: 3},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"seabed/group-by-wide-ashe", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/ope-minmax-companion", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Aggs: []Agg{
					{Kind: AggOpeMin, Col: "v_ope", Companion: "v_ashe"},
					{Kind: AggOpeMax, Col: "v_ope", Companion: "d_det"}}}
		}},
		{"seabed/ope-median", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(1)}},
				Aggs:    []Agg{{Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}}}
		}},
		{"seabed/ope-median-partial", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, Partial: true,
				Aggs: []Agg{{Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}}}
		}},
		{"seabed/scan-encrypted", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGt, Bytes: opeKey.Encrypt(92)}},
				Project: []string{"v_ashe", "d_det", "v_ope"}}
		}},
		{"seabed/join-det-keys", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join: &Join{Right: right, LeftCol: "d_det", RightCol: "rdim_det", RightCols: []string{"rank"}},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rank"}}}
		}},
		// DET of strings is the scheme whose ciphertexts vary in length: its
		// column stays variable-width Bytes through filter, group-by and scan.
		{"seabed/det-str-filter", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "s_det", Bytes: detKey.EncryptString("dim-3"), Negate: true}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/group-by-det-str", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "s_det"},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggOpeMax, Col: "v_ope", Companion: "s_det"}}}
		}},
		{"seabed/scan-det-str", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(6)}},
				Project: []string{"s_det", "d_det"}}
		}},
		// Joins on DET of strings probe the byte-key map, Bytes keys as they
		// are, and group by the right side's key through each row's match.
		{"seabed/join-det-str-keys", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "s_det", RightCol: "rs_det", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(70)}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainSum, Col: "rank"}, {Kind: AggCount}}}
		}},
		{"seabed/join-det-str-keys-group-right", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "s_det", RightCol: "rs_det", RightCols: []string{"rank"}},
				GroupBy: &GroupBy{Col: "rs_det"},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainMax, Col: "rank"}}}
		}},
		{"seabed/join-det-keys-group-right", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d_det", RightCol: "rdim_det", RightCols: []string{"rank"}},
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGe, Bytes: opeKey.Encrypt(50)}},
				GroupBy: &GroupBy{Col: "rdim_det"},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggOpeMin, Col: "v_ope", Companion: "d_det"}}}
		}},
		{"seabed/idrange", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 500, Hi: 2750},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"seabed/idrange-partial-groupby", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 1000, Hi: 3000}, Partial: true,
				GroupBy: &GroupBy{Col: "d_det"},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"seabed/random-filter-ashe-sum", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 7}},
				Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}}
		}},

		// --- Paillier ---
		{"paillier/sum", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}}}
		}},
		{"paillier/filtered-sum", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(2)}},
				Aggs:    []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}, {Kind: AggCount}}}
		}},
		{"paillier/group-by", func(tbl, right *store.Table) *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}}}
		}},
		{"paillier/group-by-bounded", func(tbl, right *store.Table) *Plan {
			// Paillier is not lane-eligible: the dense index resolves slots
			// but accumulation runs the generic per-slot kernels.
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", KeyBound: 7},
				Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: pk}, {Kind: AggCount}}}
		}},
	}
}

func TestDifferentialExecutors(t *testing.T) {
	// ~2857 rows per partition: every partition spans multiple 1024-row
	// batches, so batch-boundary state (selection-vector reuse, arena
	// refills, per-batch id-list AppendRange runs) is differentially
	// exercised, not just the single-batch case.
	const rows, parts = 20000, 7
	tbl, right, sk := diffFixture(t, rows, parts)

	// Every case runs on heap partitions and on view partitions that fault
	// their columns in from a segment's bytes — where a Fixed column is the
	// mapping itself — in both executors; the four results must agree.
	vtbl, vright := viewOf(t, tbl), viewOf(t, right)
	c := NewCluster(Config{Workers: 4, Seed: 11})
	for _, tc := range differentialCases(&sk.PublicKey) {
		t.Run(tc.name, func(t *testing.T) {
			vec, err := c.Run(context.Background(), tc.plan(tbl, right))
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			ref, err := c.RunReference(context.Background(), tc.plan(tbl, right))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertAnswer(t, tc.name, tc.plan(tbl, right), vec, ref)
			vvec, err := c.Run(context.Background(), tc.plan(vtbl, vright))
			if err != nil {
				t.Fatalf("vectorized, view partitions: %v", err)
			}
			vref, err := c.RunReference(context.Background(), tc.plan(vtbl, vright))
			if err != nil {
				t.Fatalf("reference, view partitions: %v", err)
			}
			assertSameResult(t, tc.name+" (view vs heap)", vvec, vec)
			assertAnswer(t, tc.name+" (view)", tc.plan(vtbl, vright), vvec, vref)
			if tc.plan(tbl, right).GroupBy != nil {
				rawGroups(t, c, tc.name, func() *Plan { return tc.plan(tbl, right) }, ref)
				rawGroups(t, c, tc.name+" (view)", func() *Plan { return tc.plan(vtbl, vright) }, vref)
			}
		})
	}
}

// viewOf returns tbl as a daemon serves it after a restart: registered with
// a durable store, which writes its image as a segment file, and recovered
// by reopening the store as view partitions over the mapped segment.
func viewOf(tb testing.TB, tbl *store.Table) *store.Table {
	tb.Helper()
	dir := tb.TempDir()
	s, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Register(tbl.Name, tbl); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	if s, err = durable.Open(durable.Options{Dir: dir}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s.Tables()[tbl.Name]
}

// TestDifferentialWideTableGroupBy grows one map task's open-addressed table
// past 2^15 entries — 2 partitions × 18000 distinct keys per task, so the
// table doubles many times mid-task. Both lane (sum/count/ASHE) and generic
// (median) accumulation run over it, and the results must match the
// row-at-a-time reference exactly — including ASHE id-list contents, which
// pin the selection-order accumulation guarantee.
func TestDifferentialWideTableGroupBy(t *testing.T) {
	const rows, parts = 36000, 2
	vals := make([]uint64, rows)
	wide := make([]uint64, rows)
	asheCol := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 97)
		wide[i] = uint64(i)*0x9e3779b1 + 11
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
	}
	tbl, err := store.Build("wide", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "w", Kind: store.U64, U64: wide},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: 4, Seed: 11})
	for _, tc := range []struct {
		name string
		plan func() *Plan
	}{
		{"lanes", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggAsheSum, Col: "v_ashe"}}}
		}},
		{"generic", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w"},
				Aggs: []Agg{{Kind: AggPlainMedian, Col: "v"}, {Kind: AggCount}}}
		}},
		{"inflated", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "w", Inflate: 2},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vec, err := c.Run(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			ref, err := c.RunReference(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if len(vec.View()) != rows {
				t.Errorf("%d groups, want %d (every wide key distinct)", len(vec.View()), rows)
			}
			assertSameResult(t, tc.name, vec, ref)
		})
	}
}

// TestDifferentialInflationSuffixIsolation is the regression test for suffix
// aliasing: every row carries one of two group values while inflation splays
// each into suffix sub-groups, so the dense index holds several cells per
// key and any cross-suffix aliasing (two suffixes resolving to one slot, in
// any batch) would corrupt counts. The suffix split must also agree exactly
// with the reference evaluator's per-row assignment.
func TestDifferentialInflationSuffixIsolation(t *testing.T) {
	const rows, parts, inflate = 9000, 3, 3
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 13)
		dims[i] = uint64(i%2) * 5 // keys 0 and 5, both under any bound ≥ 6
	}
	tbl, err := store.Build("sfx", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: 4, Seed: 11})
	for _, bound := range []uint64{0, 6} { // default dense span and an exact KeyBound
		plan := func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d", Inflate: inflate, KeyBound: bound},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}}}
		}
		vec, err := c.Run(context.Background(), plan())
		if err != nil {
			t.Fatalf("bound=%d vectorized: %v", bound, err)
		}
		ref, err := c.RunReference(context.Background(), plan())
		if err != nil {
			t.Fatalf("bound=%d reference: %v", bound, err)
		}
		assertSameResult(t, fmt.Sprintf("suffix-isolation/bound=%d", bound), vec, ref)
		if len(vec.View()) != 2*inflate {
			t.Fatalf("bound=%d: %d groups, want %d (2 keys × %d suffixes)", bound, len(vec.View()), 2*inflate, inflate)
		}
		var rowsTotal uint64
		for _, g := range vec.View() {
			if g.KeyU64 != 0 && g.KeyU64 != 5 {
				t.Errorf("bound=%d: unexpected group key %d", bound, g.KeyU64)
			}
			if g.Suffix < 0 || g.Suffix >= inflate {
				t.Errorf("bound=%d: suffix %d outside [0,%d)", bound, g.Suffix, inflate)
			}
			rowsTotal += g.Rows
		}
		if rowsTotal != rows {
			t.Errorf("bound=%d: suffix groups cover %d rows, want %d", bound, rowsTotal, rows)
		}
	}
}

// TestDifferentialEmptyRange pins the degenerate cases: a shard frame that
// excludes the whole table, and a predicate that selects nothing.
func TestDifferentialEmptyCases(t *testing.T) {
	tbl, _, _ := fixture(t, 300, 3)
	c := NewCluster(Config{Workers: 2})
	for _, tc := range []struct {
		name string
		plan func() *Plan
	}{
		{"out-of-range", func() *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 10_000, Hi: 20_000},
				Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}}
		}},
		{"nothing-selected", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 1 << 40}},
				Aggs:    []Agg{{Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMedian, Col: "v"}}}
		}},
		{"empty-groupby", func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Filters: []Filter{{Kind: FilterRandom, Prob: 0, Seed: 3}},
				Aggs:    []Agg{{Kind: AggCount}}}
		}},
		{"empty-scan", func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 1 << 40}},
				Project: []string{"v"}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vec, err := c.Run(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			ref, err := c.RunReference(context.Background(), tc.plan())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertSameResult(t, tc.name, vec, ref)
		})
	}
}

// detKeyFixture builds the encrypted wide-GROUP-BY shape: groups distinct
// 16-byte DET ciphertext keys, every group's rows scattered across all
// partitions (so every key meets itself again in the reduce), with plaintext,
// ASHE and OPE views of one measure.
func detKeyFixture(tb testing.TB, rows, groups, parts int, withOpe bool) *store.Table {
	tb.Helper()
	keys := make([]uint64, rows)
	vals := make([]uint64, rows)
	asheCol := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		keys[i] = uint64((i * 7919) % groups)
		vals[i] = uint64(i*31) % 1009
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
	}
	cols := []store.Column{
		detFixed("k", keys),
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol}}
	if withOpe {
		cols = append(cols, opeFixed("v_ope", vals))
	}
	tbl, err := store.Build("det", cols, parts)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestDifferentialDetKeys is the differential suite for the path every
// encrypted GROUP BY takes: 16k groups keyed by 16-byte DET ciphertexts, in
// lane-eligible and generic (OPE extreme + median) aggregate mixes, inflation
// on and off, plaintext and encrypted measures, each pinned to the raw slot
// tables. The vectorized executor must match the reference evaluator byte for
// byte, map-output bytes included; and three Partial range runs, folded by
// MergeResults, must match one engine over the whole table.
func TestDifferentialDetKeys(t *testing.T) {
	const rows, groups, parts = 49152, 1 << 14, 6
	tbl := detKeyFixture(t, rows, groups, parts, true)
	mixes := []struct {
		name string
		aggs []Agg
	}{
		{"noenc/lanes", []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}, {Kind: AggPlainSumSq, Col: "v"},
			{Kind: AggPlainMin, Col: "v"}, {Kind: AggPlainMax, Col: "v"}}},
		{"noenc/generic", []Agg{{Kind: AggPlainMedian, Col: "v"}, {Kind: AggPlainMin, Col: "v"}}},
		{"seabed/lanes", []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}}},
		{"seabed/generic", []Agg{{Kind: AggOpeMin, Col: "v_ope", Companion: "v_ashe"},
			{Kind: AggOpeMedian, Col: "v_ope", Companion: "v_ashe"}, {Kind: AggAsheSum, Col: "v_ashe"}}},
	}
	c := NewCluster(Config{Workers: 4})
	for _, mix := range mixes {
		for _, inflate := range []int{0, 3} {
			name := fmt.Sprintf("%s/inflate=%d", mix.name, inflate)
			mk := func(tbl *store.Table) *Plan {
				return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "k", Inflate: inflate}, Aggs: mix.aggs}
			}
			t.Run(name, func(t *testing.T) {
				ref, err := c.RunReference(context.Background(), mk(tbl))
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				vec := rawGroups(t, c, name, func() *Plan { return mk(tbl) }, ref)
				if inflate == 0 && len(vec.View()) != groups {
					t.Errorf("%s: %d groups, want %d", name, len(vec.View()), groups)
				}
				if vec.Metrics.Ops.GroupHash != rows || vec.Metrics.Ops.GroupSlots == 0 || vec.Metrics.Ops.GroupTableLen == 0 {
					t.Errorf("%s: byte-keyed rows missed the group counters: %+v", name, vec.Metrics.Ops)
				}

				// Task counts sum across shard runs, and a merged result's bytes
				// are the shards' results added up (a group in three shards is
				// counted three times: those bytes reached the coordinator); map
				// output and rows must be what one engine over the whole table
				// reports.
				plan, partials, whole := shardRuns(t, c, tbl, mk, groupRaw)
				merged, err := MergeResults(plan, partials)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(merged.View(), whole.View()) || !reflect.DeepEqual(whole.View(), vec.View()) {
					t.Errorf("%s: merged shard groups diverge from one engine's", name)
				}
				shardBytes := 0
				for _, p := range partials {
					shardBytes += p.Metrics.ResultBytes
				}
				if merged.Metrics.ShuffleBytes != whole.Metrics.ShuffleBytes || merged.Metrics.ResultBytes != shardBytes ||
					merged.Metrics.RowsSelected != whole.Metrics.RowsSelected {
					t.Errorf("%s: merged metrics diverge: shuffle %d vs %d, result %d vs the shards' %d, selected %d vs %d", name,
						merged.Metrics.ShuffleBytes, whole.Metrics.ShuffleBytes, merged.Metrics.ResultBytes, shardBytes,
						merged.Metrics.RowsSelected, whole.Metrics.RowsSelected)
				}
			})
		}
	}
}
