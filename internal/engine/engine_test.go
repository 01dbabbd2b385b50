package engine

import (
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/idlist"
	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

var (
	asheKey = ashe.MustNewKey([]byte("0123456789abcdef"))
	detKey  = det.MustNewKey([]byte("0123456789abcdef"))
	opeKey  = ope.MustNewKey([]byte("0123456789abcdef"))
)

// fixture builds a table with plain, ASHE, DET, and OPE views of the same
// data: value v_i = i%100, dim d_i = i%7.
func fixture(t *testing.T, rows, parts int) (*store.Table, []uint64, []uint64) {
	t.Helper()
	vals := make([]uint64, rows)
	dims := make([]uint64, rows)
	asheCol := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = uint64(i % 100)
		dims[i] = uint64(i % 7)
		asheCol[i] = asheKey.EncryptBody(vals[i], uint64(i)+1)
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "d", Kind: store.U64, U64: dims},
		{Name: "v_ashe", Kind: store.U64, U64: asheCol},
		detFixed("d_det", dims),
		opeFixed("v_ope", vals),
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, vals, dims
}

// detFixed and opeFixed are the columns the client uploads for a DET(u64) and
// an OPE dimension: one flat buffer of 16-byte ciphertexts.
func detFixed(name string, vals []uint64) store.Column {
	return store.Column{Name: name, Kind: store.Fixed, Width: det.U64Size, Fixed: detKey.EncryptU64Column(vals)}
}

func opeFixed(name string, vals []uint64) store.Column {
	return store.Column{Name: name, Kind: store.Fixed, Width: ope.CiphertextSize, Fixed: opeKey.EncryptColumn(vals)}
}

// asheCT rebuilds an ASHE ciphertext from a result view's aggregate: results
// carry identifier lists only encoded, with the plan's resolved codec.
func asheCT(t *testing.T, codec idlist.Codec, ag AsheAgg) ashe.Ciphertext {
	t.Helper()
	if len(ag.Encoded) == 0 {
		t.Fatal("missing encoded id list")
	}
	ids, err := codec.Decode(ag.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	return ashe.Ciphertext{Body: ag.Body, IDs: ids}
}

func cluster() *Cluster {
	return NewCluster(Config{Workers: 4})
}

func TestPlainSum(t *testing.T) {
	tbl, vals, _ := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		want += v
	}
	if got := res.View()[0].Aggs[0].U64; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if res.Metrics.RowsScanned != 1000 || res.Metrics.RowsSelected != 1000 {
		t.Fatalf("metrics rows: %+v", res.Metrics)
	}
}

func TestAsheSumDecrypts(t *testing.T) {
	tbl, vals, _ := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		want += v
	}
	ct := asheCT(t, idlist.Default, res.View()[0].Aggs[0].Ashe)
	got := asheKey.Decrypt(ct)
	if got != want {
		t.Fatalf("decrypted sum = %d, want %d", got, want)
	}
	// All rows selected and ids contiguous: the final list must be 1 range.
	if ct.IDs.NumRanges() != 1 {
		t.Fatalf("id ranges = %d, want 1", ct.IDs.NumRanges())
	}
}

// TestOnePlanRunsConcurrently: Run only reads its plan — it writes back no
// codec for a plan that named none — so one plan may run on many goroutines
// at once, and every run encodes with the plan's EffectiveCodec. Under -race
// a write-back is a reported race; without it, a codec left in the plan.
func TestOnePlanRunsConcurrently(t *testing.T) {
	tbl, _, _ := fixture(t, 1000, 7)
	c := cluster()
	for _, pl := range []*Plan{
		{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggAsheSum, Col: "v_ashe"}}, GroupBy: &GroupBy{Col: "d_det"}},
	} {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := c.Run(context.Background(), pl)
				if err != nil {
					t.Error(err)
					return
				}
				for _, g := range res.View() {
					if _, err := pl.EffectiveCodec().Decode(g.Aggs[0].Ashe.Encoded); err != nil {
						t.Errorf("a list does not decode with the plan's codec: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		if pl.Codec != nil {
			t.Fatalf("Run wrote codec %q into the caller's plan", pl.Codec.Name())
		}
	}
}

func TestDetFilter(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	target := uint64(3)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(target)}},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}, {Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want, wantN uint64
	for i, v := range vals {
		if dims[i] == target {
			want += v
			wantN++
		}
	}
	if got := asheKey.Decrypt(asheCT(t, idlist.Default, res.View()[0].Aggs[0].Ashe)); got != want {
		t.Fatalf("filtered sum = %d, want %d", got, want)
	}
	if res.View()[0].Aggs[1].U64 != wantN {
		t.Fatalf("count = %d, want %d", res.View()[0].Aggs[1].U64, wantN)
	}
}

func TestDetFilterNegate(t *testing.T) {
	tbl, _, dims := fixture(t, 500, 3)
	target := uint64(2)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(target), Negate: true}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, d := range dims {
		if d != target {
			want++
		}
	}
	if got := res.View()[0].Aggs[0].U64; got != want {
		t.Fatalf("negated count = %d, want %d", got, want)
	}
}

func TestOpeFilter(t *testing.T) {
	tbl, vals, _ := fixture(t, 1000, 7)
	threshold := uint64(42)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGt, Bytes: opeKey.Encrypt(threshold)}},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, v := range vals {
		if v > threshold {
			want += v
		}
	}
	if got := res.View()[0].Aggs[0].U64; got != want {
		t.Fatalf("ope-filtered sum = %d, want %d", got, want)
	}
}

// TestOpeWrongLengthIsAnError holds both executors to the fixed-width rule:
// bytes that are not ope.CiphertextSize long are not a ciphertext, whether
// they arrive as a filter's constant or sit in a stored column (a data dir
// written with the 64-byte form, truncated values, a variable-width column).
// The min-length compare this replaces called an empty constant equal to
// every row. The stored side is a rule about the column, checked once when
// the plan binds — a Fixed column has no per-value length to be wrong — so
// each stored case swaps the whole v_ope column for one of another layout.
func TestOpeWrongLengthIsAnError(t *testing.T) {
	const rows = 3000
	tbl, vals, _ := fixture(t, rows, 3)
	good := opeKey.Encrypt(42)
	run := map[string]func(context.Context, *Plan) (*Result, error){
		"vectorized": cluster().Run, "reference": cluster().RunReference,
	}
	wantErr := func(t *testing.T, pl *Plan, col string) {
		t.Helper()
		for name, exec := range run {
			if _, err := exec(context.Background(), pl); err == nil || !strings.Contains(err.Error(), col) || !strings.Contains(err.Error(), "OPE") {
				t.Errorf("%s: err = %v, want an OPE error naming %q", name, err, col)
			}
		}
	}

	for _, c := range [][]byte{nil, {}, good[:15], append(slices.Clone(good), 0), make([]byte, 64)} {
		for _, op := range []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpLe, sqlparse.OpGe, sqlparse.OpLt} {
			wantErr(t, &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: op, Bytes: c}},
				Aggs:    []Agg{{Kind: AggCount}}}, "v_ope")
		}
	}

	// A v_ope column of another layout: variable-width (here of empty
	// values), 15 bytes wide, and the 64-byte form data dirs held before the
	// ciphertext was packed.
	for _, stored := range []store.Column{
		{Name: "v_ope", Kind: store.Bytes, Bytes: make([][]byte, rows)},
		{Name: "v_ope", Kind: store.Fixed, Width: 15, Fixed: make([]byte, 15*rows)},
		{Name: "v_ope", Kind: store.Fixed, Width: 64, Fixed: make([]byte, 64*rows)},
	} {
		dims := make([]uint64, rows)
		for i := range dims {
			dims[i] = uint64(i % 7)
		}
		tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: vals}, {Name: "d", Kind: store.U64, U64: dims}, stored}, 3)
		if err != nil {
			t.Fatal(err)
		}
		right := kernelFixture(t, 7, 1)
		for name, pl := range map[string]*Plan{
			"filter": {Table: tbl,
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpGe, Bytes: good}},
				Aggs:    []Agg{{Kind: AggCount}}},
			"filter under a join": {Table: tbl,
				Join:    &Join{Right: right, LeftCol: "d", RightCol: "d"},
				Filters: []Filter{{Kind: FilterOpeCmp, Col: "v_ope", Op: sqlparse.OpNe, Bytes: good}},
				Aggs:    []Agg{{Kind: AggCount}}},
			"min":             {Table: tbl, Aggs: []Agg{{Kind: AggOpeMin, Col: "v_ope"}}},
			"max, grouped":    {Table: tbl, GroupBy: &GroupBy{Col: "d"}, Aggs: []Agg{{Kind: AggOpeMax, Col: "v_ope"}}},
			"median, partial": {Table: tbl, Partial: true, Aggs: []Agg{{Kind: AggOpeMedian, Col: "v_ope"}}},
		} {
			t.Run(fmt.Sprintf("%d stored bytes/%s", stored.Width, name), func(t *testing.T) { wantErr(t, pl, "v_ope") })
		}
	}
}

// TestDetFilterWidthIsBound: a DET equality against a fixed-width column
// needs a constant of that width, and a DET or OPE operator over a column
// that holds no ciphertexts at all is refused — both when the plan binds, by
// both executors, naming the column.
func TestDetFilterWidthIsBound(t *testing.T) {
	tbl, _, _ := fixture(t, 300, 2)
	for name, f := range map[string]Filter{
		"short constant":     {Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptU64(3)[:15]},
		"string constant":    {Kind: FilterDetEq, Col: "d_det", Bytes: detKey.EncryptString("three")},
		"plaintext column":   {Kind: FilterDetEq, Col: "d", Bytes: detKey.EncryptU64(3)},
		"ope over plaintext": {Kind: FilterOpeCmp, Col: "v", Op: sqlparse.OpLt, Bytes: opeKey.Encrypt(3)},
	} {
		pl := &Plan{Table: tbl, Filters: []Filter{f}, Aggs: []Agg{{Kind: AggCount}}}
		for exec, run := range map[string]func(context.Context, *Plan) (*Result, error){"vectorized": cluster().Run, "reference": cluster().RunReference} {
			if _, err := run(context.Background(), pl); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", f.Col)) {
				t.Errorf("%s, %s: err = %v, want one naming %q", name, exec, err, f.Col)
			}
		}
	}
}

func TestPlainCmpOperators(t *testing.T) {
	tbl, vals, _ := fixture(t, 300, 2)
	for _, op := range []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe} {
		res, err := cluster().Run(context.Background(), &Plan{
			Table:   tbl,
			Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: op, U64: 50}},
			Aggs:    []Agg{{Kind: AggCount}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, v := range vals {
			if cmpMatch(op, cmpU64(v, 50)) {
				want++
			}
		}
		if got := res.View()[0].Aggs[0].U64; got != want {
			t.Fatalf("op %v: count = %d, want %d", op, got, want)
		}
	}
}

func TestRandomSelectivity(t *testing.T) {
	tbl, _, _ := fixture(t, 20000, 5)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 99}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.View()[0].Aggs[0].U64
	if got < 9500 || got > 10500 {
		t.Fatalf("sel=50%% selected %d of 20000", got)
	}
	// Determinism.
	res2, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 0.5, Seed: 99}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.View()[0].Aggs[0].U64 != got {
		t.Fatal("random selection is not deterministic for a fixed seed")
	}
	// Prob 1 selects everything.
	res3, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterRandom, Prob: 1.0, Seed: 99}},
		Aggs:    []Agg{{Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.View()[0].Aggs[0].U64 != 20000 {
		t.Fatalf("sel=100%% selected %d of 20000", res3.View()[0].Aggs[0].U64)
	}
}

func TestGroupByPlain(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "d"},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}, {Kind: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.View()) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.View()))
	}
	want := map[uint64]uint64{}
	for i, v := range vals {
		want[dims[i]] += v
	}
	for _, g := range res.View() {
		if g.Aggs[0].U64 != want[g.KeyU64] {
			t.Fatalf("group %d sum = %d, want %d", g.KeyU64, g.Aggs[0].U64, want[g.KeyU64])
		}
	}
}

func TestGroupByDetKeysWithAshe(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "d_det"},
		Aggs:    []Agg{{Kind: AggAsheSum, Col: "v_ashe"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.View()) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.View()))
	}
	want := map[uint64]uint64{}
	for i, v := range vals {
		want[dims[i]] += v
	}
	for _, g := range res.View() {
		dim, err := detKey.DecryptU64(g.KeyBytes)
		if err != nil {
			t.Fatalf("decrypt group key: %v", err)
		}
		got := asheKey.Decrypt(asheCT(t, idlist.Default, g.Aggs[0].Ashe))
		if got != want[dim] {
			t.Fatalf("group %d sum = %d, want %d", dim, got, want[dim])
		}
	}
}

func TestGroupInflation(t *testing.T) {
	tbl, vals, dims := fixture(t, 1000, 7)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		GroupBy: &GroupBy{Col: "d", Inflate: 4},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.View()) <= 7 || len(res.View()) > 28 {
		t.Fatalf("inflated groups = %d, want in (7, 28]", len(res.View()))
	}
	// Client-side de-inflation must recover exact sums.
	want := map[uint64]uint64{}
	for i, v := range vals {
		want[dims[i]] += v
	}
	got := map[uint64]uint64{}
	for _, g := range res.View() {
		if g.Suffix < 0 {
			t.Fatal("inflated group missing suffix")
		}
		got[g.KeyU64] += g.Aggs[0].U64
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("de-inflated group %d = %d, want %d", k, got[k], w)
		}
	}
}

func TestPaillierSum(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sk.NewMaskPool(rand.Reader, 16)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	vals := make([]uint64, rows)
	cts := make([][]byte, rows)
	var want uint64
	for i := range vals {
		vals[i] = uint64(i * 3)
		want += vals[i]
		cts[i] = sk.Marshal(pool.EncryptU64(vals[i]))
	}
	tbl, err := store.Build("p", []store.Column{{Name: "v_pail", Kind: store.Bytes, Bytes: cts}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{{Kind: AggPaillierSum, Col: "v_pail", PK: &sk.PublicKey}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.DecryptU64(res.View()[0].Aggs[0].Pail); got != want {
		t.Fatalf("paillier sum = %d, want %d", got, want)
	}
}

func TestMinMax(t *testing.T) {
	tbl, vals, _ := fixture(t, 500, 3)
	res, err := cluster().Run(context.Background(), &Plan{Table: tbl, Aggs: []Agg{
		{Kind: AggPlainMin, Col: "v"},
		{Kind: AggPlainMax, Col: "v"},
		{Kind: AggOpeMin, Col: "v_ope"},
		{Kind: AggOpeMax, Col: "v_ope"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var min, max = vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	g := res.View()[0]
	if g.Aggs[0].U64 != min || g.Aggs[1].U64 != max {
		t.Fatalf("plain min/max = %d/%d, want %d/%d", g.Aggs[0].U64, g.Aggs[1].U64, min, max)
	}
	// OPE extremes must compare equal to the encryption of the true extremes.
	if ope.Compare(g.Aggs[2].Ope, opeKey.Encrypt(min)) != 0 {
		t.Fatal("ope min mismatch")
	}
	if ope.Compare(g.Aggs[3].Ope, opeKey.Encrypt(max)) != 0 {
		t.Fatal("ope max mismatch")
	}
}

func TestScan(t *testing.T) {
	tbl, vals, _ := fixture(t, 400, 4)
	res, err := cluster().Run(context.Background(), &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 90}},
		Project: []string{"v", "v_ashe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, v := range vals {
		if v > 90 {
			want++
		}
	}
	if len(res.Scan) != want {
		t.Fatalf("scan rows = %d, want %d", len(res.Scan), want)
	}
	for _, row := range res.Scan {
		// Per-row ASHE decryption with the row id must match the plain value.
		if got := asheKey.DecryptBody(row.U64(1), row.ID); got != row.U64(0) {
			t.Fatalf("row %d: ashe %d != plain %d", row.ID, got, row.U64(0))
		}
	}
}

func TestJoin(t *testing.T) {
	// Left: visits(url_det, rev); right: pages(url_det, rank).
	const pages, visits = 50, 600
	rng := mrand.New(mrand.NewSource(4))
	purls := make([][]byte, pages)
	ranks := make([]uint64, pages)
	for i := 0; i < pages; i++ {
		purls[i] = detKey.EncryptString(fmt.Sprintf("url%d", i))
		ranks[i] = uint64(rng.Intn(1000))
	}
	right, err := store.Build("pages", []store.Column{
		{Name: "url_det", Kind: store.Bytes, Bytes: purls},
		{Name: "rank", Kind: store.U64, U64: ranks},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	vurls := make([][]byte, visits)
	revs := make([]uint64, visits)
	urlIdx := make([]int, visits)
	for i := 0; i < visits; i++ {
		// Some visits reference unknown pages and must drop.
		idx := rng.Intn(pages + 10)
		urlIdx[i] = idx
		if idx < pages {
			vurls[i] = purls[idx]
		} else {
			vurls[i] = detKey.EncryptString(fmt.Sprintf("missing%d", idx))
		}
		revs[i] = uint64(rng.Intn(100))
	}
	left, err := store.Build("visits", []store.Column{
		{Name: "url_det", Kind: store.Bytes, Bytes: vurls},
		{Name: "rev", Kind: store.U64, U64: revs},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster().Run(context.Background(), &Plan{
		Table: left,
		Join:  &Join{Right: right, LeftCol: "url_det", RightCol: "url_det", RightCols: []string{"rank"}},
		Aggs: []Agg{
			{Kind: AggPlainSum, Col: "rev"},
			{Kind: AggPlainSum, Col: "rank"}, // right-side column
			{Kind: AggCount},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantRev, wantRank, wantN uint64
	for i := 0; i < visits; i++ {
		if urlIdx[i] < pages {
			wantRev += revs[i]
			wantRank += ranks[urlIdx[i]]
			wantN++
		}
	}
	g := res.View()[0]
	if g.Aggs[0].U64 != wantRev || g.Aggs[1].U64 != wantRank || g.Aggs[2].U64 != wantN {
		t.Fatalf("join aggs = %d/%d/%d, want %d/%d/%d",
			g.Aggs[0].U64, g.Aggs[1].U64, g.Aggs[2].U64, wantRev, wantRank, wantN)
	}
}

func TestPlanValidation(t *testing.T) {
	tbl, _, _ := fixture(t, 10, 1)
	cases := []*Plan{
		{},
		{Table: tbl},
		{Table: tbl, Project: []string{"v"}, Aggs: []Agg{{Kind: AggCount}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggPaillierSum, Col: "v"}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggPlainSum, Col: "nope"}}},
		{Table: tbl, Aggs: []Agg{{Kind: AggCount}}, GroupBy: &GroupBy{Col: "nope"}},
		{Table: tbl, Aggs: []Agg{{Kind: AggCount}}, Filters: []Filter{{Kind: FilterPlainCmp, Col: "nope"}}},
		// Join key kinds must match: the typed join index can never pair a
		// u64 left key with a bytes right key, so the plan is rejected
		// instead of silently joining nothing.
		{Table: tbl, Aggs: []Agg{{Kind: AggCount}},
			Join: &Join{Right: tbl, LeftCol: "v", RightCol: "d_det"}},
	}
	for i, p := range cases {
		if _, err := cluster().Run(context.Background(), p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
