package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
)

var allModes = []translate.Mode{translate.NoEnc, translate.Seabed, translate.Paillier}

// salesFixture builds a small retail table exercising every scheme: ASHE
// measures, a squared column, enhanced and basic SPLASHE, DET group-by, OPE
// ranges.
func salesFixture(t *testing.T) *Proxy {
	t.Helper()
	return salesProxy(t, 1, allModes...)
}

// salesProxy is salesFixture at scale × 4,000 rows, uploaded in the given
// modes.
func salesProxy(t testing.TB, scale int, modes ...translate.Mode) *Proxy {
	t.Helper()
	return salesProxyClicks(t, scale, 50, modes...)
}

// salesProxyClicks is salesProxy with clicks drawn from [0, clicks). Above 50
// clicks the plan is also asked to group by them, so clicks is a DET column: a
// key as wide as the caller makes it.
func salesProxyClicks(t testing.TB, scale, clickValues int, modes ...translate.Mode) *Proxy {
	t.Helper()
	rows := 4000 * scale
	rng := rand.New(rand.NewSource(21))

	countries := []string{"USA", "Canada", "India", "Chile", "Japan"}
	// Skewed: USA/Canada dominate.
	countryFreq := []uint64{1800, 1500, 250, 250, 200}
	for v := range countryFreq {
		countryFreq[v] *= uint64(scale)
	}
	genders := []string{"Male", "Female"}

	countryCol := make([]string, 0, rows)
	for v, c := range countryFreq {
		for i := uint64(0); i < c; i++ {
			countryCol = append(countryCol, countries[v])
		}
	}
	rng.Shuffle(len(countryCol), func(a, b int) { countryCol[a], countryCol[b] = countryCol[b], countryCol[a] })

	genderCol := make([]string, rows)
	revenue := make([]uint64, rows)
	clicks := make([]uint64, rows)
	day := make([]uint64, rows)
	hour := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		genderCol[i] = genders[rng.Intn(2)]
		revenue[i] = uint64(rng.Intn(10000))
		clicks[i] = uint64(rng.Intn(clickValues))
		day[i] = uint64(rng.Intn(31) + 1)
		hour[i] = uint64(rng.Intn(6))
	}

	tbl := &schema.Table{
		Name: "sales",
		Columns: []schema.Column{
			{Name: "revenue", Type: schema.Int64, Sensitive: true},
			{Name: "clicks", Type: schema.Int64, Sensitive: true},
			{Name: "country", Type: schema.String, Sensitive: true, Cardinality: 5,
				Freqs: countryFreq, Values: countries},
			{Name: "gender", Type: schema.String, Sensitive: true, Cardinality: 2, Values: genders},
			{Name: "day", Type: schema.Int64, Sensitive: true},
			{Name: "hour", Type: schema.Int64, Sensitive: true},
		},
	}
	samples := []string{
		"SELECT SUM(revenue) FROM sales WHERE country = 'India'",
		"SELECT SUM(revenue) FROM sales WHERE gender = 'Female'",
		"SELECT COUNT(*) FROM sales WHERE country = 'USA'",
		"SELECT VAR(clicks) FROM sales",
		"SELECT SUM(revenue) FROM sales WHERE day > 15",
		"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		"SELECT MIN(revenue) FROM sales",
		"SELECT MAX(revenue) FROM sales",
	}
	if clickValues > 50 {
		samples = append(samples, "SELECT clicks, SUM(revenue) FROM sales GROUP BY clicks")
	}

	cluster := engine.NewCluster(engine.Config{Workers: 4})
	proxy, err := NewProxy([]byte("test-master-secret-0123456789"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Parts = 8
	if _, err := proxy.CreatePlan(tbl, samples, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	src, err := store.Build("sales", []store.Column{
		{Name: "revenue", Kind: store.U64, U64: revenue},
		{Name: "clicks", Kind: store.U64, U64: clicks},
		{Name: "country", Kind: store.Str, Str: countryCol},
		{Name: "gender", Kind: store.Str, Str: genderCol},
		{Name: "day", Kind: store.U64, U64: day},
		{Name: "hour", Kind: store.U64, U64: hour},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Ring().EnsurePaillier(256); err != nil { // small key: test speed
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "sales", src, modes...); err != nil {
		t.Fatal(err)
	}
	return proxy
}

// mustRows materializes a result's rows, failing the test on error.
func mustRows(t *testing.T, r *QueryResult) []Row {
	t.Helper()
	rows, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// runAll runs a query in all three modes and checks that results agree,
// returning the NoEnc baseline's rows.
func runAll(t *testing.T, p *Proxy, sql string, opts ...QueryOption) []Row {
	t.Helper()
	base, err := p.Query(context.Background(), sql, append([]QueryOption{WithMode(translate.NoEnc)}, opts...)...)
	if err != nil {
		t.Fatalf("NoEnc %q: %v", sql, err)
	}
	baseRows := mustRows(t, base)
	for _, mode := range []translate.Mode{translate.Seabed, translate.Paillier} {
		got, err := p.Query(context.Background(), sql, append([]QueryOption{WithMode(mode)}, opts...)...)
		if err != nil {
			t.Fatalf("%v %q: %v", mode, sql, err)
		}
		assertSameRows(t, sql, mode, baseRows, mustRows(t, got))
	}
	return baseRows
}

func assertSameRows(t *testing.T, sql string, mode translate.Mode, want, got []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v %q: %d rows, want %d", mode, sql, len(got), len(want))
	}
	for i := range want {
		wr, gr := want[i], got[i]
		if (wr.Key == nil) != (gr.Key == nil) {
			t.Fatalf("%v %q row %d: key presence mismatch", mode, sql, i)
		}
		if wr.Key != nil && wr.Key.Display() != gr.Key.Display() {
			t.Fatalf("%v %q row %d: key %s, want %s", mode, sql, i, gr.Key.Display(), wr.Key.Display())
		}
		if len(wr.Values) != len(gr.Values) {
			t.Fatalf("%v %q row %d: %d values, want %d", mode, sql, i, len(gr.Values), len(wr.Values))
		}
		for j := range wr.Values {
			wv, gv := wr.Values[j], gr.Values[j]
			if wv.Kind == Float {
				diff := wv.F64 - gv.F64
				if diff < 0 {
					diff = -diff
				}
				tol := 1e-6 * (1 + wv.F64)
				if tol < 0 {
					tol = -tol
				}
				if diff > tol {
					t.Fatalf("%v %q row %d col %d: %v, want %v", mode, sql, i, j, gv.F64, wv.F64)
				}
			} else if wv.Display() != gv.Display() {
				t.Fatalf("%v %q row %d col %d: %s, want %s", mode, sql, i, j, gv.Display(), wv.Display())
			}
		}
	}
}

func TestEndToEndEquivalence(t *testing.T) {
	p := salesFixture(t)
	queries := []string{
		// Plain aggregation.
		"SELECT SUM(revenue) FROM sales",
		"SELECT COUNT(*) FROM sales",
		"SELECT AVG(revenue) FROM sales",
		// SPLASHE enhanced: common value (dedicated column).
		"SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
		// SPLASHE enhanced: uncommon value (others column + balanced DET).
		"SELECT SUM(revenue) FROM sales WHERE country = 'India'",
		"SELECT COUNT(*) FROM sales WHERE country = 'Chile'",
		// SPLASHE basic.
		"SELECT SUM(revenue) FROM sales WHERE gender = 'Female'",
		"SELECT COUNT(*) FROM sales WHERE gender = 'Male'",
		// OPE range + combination.
		"SELECT SUM(revenue) FROM sales WHERE day > 15",
		"SELECT SUM(revenue) FROM sales WHERE day >= 10 AND day <= 20",
		// Quadratic (client pre-processing).
		"SELECT VAR(clicks) FROM sales",
		"SELECT STDDEV(clicks) FROM sales",
		// Group-by over DET keys.
		"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		"SELECT hour, AVG(revenue) FROM sales GROUP BY hour",
		// Min/max via OPE + ASHE companion.
		"SELECT MIN(revenue) FROM sales",
		"SELECT MAX(revenue) FROM sales",
		// Subquery with ID preservation (Table 2).
		"SELECT SUM(tmp.revenue) FROM (SELECT revenue FROM sales WHERE day > 10) tmp",
	}
	for _, sql := range queries {
		t.Run(sql, func(t *testing.T) {
			runAll(t, p, sql)
		})
	}
}

func TestSplasheCombinedWithOpe(t *testing.T) {
	p := salesFixture(t)
	runAll(t, p, "SELECT SUM(revenue) FROM sales WHERE country = 'USA' AND day > 20")
	runAll(t, p, "SELECT SUM(revenue) FROM sales WHERE country = 'Japan' AND day < 5")
}

func TestGroupInflationEndToEnd(t *testing.T) {
	p := salesFixture(t)
	plainRows := runAll(t, p, "SELECT hour, SUM(revenue) FROM sales GROUP BY hour")
	if _, err := p.Query(context.Background(), "SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		WithExpectedGroups(6)); err != nil {
		t.Fatal(err)
	}
	// Workers=4 < 6 expected groups: no inflation kicks in. Force a larger
	// cluster to exercise it.
	cluster := engine.NewCluster(engine.Config{Workers: 24})
	p2 := reclusteredProxy(t, p, cluster)
	inflRes, err := p2.Query(context.Background(), "SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		WithExpectedGroups(6))
	if err != nil {
		t.Fatal(err)
	}
	inflRows := mustRows(t, inflRes)
	if len(inflRows) != len(plainRows) {
		t.Fatalf("inflated query returned %d rows, want %d", len(inflRows), len(plainRows))
	}
	for i := range plainRows {
		if inflRows[i].Values[1].I64 != plainRows[i].Values[1].I64 {
			t.Fatalf("row %d: inflated sum %d, want %d", i,
				inflRows[i].Values[1].I64, plainRows[i].Values[1].I64)
		}
	}
}

// reclusteredProxy rebinds an existing proxy's tables to a new cluster.
func reclusteredProxy(t *testing.T, p *Proxy, cluster *engine.Cluster) *Proxy {
	t.Helper()
	p2 := &Proxy{ring: p.ring, cluster: cluster, tables: p.tables}
	return p2
}

func TestScanQueryEndToEnd(t *testing.T) {
	p := salesFixture(t)
	sql := "SELECT revenue FROM sales WHERE day > 29"
	want, err := p.Query(context.Background(), sql, WithMode(translate.NoEnc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, gotRows := mustRows(t, want), mustRows(t, got)
	if len(wantRows) == 0 || len(gotRows) != len(wantRows) {
		t.Fatalf("scan rows: %d vs %d", len(gotRows), len(wantRows))
	}
	sum := func(rows []Row) (s int64) {
		for _, r := range rows {
			s += r.Values[0].I64
		}
		return
	}
	if sum(gotRows) != sum(wantRows) {
		t.Fatalf("scan value sums differ: %d vs %d", sum(gotRows), sum(wantRows))
	}
}

// TestScanRowValuesAreCarvedNotGrown: each row's Values is exactly the
// projection wide, cut from a backing array shared by its chunk — not a slice
// grown from nil one append at a time — and a row narrower than the plan's
// projection (an in-process backend checks nothing) is an error, not an index
// out of range.
func TestScanRowValuesAreCarvedNotGrown(t *testing.T) {
	p := salesFixture(t)
	res, err := p.Query(context.Background(), "SELECT revenue, hour FROM sales WHERE day > 27")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if len(rows) < 2 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	for i, r := range rows {
		if len(r.Values) != 2 || cap(r.Values) != 2 {
			t.Fatalf("row %d: Values has len %d cap %d, want exactly the 2 projected columns", i, len(r.Values), cap(r.Values))
		}
	}
	if stride := uintptr(unsafe.Pointer(&rows[1].Values[0])) - uintptr(unsafe.Pointer(&rows[0].Values[0])); stride != 2*unsafe.Sizeof(Value{}) {
		t.Errorf("rows 0 and 1 are %d bytes apart, want neighbours in one backing array", stride)
	}

	d := newDecrypter(p.ring, idlist.Default)
	cols := []translate.ScanCol{{Name: "a", Ashe: true, SourceCol: "revenue"}, {Name: "h", Det: true, SourceCol: "hour"}}
	d.resolveScan(cols)
	for name, sr := range map[string]engine.ScanRow{
		"one column": (&engine.ScanChunk{IDs: []uint64{7}, Cols: []store.Column{{Kind: store.U64, U64: []uint64{1}}}}).Rows()[0],
		"no columns": (&engine.ScanChunk{IDs: []uint64{7}}).Rows()[0],
	} {
		if _, err := d.scanRows(cols, []engine.ScanRow{sr}); err == nil || !strings.Contains(err.Error(), "malformed or hostile result") {
			t.Errorf("%s: err = %v, want a malformed-result error", name, err)
		}
	}
}

// zeroIDBackend streams a scan as one row with identifier 0 and the first
// row's first cell: a daemon handing the proxy a reserved identifier.
type zeroIDBackend struct{ *engine.Cluster }

func (b zeroIDBackend) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	sent := false
	return b.Cluster.RunStream(ctx, pl, func(rows []engine.ScanRow) error {
		if sent {
			return nil
		}
		sent = true
		return sink((&engine.ScanChunk{IDs: []uint64{0}, Cols: []store.Column{{Kind: store.U64, U64: []uint64{rows[0].U64(0)}}}}).Rows())
	})
}

// TestReservedIdentifierIsAnError: ASHE identifier 0 in a result — an
// aggregate's list that starts at 0, or a scan row with identifier 0 under an
// ASHE cell, materialized or streamed — is a ReservedIDError naming the
// aggregate or the row, not a panic in the ASHE decryption.
func TestReservedIdentifierIsAnError(t *testing.T) {
	p := salesFixture(t)
	cl := engine.NewCluster(engine.Config{Workers: 4})
	tr, partials := shardResults(t, p, cl, "SELECT SUM(revenue) FROM sales", translate.Seabed, translate.Options{Workers: 4})
	merged, err := engine.Merge(tr.Server, partials)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Cols.Len() != 1 || merged.Cols.Aggs[0].Kind != engine.AggAsheSum {
		t.Fatalf("fixture: %d groups, aggregates %+v", merged.Cols.Len(), tr.Server.Aggs)
	}
	zero, err := tr.Server.EffectiveCodec().Encode(idlist.FromRange(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	merged.Cols.IDs = []engine.IDPart{{Selected: 4, List: zero, Groups: 1}}
	var rid *ReservedIDError
	if _, err := Decrypt(tr, merged, p.Ring()); !errors.As(err, &rid) || !strings.Contains(rid.Where, "aggregate 0") {
		t.Errorf("aggregate over [0,3]: err = %v, want a ReservedIDError naming aggregate 0", err)
	}

	const scan = "SELECT revenue FROM sales WHERE day > 29"
	stmt, err := sqlparse.ParseStatement(scan)
	if err != nil {
		t.Fatal(err)
	}
	str, err := translate.Translate(stmt.Query, p, p.Ring(), translate.Seabed, translate.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(str.Client.ScanCols) != 1 || !str.Client.ScanCols[0].Ashe {
		t.Fatalf("fixture: scan columns %+v, want one ASHE column", str.Client.ScanCols)
	}
	row := (&engine.ScanChunk{IDs: []uint64{0}, Cols: []store.Column{{Kind: store.U64, U64: []uint64{42}}}}).Rows()
	if _, err := Decrypt(str, &engine.Result{Scan: row}, p.Ring()); !errors.As(err, &rid) || !strings.Contains(rid.Where, "scan row 0") {
		t.Errorf("materialized scan row 0: err = %v, want a ReservedIDError naming the row", err)
	}

	zp := &Proxy{ring: p.ring, cluster: zeroIDBackend{cl}, tables: p.tables}
	res, err := zp.Query(context.Background(), scan, WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); !errors.As(err, &rid) || !strings.Contains(rid.Where, "scan row 0") {
		t.Errorf("streamed scan row 0: err = %v, want a ReservedIDError naming the row", err)
	}
}

func TestQueryMetricsPopulated(t *testing.T) {
	p := salesFixture(t)
	res, err := p.Query(context.Background(), "SELECT SUM(revenue) FROM sales WHERE country = 'India'")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerTime <= 0 || res.ClientTime <= 0 || res.TotalTime <= 0 {
		t.Fatalf("latency breakdown missing: %+v", res)
	}
	if res.Metrics.ResultBytes <= 0 || res.Metrics.RowsScanned == 0 {
		t.Fatalf("server metrics missing: %+v", res.Metrics)
	}
	if res.PRFEvals == 0 {
		t.Fatal("PRF eval count missing")
	}
}

func TestUploadRequiresPlan(t *testing.T) {
	cluster := engine.NewCluster(engine.Config{Workers: 2})
	p, err := NewProxy([]byte("test-master-secret-0123456789"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := store.Build("x", []store.Column{{Name: "a", Kind: store.U64, U64: []uint64{1}}}, 1)
	if err := p.Upload(context.Background(), "x", src, translate.Seabed); err == nil {
		t.Fatal("want error for upload without plan")
	}
}

func TestQueryErrors(t *testing.T) {
	p := salesFixture(t)
	for _, sql := range []string{
		"SELECT SUM(nonexistent) FROM sales",
		"SELECT SUM(revenue) FROM nonexistent",
		"SELECT SUM(revenue) FROM sales WHERE country = 'Atlantis'",
		"SELECT SUM(revenue) FROM sales WHERE country = 'USA' AND gender = 'Male'", // two splayed dims
		"not sql at all",
	} {
		if _, err := p.Query(context.Background(), sql); err == nil {
			t.Errorf("%q: want error", sql)
		}
	}
}

func TestKeyRingDerivation(t *testing.T) {
	ring, err := NewKeyRing([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	// Different columns get different keys.
	a := ring.Ashe("col1").EncryptBody(7, 1)
	b := ring.Ashe("col2").EncryptBody(7, 1)
	if a == b {
		t.Fatal("per-column ASHE keys coincide")
	}
	// Same column derives the same key.
	if ring.Ashe("col1").EncryptBody(7, 1) != a {
		t.Fatal("ASHE key derivation is unstable")
	}
	// Domains are separated.
	d1 := ring.Det("col1").EncryptU64(7)
	d2 := ring.Det("col2").EncryptU64(7)
	if string(d1) == string(d2) {
		t.Fatal("per-column DET keys coincide")
	}
	if _, err := NewKeyRing([]byte("short")); err == nil {
		t.Fatal("want error for short master secret")
	}
}

func TestSplasheFrequencyHiding(t *testing.T) {
	// End-to-end check of the §3.4 security goal: the uploaded enhanced
	// SPLASHE DET column must show near-uniform ciphertext frequencies even
	// though the plaintext distribution is heavily skewed.
	p := salesFixture(t)
	enc, err := p.Table("sales", translate.Seabed)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, part := range enc.Parts {
		col := part.Col("country_det")
		if col == nil {
			t.Fatal("encrypted table missing balanced country_det column")
		}
		for i := 0; i < col.Len(); i++ {
			counts[string(col.BytesAt(i))]++
		}
	}
	var min, max int
	min = 1 << 30
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(min) > 1.6 {
		t.Fatalf("balanced DET frequencies spread %d..%d; frequency attack possible", min, max)
	}
	// The plaintext distribution skew was 1800 vs 200 = 9x; ciphertexts must
	// not reflect it.
	if len(counts) != 3 {
		t.Fatalf("distinct DET ciphertexts = %d, want 3 (uncommon countries)", len(counts))
	}
}

func TestPaillierTableUsesMaskPool(t *testing.T) {
	// Upload speed sanity: Paillier upload of 4000 rows must finish quickly
	// thanks to the mask pool (fresh encryption would take minutes).
	p := salesFixture(t)
	if _, err := p.Table("sales", translate.Paillier); err != nil {
		t.Fatal(err)
	}
}

func TestValueDisplay(t *testing.T) {
	if (Value{Kind: Int, I64: -3}).Display() != "-3" {
		t.Fatal("int display")
	}
	if (Value{Kind: Float, F64: 1.5}).Display() != "1.5000" {
		t.Fatal("float display")
	}
	if (Value{Kind: Str, Str: "x"}).Display() != "x" {
		t.Fatal("str display")
	}
}

func TestModeString(t *testing.T) {
	for mode, want := range map[translate.Mode]string{
		translate.NoEnc: "NoEnc", translate.Seabed: "Seabed", translate.Paillier: "Paillier",
	} {
		if mode.String() != want {
			t.Fatalf("Mode.String() = %q, want %q", mode.String(), want)
		}
	}
}

func ExampleProxy_Query() {
	cluster := engine.NewCluster(engine.Config{Workers: 2})
	proxy, _ := NewProxy([]byte("example-master-secret-16+"), cluster)
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "m", Type: schema.Int64, Sensitive: true},
	}}
	_, _ = proxy.CreatePlan(tbl, []string{"SELECT SUM(m) FROM t"}, planner.Options{})
	src, _ := store.Build("t", []store.Column{{Name: "m", Kind: store.U64, U64: []uint64{1, 2, 3}}}, 1)
	_ = proxy.Upload(context.Background(), "t", src, translate.Seabed)
	res, _ := proxy.Query(context.Background(), "SELECT SUM(m) FROM t")
	rows, _ := res.All()
	fmt.Println(rows[0].Values[0].Display())
	// Output: 6
}

func TestMedianEndToEnd(t *testing.T) {
	// MEDIAN needs its own fixture: the planner must see the aggregate in
	// the samples so revenue gets OPE + ASHE forms.
	const rows = 1001
	rng := rand.New(rand.NewSource(31))
	vals := make([]uint64, rows)
	for i := range vals {
		vals[i] = uint64(rng.Intn(100000))
	}
	tbl := &schema.Table{Name: "med", Columns: []schema.Column{
		{Name: "v", Type: schema.Int64, Sensitive: true},
	}}
	cluster := engine.NewCluster(engine.Config{Workers: 4})
	proxy, err := NewProxy([]byte("median-test-master-secret-01234"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.CreatePlan(tbl, []string{"SELECT MEDIAN(v) FROM med"}, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	src, err := store.Build("med", []store.Column{{Name: "v", Kind: store.U64, U64: vals}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "med", src, translate.NoEnc, translate.Seabed); err != nil {
		t.Fatal(err)
	}
	want, err := proxy.Query(context.Background(), "SELECT MEDIAN(v) FROM med", WithMode(translate.NoEnc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := proxy.Query(context.Background(), "SELECT MEDIAN(v) FROM med")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, gotRows := mustRows(t, want), mustRows(t, got)
	if gotRows[0].Values[0].I64 != wantRows[0].Values[0].I64 {
		t.Fatalf("median = %d, want %d", gotRows[0].Values[0].I64, wantRows[0].Values[0].I64)
	}
	// Cross-check against a direct sort.
	sorted := append([]uint64(nil), vals...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	if uint64(wantRows[0].Values[0].I64) != sorted[rows/2] {
		t.Fatalf("plain median %d != sorted middle %d", wantRows[0].Values[0].I64, sorted[rows/2])
	}
}

func TestMedianGroupBy(t *testing.T) {
	const rows = 600
	rng := rand.New(rand.NewSource(32))
	vals := make([]uint64, rows)
	grp := make([]uint64, rows)
	for i := range vals {
		vals[i] = uint64(rng.Intn(10000))
		grp[i] = uint64(i % 3)
	}
	tbl := &schema.Table{Name: "medg", Columns: []schema.Column{
		{Name: "v", Type: schema.Int64, Sensitive: true},
		{Name: "g", Type: schema.Int64, Sensitive: true, Cardinality: 3},
	}}
	cluster := engine.NewCluster(engine.Config{Workers: 4})
	proxy, err := NewProxy([]byte("median-test-master-secret-01234"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.CreatePlan(tbl, []string{"SELECT g, MEDIAN(v) FROM medg GROUP BY g"}, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	src, err := store.Build("medg", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "g", Kind: store.U64, U64: grp},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "medg", src, translate.NoEnc, translate.Seabed); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT g, MEDIAN(v) FROM medg GROUP BY g"
	want, err := proxy.Query(context.Background(), sql, WithMode(translate.NoEnc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := proxy.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, gotRows := mustRows(t, want), mustRows(t, got)
	if len(gotRows) != 3 || len(wantRows) != 3 {
		t.Fatalf("groups: %d vs %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i].Values[1].I64 != wantRows[i].Values[1].I64 {
			t.Fatalf("group %d median = %d, want %d", i, gotRows[i].Values[1].I64, wantRows[i].Values[1].I64)
		}
	}
}

// tamperBackend runs plans on a real engine and lets a test rewrite the
// result's columns before the proxy sees them: the untrusted server.
type tamperBackend struct {
	*engine.Cluster
	tamper func(c *engine.GroupCols)
}

func (b *tamperBackend) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	res, err := b.Cluster.Run(ctx, pl)
	if err == nil && res.Cols != nil {
		b.tamper(res.Cols)
	}
	return res, err
}

func (b *tamperBackend) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	return b.Run(ctx, pl)
}

// TestDecryptRejectsMisshapenColumns pins Decrypt's guard on the trust
// boundary: a server that returns fewer aggregate columns than the plan asked
// for, or a column of another kind, gets a typed error — Decrypt indexes
// columns by the plan's aggregate numbers and must never do so blindly.
func TestDecryptRejectsMisshapenColumns(t *testing.T) {
	p := salesFixture(t)
	const sql = "SELECT hour, SUM(revenue), COUNT(*) FROM sales GROUP BY hour"
	if _, err := p.Query(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(c *engine.GroupCols){
		"a column dropped": func(c *engine.GroupCols) { c.Aggs = c.Aggs[:len(c.Aggs)-1] },
		"a column of another kind": func(c *engine.GroupCols) {
			for i := range c.Aggs {
				if c.Aggs[i].Kind == engine.AggAsheSum {
					c.Aggs[i] = engine.AggCol{Kind: engine.AggCount, Lane: c.Aggs[i].Lane}
				}
			}
		},
	} {
		hostile := &Proxy{ring: p.ring, tables: p.tables,
			cluster: &tamperBackend{Cluster: engine.NewCluster(engine.Config{Workers: 4}), tamper: tamper}}
		_, err := hostile.Query(context.Background(), sql)
		if err == nil || !strings.Contains(err.Error(), "malformed or hostile result") {
			t.Errorf("%s: err = %v, want a malformed-result error", name, err)
		}
	}
}
