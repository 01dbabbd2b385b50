package planner

import (
	"strings"
	"testing"

	"seabed/internal/det"
	"seabed/internal/ope"
	"seabed/internal/schema"
	"seabed/internal/splashe"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

func adTable() *schema.Table {
	return &schema.Table{
		Name: "ads",
		Columns: []schema.Column{
			{Name: "revenue", Type: schema.Int64, Sensitive: true},
			{Name: "clicks", Type: schema.Int64, Sensitive: true},
			{Name: "country", Type: schema.String, Sensitive: true, Cardinality: 4,
				Freqs:  []uint64{1000, 900, 30, 20},
				Values: []string{"USA", "Canada", "India", "Chile"}},
			{Name: "gender", Type: schema.String, Sensitive: true, Cardinality: 2,
				Values: []string{"Male", "Female"}},
			{Name: "day", Type: schema.Int64, Sensitive: true},
			{Name: "hour", Type: schema.Int64, Sensitive: true, Cardinality: 24},
			{Name: "campaign", Type: schema.String, Sensitive: true},
			{Name: "region", Type: schema.String, Sensitive: false},
		},
	}
}

func adQueries() []*sqlparse.Query {
	return []*sqlparse.Query{
		sqlparse.MustParse("SELECT SUM(revenue) FROM ads WHERE country = 'Canada'"),
		sqlparse.MustParse("SELECT COUNT(*) FROM ads WHERE gender = 'Female'"),
		sqlparse.MustParse("SELECT VAR(clicks) FROM ads WHERE gender = 'Male'"),
		sqlparse.MustParse("SELECT SUM(revenue) FROM ads WHERE day > 15"),
		sqlparse.MustParse("SELECT hour, SUM(revenue) FROM ads GROUP BY hour"),
		sqlparse.MustParse("SELECT SUM(x.spend) FROM ads a JOIN budgets x ON a.campaign = x.campaign"),
	}
}

func mustPlan(t *testing.T, tbl *schema.Table, qs []*sqlparse.Query, opts Options) *Plan {
	t.Helper()
	p, err := New(tbl, qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeasureGetsASHE(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cp := p.Col("revenue")
	if !cp.Ashe || cp.Det || cp.Ope {
		t.Fatalf("revenue plan = %+v, want ASHE only", cp)
	}
	if cp.PrimaryScheme() != schema.ASHE {
		t.Fatalf("scheme = %v", cp.PrimaryScheme())
	}
}

func TestQuadraticMeasureGetsSquaredColumn(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cp := p.Col("clicks")
	if !cp.Ashe || !cp.Square {
		t.Fatalf("clicks plan = %+v, want ASHE + squared column", cp)
	}
}

func TestEqualityDimensionGetsSplashe(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	country := p.Col("country")
	if country.Splashe == nil {
		t.Fatalf("country plan = %+v, want SPLASHE", country)
	}
	if country.Splashe.Mode != splashe.Enhanced {
		t.Fatalf("country has freqs; want enhanced, got %v", country.Splashe.Mode)
	}
	if len(country.SplayedMeasures) != 1 || country.SplayedMeasures[0] != "revenue" {
		t.Fatalf("country splayed measures = %v, want [revenue]", country.SplayedMeasures)
	}
	gender := p.Col("gender")
	if gender.Splashe == nil || gender.Splashe.Mode != splashe.Basic {
		t.Fatalf("gender plan = %+v, want basic SPLASHE (no freqs)", gender)
	}
}

func TestRangeDimensionGetsOPE(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cp := p.Col("day")
	if !cp.Ope {
		t.Fatalf("day plan = %+v, want OPE", cp)
	}
}

func TestGroupByDimensionGetsDET(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cp := p.Col("hour")
	if !cp.Det || cp.Splashe != nil {
		t.Fatalf("hour plan = %+v, want DET for group-by", cp)
	}
}

func TestJoinDimensionGetsDETWithWarning(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cp := p.Col("campaign")
	if !cp.Det {
		t.Fatalf("campaign plan = %+v, want DET for join", cp)
	}
	found := false
	for _, w := range p.Warnings {
		if strings.Contains(w, "campaign") && strings.Contains(w, "join") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no join warning for campaign; warnings = %v", p.Warnings)
	}
}

func TestNonSensitiveStaysPlain(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cp := p.Col("region")
	if !cp.Plain || cp.PrimaryScheme() != schema.Plain {
		t.Fatalf("region plan = %+v, want plain", cp)
	}
}

func TestStorageBudgetFallsBackToDET(t *testing.T) {
	// With a tight budget, the higher-cardinality candidate (country, d=4)
	// must fall back to DET while gender (d=2) fits — lowest cardinality
	// first (§4.2). The budget sits in the middle of the window where that
	// holds (1.5 to 2.1) now that an OPE column is 16 bytes per row, not 64.
	p := mustPlan(t, adTable(), adQueries(), Options{MaxStorageOverhead: 1.8})
	gender := p.Col("gender")
	country := p.Col("country")
	if gender.Splashe == nil {
		t.Fatalf("gender plan = %+v, want SPLASHE under tight budget (d=2 planned first)", gender)
	}
	if country.Splashe != nil || !country.Det {
		t.Fatalf("country plan = %+v, want DET fallback under tight budget", country)
	}
	found := false
	for _, w := range p.Warnings {
		if strings.Contains(w, "country") && strings.Contains(w, "budget") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no budget warning; warnings = %v", p.Warnings)
	}
}

func TestUnknownCardinalityFallsBackToDET(t *testing.T) {
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "m", Type: schema.Int64, Sensitive: true},
		{Name: "d", Type: schema.String, Sensitive: true}, // no cardinality
	}}
	qs := []*sqlparse.Query{sqlparse.MustParse("SELECT SUM(m) FROM t WHERE d = 'x'")}
	p := mustPlan(t, tbl, qs, Options{})
	if cp := p.Col("d"); !cp.Det || cp.Splashe != nil {
		t.Fatalf("d plan = %+v, want DET for unknown cardinality", cp)
	}
}

func TestMinMaxMeasureGetsOPE(t *testing.T) {
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "m", Type: schema.Int64, Sensitive: true},
	}}
	qs := []*sqlparse.Query{sqlparse.MustParse("SELECT MAX(m) FROM t")}
	p := mustPlan(t, tbl, qs, Options{})
	if cp := p.Col("m"); !cp.Ope {
		t.Fatalf("m plan = %+v, want OPE for MAX", cp)
	}
}

func TestProjectedSensitiveColumnRetrievable(t *testing.T) {
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "pageRank", Type: schema.Int64, Sensitive: true},
	}}
	qs := []*sqlparse.Query{sqlparse.MustParse("SELECT pageRank FROM t WHERE pageRank > 100")}
	p := mustPlan(t, tbl, qs, Options{})
	cp := p.Col("pageRank")
	if !cp.Ashe || !cp.Ope {
		t.Fatalf("pageRank plan = %+v, want ASHE (retrieval) + OPE (range)", cp)
	}
}

func TestUnusedSensitiveColumnStaysRetrievable(t *testing.T) {
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "m", Type: schema.Int64, Sensitive: true},
		{Name: "s", Type: schema.String, Sensitive: true},
	}}
	p := mustPlan(t, tbl, nil, Options{})
	if cp := p.Col("m"); !cp.Ashe {
		t.Fatalf("unused int column plan = %+v, want ASHE", cp)
	}
	if cp := p.Col("s"); !cp.Det {
		t.Fatalf("unused string column plan = %+v, want DET", cp)
	}
}

func TestEncColumnsEnumeration(t *testing.T) {
	p := mustPlan(t, adTable(), adQueries(), Options{})
	cols := p.EncColumns()
	byName := map[string]EncColumn{}
	for _, c := range cols {
		if _, dup := byName[c.Name]; dup {
			t.Fatalf("duplicate physical column %q", c.Name)
		}
		byName[c.Name] = c
	}
	for _, want := range []string{
		AsheName("revenue"), AsheName("clicks"), SquareName("clicks"),
		OpeName("day"), DetName("hour"), DetName("campaign"),
		IndName("gender", 0, false), IndName("gender", 1, false),
		SplayName("revenue", "country", 0, false),
	} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing physical column %q; have %v", want, names(cols))
		}
	}
	// Enhanced country layout: k dedicated + others indicator + DET column.
	country := p.Col("country")
	k := country.Splashe.K
	if _, ok := byName[IndName("country", k, true)]; !ok {
		t.Fatalf("missing others indicator for country; have %v", names(cols))
	}
	if _, ok := byName[DetName("country")]; !ok {
		t.Fatal("missing balanced DET column for enhanced country")
	}
	if _, ok := byName[SplayName("revenue", "country", k, true)]; !ok {
		t.Fatal("missing others splay column for revenue under country")
	}
	// region stays plain under its own name.
	if c, ok := byName["region"]; !ok || c.Scheme != schema.Plain {
		t.Fatalf("region = %+v", c)
	}
}

func names(cols []EncColumn) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sql    string
		traits QueryTraits
		want   Category
	}{
		{"SELECT SUM(a) FROM t", QueryTraits{}, Server},
		{"SELECT AVG(a) FROM t", QueryTraits{}, Server},
		{"SELECT COUNT(*) FROM t WHERE b = 1", QueryTraits{}, Server},
		{"SELECT MIN(a) FROM t", QueryTraits{}, Server},
		{"SELECT VAR(a) FROM t", QueryTraits{}, ClientPre},
		{"SELECT STDDEV(a) FROM t", QueryTraits{}, ClientPre},
		{"SELECT SUM(a) FROM t", QueryTraits{UDF: true}, ClientPost},
		{"SELECT SUM(a) FROM t", QueryTraits{Iterative: true}, TwoRoundTrips},
		{"SELECT SUM(a) FROM t", QueryTraits{UDF: true, Iterative: true}, TwoRoundTrips},
	}
	for _, c := range cases {
		got := Classify(sqlparse.MustParse(c.sql), c.traits)
		if got != c.want {
			t.Errorf("Classify(%q, %+v) = %v, want %v", c.sql, c.traits, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Server.String() != "S" || ClientPre.String() != "CPre" ||
		ClientPost.String() != "CPost" || TwoRoundTrips.String() != "2R" {
		t.Fatal("Category.String broken")
	}
}

// TestEstimateIsWhatFixedColumnsStore: for a schema whose encrypted columns
// are all fixed-width — ASHE words, DET(u64) and OPE ciphertexts — the
// planner's per-row estimate times the rows is exactly the bytes the columns'
// extents take (store.ColumnExtentSize, which sizes segments and the
// benchmark's residency budget). The estimate has counted 16 bytes per DET or
// OPE value all along; storage spent 8 more on an offset until those columns
// became one flat buffer.
func TestEstimateIsWhatFixedColumnsStore(t *testing.T) {
	tbl := &schema.Table{Name: "ev", Columns: []schema.Column{
		{Name: "rev", Type: schema.Int64, Sensitive: true},
		{Name: "clicks", Type: schema.Int64, Sensitive: true},
		{Name: "uid", Type: schema.Int64, Sensitive: true},
		{Name: "day", Type: schema.Int64, Sensitive: true},
	}}
	p := mustPlan(t, tbl, []*sqlparse.Query{
		sqlparse.MustParse("SELECT uid, SUM(rev) FROM ev GROUP BY uid"),
		sqlparse.MustParse("SELECT VAR(clicks) FROM ev WHERE day > 15"),
		sqlparse.MustParse("SELECT MIN(rev) FROM ev"),
	}, Options{})
	const rows = 1000
	vals := make([]uint64, rows)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b1
	}
	dk, ok := det.MustNewKey([]byte("0123456789abcdef")), ope.MustNewKey([]byte("0123456789abcdef"))
	var stored, dets, opes int
	for _, ec := range p.EncColumns() {
		c := store.Column{Name: ec.Name, Kind: ec.Kind}
		switch {
		case ec.Kind == store.U64:
			c.U64 = vals
		case ec.Kind == store.Fixed && ec.Scheme == schema.DET:
			c.Width, c.Fixed = det.U64Size, dk.EncryptU64Column(vals)
			dets++
		case ec.Kind == store.Fixed && ec.Scheme == schema.OPE:
			c.Width, c.Fixed = ope.CiphertextSize, ok.EncryptColumn(vals)
			opes++
		default:
			t.Fatalf("column %q is %v/%v: not fixed-width", ec.Name, ec.Kind, ec.Scheme)
		}
		stored += store.ColumnExtentSize(&c)
	}
	if dets == 0 || opes == 0 {
		t.Fatalf("schema planned %d DET and %d OPE columns, want both", dets, opes)
	}
	if est := p.encryptedRowBytes() * rows; est != float64(stored) {
		t.Errorf("estimate %.0f bytes (%.0f per row), columns store %d", est, p.encryptedRowBytes(), stored)
	}
}
