package workload

import (
	"testing"

	"seabed/internal/planner"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(1000, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(1000, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Parts[0].Col("v"), b.Parts[0].Col("v")
	for i := range ca.U64 {
		if ca.U64[i] != cb.U64[i] {
			t.Fatal("synthetic generator is not deterministic")
		}
	}
	if a.NumRows() != 1000 {
		t.Fatalf("rows = %d", a.NumRows())
	}
}

func TestSyntheticSchemaMatchesQueries(t *testing.T) {
	tbl := SyntheticSchema(10)
	var qs []*sqlparse.Query
	for _, s := range SyntheticQueries() {
		qs = append(qs, sqlparse.MustParse(s))
	}
	plan, err := planner.New(tbl, qs, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Col("v").Ashe {
		t.Fatal("v must be ASHE")
	}
	if !plan.Col("g").Det {
		t.Fatal("g must be DET (group-by)")
	}
	if !plan.Col("o").Ope {
		t.Fatal("o must be OPE (range)")
	}
}

func TestScaleRows(t *testing.T) {
	if got := ScaleRows(1_750_000_000, 10_000); got != 175_000 {
		t.Fatalf("ScaleRows = %d", got)
	}
	if got := ScaleRows(100, 10_000); got != 1000 {
		t.Fatalf("ScaleRows floor = %d", got)
	}
	if got := ScaleRows(500, 0); got != 1000 {
		t.Fatalf("ScaleRows zero divisor = %d", got)
	}
}

func TestGenerateBDBShapes(t *testing.T) {
	bdb, err := GenerateBDB(BDBConfig{Pages: 100, Visits: 1000, Q4Rows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bdb.Rankings.NumRows() != 100 || bdb.UserVisits.NumRows() != 1000 || bdb.Q4Phase2.NumRows() != 500 {
		t.Fatalf("row counts: %d/%d/%d", bdb.Rankings.NumRows(), bdb.UserVisits.NumRows(), bdb.Q4Phase2.NumRows())
	}
	// Every destURL must reference a real page (inner-join totals match).
	urls := map[string]bool{}
	for _, p := range bdb.Rankings.Parts {
		for _, u := range p.Col("pageURL").Str {
			urls[u] = true
		}
	}
	for _, p := range bdb.UserVisits.Parts {
		for _, u := range p.Col("destURL").Str {
			if !urls[u] {
				t.Fatalf("destURL %q not in rankings", u)
			}
		}
	}
	// Prefix columns are actual prefixes.
	uv := bdb.UserVisits.Parts[0]
	for i := 0; i < 10; i++ {
		ip := uv.Col("sourceIP").Str[i]
		if uv.Col("srcPrefix8").Str[i] != prefix(ip, 8) {
			t.Fatalf("prefix mismatch at %d", i)
		}
	}
	if _, err := GenerateBDB(BDBConfig{}); err == nil {
		t.Fatal("want error for zero config")
	}
}

func TestBDBQueriesParse(t *testing.T) {
	for _, q := range BDBQueries() {
		if _, err := sqlparse.Parse(q.SQL); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
	if len(BDBQueries()) != 10 {
		t.Fatalf("BDB has %d queries, want 10", len(BDBQueries()))
	}
	for table, samples := range BDBSamples() {
		for _, s := range samples {
			if _, err := sqlparse.Parse(s); err != nil {
				t.Errorf("%s sample: %v", table, err)
			}
		}
	}
}

func TestGenerateAdAShapes(t *testing.T) {
	ada, err := GenerateAdA(AdAConfig{Rows: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ada.Table.NumRows() != 5000 {
		t.Fatalf("rows = %d", ada.Table.NumRows())
	}
	// 33 dimensions (hour + 10 sensitive + 22 public) + 18 measures = 51.
	if got := len(ada.Table.ColNames()); got != 51 {
		t.Fatalf("columns = %d, want 51", got)
	}
	if len(ada.SensitiveDims) != 10 || len(ada.EncMeasures) != 10 {
		t.Fatalf("sensitive dims/measures = %d/%d", len(ada.SensitiveDims), len(ada.EncMeasures))
	}
	// Frequency vectors match the materialized columns exactly.
	for _, dim := range ada.SensitiveDims {
		col := ada.Schema.Column(dim)
		counts := make([]uint64, col.Cardinality)
		for _, p := range ada.Table.Parts {
			for _, v := range p.Col(dim).U64 {
				counts[v]++
			}
		}
		for v := range counts {
			if counts[v] != col.Freqs[v] {
				t.Fatalf("%s value %d: materialized %d, declared %d", dim, v, counts[v], col.Freqs[v])
			}
		}
	}
	if _, err := GenerateAdA(AdAConfig{}); err == nil {
		t.Fatal("want error for zero rows")
	}
}

func TestAdASamplesAndPerfQueriesParse(t *testing.T) {
	for _, s := range AdASamples() {
		if _, err := sqlparse.Parse(s); err != nil {
			t.Errorf("sample %q: %v", s, err)
		}
	}
	qs := AdAPerfQueries()
	if len(qs) != 15 {
		t.Fatalf("perf queries = %d, want 15 (5 × groups {1,4,8})", len(qs))
	}
	for _, q := range qs {
		if _, err := sqlparse.Parse(q.SQL); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}

func TestAdASplasheOverheads(t *testing.T) {
	ada, err := GenerateAdA(AdAConfig{Rows: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := ada.AdASplasheOverheads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ov) != 10 {
		t.Fatalf("overhead rows = %d, want 10", len(ov))
	}
	prevBasic, prevEnh := 1.0, 1.0
	for i, o := range ov {
		if o.CumBasic <= prevBasic || o.CumEnhanced <= prevEnh {
			t.Fatalf("dim %d: cumulative overheads must increase", i)
		}
		// The Figure 10(b) claim: enhanced costs less than basic.
		if o.CumEnhanced >= o.CumBasic {
			t.Fatalf("dim %s: enhanced (%.1f) must beat basic (%.1f)", o.Dim, o.CumEnhanced, o.CumBasic)
		}
		prevBasic, prevEnh = o.CumBasic, o.CumEnhanced
	}
	// Skewed distributions keep k well below cardinality.
	last := ov[len(ov)-1]
	if last.K >= last.Cardinality/4 {
		t.Fatalf("k = %d for cardinality %d; skew should keep k small", last.K, last.Cardinality)
	}
}

func TestMDXCatalogMatchesTable4(t *testing.T) {
	c := MDXCounts()
	if c.Total != 38 || c.Server != 17 || c.ClientPre != 12 || c.ClientPost != 4 || c.TwoRound != 5 {
		t.Fatalf("MDX counts = %+v, want 38/17/12/4/5 (Table 4)", c)
	}
	// Catalog numbering is 1..38 without gaps.
	for i, f := range MDXCatalog() {
		if f.No != i+1 {
			t.Fatalf("catalog entry %d has No %d", i, f.No)
		}
		if f.Name == "" || f.How == "" {
			t.Fatalf("catalog entry %d incomplete", f.No)
		}
	}
}

func TestAdLogClassificationMatchesTable4(t *testing.T) {
	log := GenerateAdLog(AdLogReference.Total, 99)
	c, err := ClassifyLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if c != AdLogReference {
		t.Fatalf("log classification = %+v, want %+v", c, AdLogReference)
	}
}

func TestAdLogScaledMix(t *testing.T) {
	log := GenerateAdLog(1000, 7)
	c, err := ClassifyLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total != 1000 {
		t.Fatalf("total = %d", c.Total)
	}
	// ~20.2% post-processing.
	if c.ClientPost < 180 || c.ClientPost > 220 {
		t.Fatalf("post-processing share = %d/1000, want ≈202", c.ClientPost)
	}
	if c.Server+c.ClientPost != c.Total {
		t.Fatalf("counts don't add up: %+v", c)
	}
}

func TestTPCDSReference(t *testing.T) {
	c := TPCDSReference
	if c.Server+c.ClientPre+c.ClientPost+c.TwoRound != c.Total {
		t.Fatalf("TPC-DS reference row inconsistent: %+v", c)
	}
}

func TestStoreKindsUsed(t *testing.T) {
	// Both generators must emit the kinds the engine expects.
	bdb, err := GenerateBDB(BDBConfig{Pages: 10, Visits: 50, Q4Rows: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := bdb.UserVisits.ColKind("adRevenue"); k != store.U64 {
		t.Fatal("adRevenue must be U64")
	}
	if k, _ := bdb.UserVisits.ColKind("sourceIP"); k != store.Str {
		t.Fatal("sourceIP must be Str")
	}
}
