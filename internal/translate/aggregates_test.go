package translate

import (
	"crypto/rand"
	"strings"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/paillier"
	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// pailKeys extends testKeys with a real (small) Paillier key.
type pailKeys struct {
	testKeys
	sk *paillier.PrivateKey
}

func (k pailKeys) PaillierPK() *paillier.PublicKey { return &k.sk.PublicKey }

func newPailKeys(t *testing.T) pailKeys {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	return pailKeys{sk: sk}
}

// richCatalog covers measures with squares, an enhanced splashe dimension
// with a dictionary, and min/max-capable columns.
func richCatalog(t *testing.T) *testCatalog {
	t.Helper()
	tbl := &schema.Table{Name: "rich", Columns: []schema.Column{
		{Name: "rev", Type: schema.Int64, Sensitive: true},
		{Name: "clicks", Type: schema.Int64, Sensitive: true},
		{Name: "country", Type: schema.String, Sensitive: true, Cardinality: 4,
			Freqs:  []uint64{900, 800, 60, 40},
			Values: []string{"USA", "Canada", "India", "Chile"}},
		{Name: "day", Type: schema.Int64, Sensitive: true},
		{Name: "city", Type: schema.String, Sensitive: true}, // group-by, no dict
		{Name: "pub", Type: schema.Int64, Sensitive: false},
	}}
	samples := []*sqlparse.Query{
		sqlparse.MustParse("SELECT SUM(rev) FROM rich WHERE country = 'India'"),
		sqlparse.MustParse("SELECT VAR(clicks) FROM rich WHERE country = 'USA'"),
		sqlparse.MustParse("SELECT SUM(rev) FROM rich WHERE day > 3"),
		sqlparse.MustParse("SELECT MIN(rev) FROM rich"),
		sqlparse.MustParse("SELECT MEDIAN(rev) FROM rich"),
		sqlparse.MustParse("SELECT city, SUM(rev) FROM rich GROUP BY city"),
	}
	plan, err := planner.New(tbl, samples, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cols []store.Column
	for _, ec := range plan.EncColumns() {
		c := store.Column{Name: ec.Name, Kind: ec.Kind}
		switch ec.Kind {
		case store.U64:
			c.U64 = []uint64{0}
		case store.Bytes:
			c.Bytes = [][]byte{{0}}
		case store.Fixed:
			c.Width, c.Fixed = 16, make([]byte, 16)
		default:
			c.Str = []string{""}
		}
		cols = append(cols, c)
	}
	// Translation-only tests never execute plans, but Paillier columns must
	// resolve, so add them alongside the Seabed columns.
	for _, cname := range plan.Order {
		if plan.Col(cname).Ashe {
			cols = append(cols, store.Column{Name: planner.PailName(cname), Kind: store.Bytes, Bytes: [][]byte{{0}}})
			if plan.Col(cname).Square {
				cols = append(cols, store.Column{Name: planner.PailName(planner.SquareName(cname)), Kind: store.Bytes, Bytes: [][]byte{{0}}})
			}
		}
	}
	encAll, err := store.Build("rich", cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &testCatalog{
		plans:  map[string]*planner.Plan{"rich": plan},
		tables: map[string]*store.Table{"rich": encAll},
	}
}

func TestAvgProducesSumAndCount(t *testing.T) {
	cat := richCatalog(t)
	tr, err := Translate(sqlparse.MustParse("SELECT AVG(rev) FROM rich"), cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Server.Aggs) != 2 {
		t.Fatalf("aggs = %d, want sum+count", len(tr.Server.Aggs))
	}
	out := tr.Client.Outputs[0]
	if out.Kind != OutAvg || out.AuxSum == nil || out.AuxCount == nil {
		t.Fatalf("avg output = %+v", out)
	}
}

func TestVarProducesThreeAggregates(t *testing.T) {
	cat := richCatalog(t)
	tr, err := Translate(sqlparse.MustParse("SELECT VAR(clicks) FROM rich"), cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Server.Aggs) != 3 {
		t.Fatalf("aggs = %d, want sum+sq+count", len(tr.Server.Aggs))
	}
	out := tr.Client.Outputs[0]
	if out.Kind != OutVar || out.AuxSq == nil {
		t.Fatalf("var output = %+v", out)
	}
	if tr.Server.Aggs[1].Col != planner.SquareName("clicks") {
		t.Fatalf("squared agg col = %q", tr.Server.Aggs[1].Col)
	}
}

func TestVarUnderSplasheUsesSplayedSquare(t *testing.T) {
	cat := richCatalog(t)
	tr, err := Translate(sqlparse.MustParse("SELECT VAR(clicks) FROM rich WHERE country = 'USA'"),
		cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range tr.Server.Aggs {
		if strings.Contains(a.Col, planner.SquareName("clicks")+"_spl_country") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no splayed square aggregate in %+v", tr.Server.Aggs)
	}
}

func TestEnhancedUncommonValueKeepsDetFilter(t *testing.T) {
	cat := richCatalog(t)
	// India is uncommon: the others column plus a balanced DET filter.
	tr, err := Translate(sqlparse.MustParse("SELECT SUM(rev) FROM rich WHERE country = 'India'"),
		cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Server.Filters) != 1 || tr.Server.Filters[0].Kind != engine.FilterDetEq {
		t.Fatalf("filters = %+v, want one DET filter", tr.Server.Filters)
	}
	if !strings.HasSuffix(tr.Server.Aggs[0].Col, "_oth") {
		t.Fatalf("agg col = %q, want others column", tr.Server.Aggs[0].Col)
	}
	// USA is common: no filter at all.
	tr2, err := Translate(sqlparse.MustParse("SELECT SUM(rev) FROM rich WHERE country = 'USA'"),
		cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Server.Filters) != 0 {
		t.Fatalf("common value should drop the filter: %+v", tr2.Server.Filters)
	}
}

func TestCountUnderSplasheUsesIndicator(t *testing.T) {
	cat := richCatalog(t)
	tr, err := Translate(sqlparse.MustParse("SELECT COUNT(*) FROM rich WHERE country = 'Chile'"),
		cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Server.Aggs[0].Kind != engine.AggAsheSum || !strings.Contains(tr.Server.Aggs[0].Col, "_ind_") {
		t.Fatalf("count agg = %+v, want indicator sum", tr.Server.Aggs[0])
	}
}

func TestMinMaxMedianCompanions(t *testing.T) {
	cat := richCatalog(t)
	for _, sql := range []string{
		"SELECT MIN(rev) FROM rich",
		"SELECT MAX(rev) FROM rich",
		"SELECT MEDIAN(rev) FROM rich",
	} {
		tr, err := Translate(sqlparse.MustParse(sql), cat, testKeys{}, Seabed, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		a := tr.Server.Aggs[0]
		if a.Col != planner.OpeName("rev") || a.Companion != planner.AsheName("rev") {
			t.Fatalf("%s: agg = %+v", sql, a)
		}
		if tr.Client.Outputs[0].Kind != OutMinMax {
			t.Fatalf("%s: output kind = %d", sql, tr.Client.Outputs[0].Kind)
		}
	}
}

func TestPaillierModeTranslation(t *testing.T) {
	cat := richCatalog(t)
	keys := newPailKeys(t)
	tr, err := Translate(sqlparse.MustParse("SELECT SUM(rev) FROM rich WHERE country = 'India'"),
		cat, keys, Paillier, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Server.Aggs[0].Kind != engine.AggPaillierSum || tr.Server.Aggs[0].Col != planner.PailName("rev") {
		t.Fatalf("paillier agg = %+v", tr.Server.Aggs[0])
	}
	// The Paillier baseline filters splayed dims via their DET fallback.
	if len(tr.Server.Filters) != 1 || tr.Server.Filters[0].Kind != engine.FilterDetEq {
		t.Fatalf("paillier filters = %+v", tr.Server.Filters)
	}
	if tr.Client.Outputs[0].Kind != OutPailSum {
		t.Fatalf("output kind = %d, want OutPailSum", tr.Client.Outputs[0].Kind)
	}
	// MIN in Paillier mode ships the Paillier companion.
	tr2, err := Translate(sqlparse.MustParse("SELECT MIN(rev) FROM rich"), cat, keys, Paillier, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Server.Aggs[0].Companion != planner.PailName("rev") {
		t.Fatalf("paillier min companion = %q", tr2.Server.Aggs[0].Companion)
	}
}

func TestGroupByStringWithoutDict(t *testing.T) {
	cat := richCatalog(t)
	tr, err := Translate(sqlparse.MustParse("SELECT city, SUM(rev) FROM rich GROUP BY city"),
		cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gk := tr.Client.GroupKey
	if gk == nil || !gk.Det || !gk.StrValues {
		t.Fatalf("group key plan = %+v, want DET string values", gk)
	}
}

func TestAggregateErrors(t *testing.T) {
	cat := richCatalog(t)
	for _, sql := range []string{
		"SELECT SUM(pub) FROM rich WHERE country = 'USA' AND country = 'Canada'", // double splashe... same dim: second ctx
		"SELECT SUM(nosuch) FROM rich",
		"SELECT MIN(clicks) FROM rich",       // clicks has no OPE form
		"SELECT rev FROM rich GROUP BY city", // bare column not the group key
		"SELECT SUM(rev) FROM rich WHERE city = 'x' AND country = 'USA' AND day > 99 AND nosuch = 1",
	} {
		if _, err := Translate(sqlparse.MustParse(sql), cat, testKeys{}, Seabed, Options{}); err == nil {
			t.Errorf("%q: want error", sql)
		}
	}
}

func TestModeStringAndOutputs(t *testing.T) {
	if NoEnc.String() != "NoEnc" || Seabed.String() != "Seabed" || Paillier.String() != "Paillier" {
		t.Fatal("Mode.String broken")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}
