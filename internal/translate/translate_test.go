package translate

import (
	"strings"
	"testing"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/engine"
	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// testKeys derives deterministic per-column keys without a key ring.
type testKeys struct{}

func pad(col, tag string) []byte {
	b := make([]byte, 16)
	copy(b, tag+col)
	return b
}

func (testKeys) Ashe(col string) *ashe.Key       { return ashe.MustNewKey(pad(col, "a")) }
func (testKeys) Det(col string) *det.Key         { return det.MustNewKey(pad(col, "d")) }
func (testKeys) Ope(col string) *ope.Key         { return ope.MustNewKey(pad(col, "o")) }
func (testKeys) PaillierPK() *paillier.PublicKey { return nil }

// testCatalog serves one fixed table and plan.
type testCatalog struct {
	plans  map[string]*planner.Plan
	tables map[string]*store.Table
}

func (c *testCatalog) Plan(table string) (*planner.Plan, error) {
	p, ok := c.plans[table]
	if !ok {
		return nil, errUnknown(table)
	}
	return p, nil
}

func (c *testCatalog) Table(table string, mode Mode) (*store.Table, error) {
	t, ok := c.tables[table]
	if !ok {
		return nil, errUnknown(table)
	}
	return t, nil
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown table " + string(e) }

// catalog builds the Table 2 fixture: table "tbl" with measure a, range
// dimension b, and splayed dimension g (cardinality 10, value 10 ≡ id 9...).
func catalog(t *testing.T) *testCatalog {
	t.Helper()
	tbl := &schema.Table{Name: "tbl", Columns: []schema.Column{
		{Name: "a", Type: schema.Int64, Sensitive: true},
		{Name: "b", Type: schema.Int64, Sensitive: true},
		{Name: "g", Type: schema.Int64, Sensitive: true, Cardinality: 16},
		{Name: "k", Type: schema.Int64, Sensitive: true},
	}}
	samples := []*sqlparse.Query{
		sqlparse.MustParse("SELECT SUM(a) FROM tbl WHERE b > 10"),
		sqlparse.MustParse("SELECT COUNT(*) FROM tbl WHERE g = 10"),
		sqlparse.MustParse("SELECT k, SUM(a) FROM tbl GROUP BY k"),
	}
	plan, err := planner.New(tbl, samples, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny physical table so engine plans resolve; contents irrelevant for
	// translation tests.
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
	enc, err := store.Build("tbl", cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &testCatalog{
		plans:  map[string]*planner.Plan{"tbl": plan},
		tables: map[string]*store.Table{"tbl": enc},
	}
}

func TestTable2IDPreservation(t *testing.T) {
	// Table 2 row 1: SELECT sum(tmp.a) FROM (SELECT a FROM table WHERE b > 10) tmp
	// must become an OPE filter plus an ASHE aggregation — the identifier
	// column is implicit in the engine, so aggregation over the subquery
	// works without explicit ID projection.
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT SUM(tmp.a) FROM (SELECT a FROM tbl WHERE b > 10) tmp")
	tr, err := Translate(q, cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Server.Filters) != 1 || tr.Server.Filters[0].Kind != engine.FilterOpeCmp {
		t.Fatalf("filters = %+v, want one OPE filter", tr.Server.Filters)
	}
	if len(tr.Server.Aggs) != 1 || tr.Server.Aggs[0].Kind != engine.AggAsheSum || tr.Server.Aggs[0].Col != planner.AsheName("a") {
		t.Fatalf("aggs = %+v, want ASHE sum over a_ashe", tr.Server.Aggs)
	}
}

func TestTable2SplasheRewrite(t *testing.T) {
	// Table 2 row 2: SELECT count(*) FROM table WHERE a = 10 over a splayed
	// dimension becomes a pure sum over the indicator column — no filter at
	// all (the server cannot even tell which value was queried).
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT COUNT(*) FROM tbl WHERE g = 10")
	tr, err := Translate(q, cat, testKeys{}, Seabed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Server.Filters) != 0 {
		t.Fatalf("filters = %+v, want none (basic SPLASHE)", tr.Server.Filters)
	}
	if len(tr.Server.Aggs) != 1 || tr.Server.Aggs[0].Kind != engine.AggAsheSum {
		t.Fatalf("aggs = %+v, want indicator sum", tr.Server.Aggs)
	}
	if tr.Server.Aggs[0].Col != planner.IndName("g", 10, false) {
		t.Fatalf("agg col = %q, want %q", tr.Server.Aggs[0].Col, planner.IndName("g", 10, false))
	}
}

func TestTable2GroupByInflation(t *testing.T) {
	// Table 2 row 3: group-by with inflation when groups < workers.
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT k, SUM(a) FROM tbl GROUP BY k")
	tr, err := Translate(q, cat, testKeys{}, Seabed, Options{Workers: 100, ExpectedGroups: 10})
	if err != nil {
		t.Fatal(err)
	}
	gb := tr.Server.GroupBy
	if gb == nil || gb.Col != planner.DetName("k") {
		t.Fatalf("group by = %+v, want DET column", gb)
	}
	if gb.Inflate != 10 {
		t.Fatalf("inflate = %d, want 10 (100 workers / 10 groups)", gb.Inflate)
	}
	if !tr.Client.Inflated {
		t.Fatal("client plan must be marked inflated")
	}
	// Without the optimization there is no inflation.
	tr2, err := Translate(q, cat, testKeys{}, Seabed, Options{Workers: 100, ExpectedGroups: 10, DisableInflation: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Server.GroupBy.Inflate != 0 || tr2.Client.Inflated {
		t.Fatal("DisableInflation must turn the optimization off")
	}
}

func TestNoEncPassthrough(t *testing.T) {
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT SUM(a) FROM tbl WHERE b > 10")
	tr, err := Translate(q, cat, testKeys{}, NoEnc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Server.Filters[0].Kind != engine.FilterPlainCmp {
		t.Fatalf("NoEnc filter = %+v", tr.Server.Filters[0])
	}
	if tr.Server.Aggs[0].Kind != engine.AggPlainSum || tr.Server.Aggs[0].Col != "a" {
		t.Fatalf("NoEnc agg = %+v", tr.Server.Aggs[0])
	}
}

func TestVarianceNeedsSquaredColumn(t *testing.T) {
	// "a" was never used quadratically in the samples, so VAR(a) must fail
	// with the §4.2 client-pre-processing explanation.
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT VAR(a) FROM tbl")
	_, err := Translate(q, cat, testKeys{}, Seabed, Options{})
	if err == nil || !strings.Contains(err.Error(), "squared") {
		t.Fatalf("err = %v, want squared-column error", err)
	}
}

func TestRangeOnNonOpeColumnFails(t *testing.T) {
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT SUM(a) FROM tbl WHERE g > 3")
	if _, err := Translate(q, cat, testKeys{}, Seabed, Options{}); err == nil {
		t.Fatal("want error: g has no OPE form")
	}
}

func TestMultiGroupByUnsupported(t *testing.T) {
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT SUM(a) FROM tbl GROUP BY k, b")
	if _, err := Translate(q, cat, testKeys{}, Seabed, Options{}); err == nil {
		t.Fatal("want error for two group-by columns")
	}
}

func TestNestedSubqueryUnsupported(t *testing.T) {
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT SUM(x.a) FROM (SELECT a FROM (SELECT a FROM tbl) y) x")
	if _, err := Translate(q, cat, testKeys{}, Seabed, Options{}); err == nil {
		t.Fatal("want error for nested subquery")
	}
}

func TestOutputKindsForModes(t *testing.T) {
	cat := catalog(t)
	q := sqlparse.MustParse("SELECT SUM(a) FROM tbl")
	for mode, want := range map[Mode]OutputKind{
		NoEnc:  OutPlain,
		Seabed: OutAsheSum,
	} {
		tr, err := Translate(q, cat, testKeys{}, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Client.Outputs[0].Kind != want {
			t.Fatalf("%v output kind = %d, want %d", mode, tr.Client.Outputs[0].Kind, want)
		}
	}
}
