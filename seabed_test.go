package seabed_test

import (
	"context"
	"strings"
	"testing"

	"seabed"
)

// newTestSystem builds a minimal proxy + dataset through the public facade.
func newTestSystem(t *testing.T) *seabed.Proxy {
	t.Helper()
	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 4})
	proxy, err := seabed.NewProxy([]byte("facade-test-master-secret-01234"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	sch := &seabed.Schema{Name: "t", Columns: []seabed.SchemaColumn{
		{Name: "m", Type: seabed.Int64, Sensitive: true},
		{Name: "d", Type: seabed.String, Sensitive: true, Cardinality: 2, Values: []string{"a", "b"}},
	}}
	if _, err := proxy.CreatePlan(sch, []string{
		"SELECT SUM(m) FROM t WHERE d = 'a'",
	}, seabed.PlannerOptions{}); err != nil {
		t.Fatal(err)
	}
	src, err := seabed.BuildTable("t", []seabed.Column{
		{Name: "m", Kind: seabed.U64, U64: []uint64{10, 20, 30, 40}},
		{Name: "d", Kind: seabed.Str, Str: []string{"a", "b", "a", "b"}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "t", src, seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
		t.Fatal(err)
	}
	return proxy
}

func TestFacadeEndToEnd(t *testing.T) {
	proxy := newTestSystem(t)
	res, err := proxy.Query(context.Background(), "SELECT SUM(m) FROM t WHERE d = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Values[0].I64; got != 40 {
		t.Fatalf("sum = %d, want 40", got)
	}
}

func TestFacadeCryptoPrimitives(t *testing.T) {
	// ASHE through the facade.
	ak, err := seabed.NewASHEKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	c1 := ak.Encrypt(5, 1)
	c2 := ak.Encrypt(7, 2)
	if got := ak.Decrypt(seabed.ASHEAdd(c1, c2)); got != 12 {
		t.Fatalf("ASHE sum = %d, want 12", got)
	}
	// DET.
	dk, err := seabed.NewDETKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dk.DecryptU64(dk.EncryptU64(42)); err != nil || v != 42 {
		t.Fatalf("DET roundtrip = %d, %v", v, err)
	}
	// ORE.
	ok, err := seabed.NewOREKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	if seabed.ORECompare(ok.Encrypt(3), ok.Encrypt(9)) != -1 {
		t.Fatal("ORE compare failed")
	}
}

func TestFacadeSplashe(t *testing.T) {
	l, err := seabed.PlanEnhancedSplashe([]uint64{100, 90, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if l.K != 2 {
		t.Fatalf("k = %d, want 2", l.K)
	}
	basic, err := seabed.PlanBasicSplashe(4)
	if err != nil {
		t.Fatal(err)
	}
	if basic.NumSplayColumns() != 4 {
		t.Fatal("basic layout broken")
	}
	guess := seabed.FrequencyAttack([]uint64{9, 5, 1}, []uint64{90, 50, 10})
	if guess[0] != 0 || guess[1] != 1 || guess[2] != 2 {
		t.Fatalf("attack = %v", guess)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	bdb, err := seabed.GenerateBDB(seabed.BDBConfig{Pages: 20, Visits: 100, Q4Rows: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bdb.UserVisits.NumRows() != 100 {
		t.Fatal("BDB generation failed")
	}
	if len(seabed.BDBQueries()) != 10 {
		t.Fatal("BDB query set must have 10 entries")
	}
	ada, err := seabed.GenerateAdA(seabed.AdAConfig{Rows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ada.SensitiveDims) != 10 {
		t.Fatal("AdA generation failed")
	}
	if len(seabed.MDXCatalog()) != 38 {
		t.Fatal("MDX catalog must have 38 entries")
	}
	syn, err := seabed.GenerateSynthetic(100, 5, 1)
	if err != nil || syn.NumRows() != 100 {
		t.Fatalf("synthetic generation: %v", err)
	}
	if len(seabed.SyntheticQueries()) == 0 || seabed.SyntheticSchema(5) == nil {
		t.Fatal("synthetic schema/queries missing")
	}
}

func TestFacadeParseSQL(t *testing.T) {
	q, err := seabed.ParseSQL("SELECT SUM(a) FROM t WHERE b > 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "SUM(a)") {
		t.Fatalf("parsed query = %s", q)
	}
	if _, err := seabed.ParseSQL("not sql"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestFacadeIDListCodecs(t *testing.T) {
	if len(seabed.IDListCodecs()) < 5 {
		t.Fatal("codec family too small")
	}
}
