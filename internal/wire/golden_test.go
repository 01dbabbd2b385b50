package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
)

// The plan-frame and scan-chunk bytes below were captured at the last commit
// that still negotiated versions (46746d6, framing at v8). "One wire version"
// froze the protocol there: deleting the version ladder may not move a byte.

// goldenPlan touches every plan-frame section: a join, filters, aggregates, a
// bounded and inflated group-by, a range scope, the trace ID and both fleet
// flags.
func goldenPlan() *PlanRequest {
	return &PlanRequest{
		TableRef: "ev@Seabed#r1",
		JoinRef:  "users@Seabed",
		Plan: &engine.Plan{
			Join: &engine.Join{LeftCol: "uid", RightCol: "uid", RightCols: []string{"tier"}},
			Filters: []engine.Filter{
				{Kind: engine.FilterOpeCmp, Col: "day", Op: sqlparse.OpLe, Bytes: []byte{9, 8, 7}},
				{Kind: engine.FilterDetEq, Col: "country", Bytes: []byte{1, 2, 3}, Negate: true},
			},
			Aggs: []engine.Agg{
				{Kind: engine.AggAsheSum, Col: "rev"},
				{Kind: engine.AggCount},
			},
			GroupBy:          &engine.GroupBy{Col: "tier", Inflate: 3, KeyBound: 4096},
			Codec:            idlist.VBDiff,
			CompressAtDriver: true,
			Range:            &engine.IDRange{Lo: 66667, Hi: 133333},
			Partial:          true,
		},
		TraceID:  0xfeedfacecafebeef,
		Hedge:    true,
		Failover: true,
	}
}

const goldenPlanFrame = "0c657640536561626564237231010c7573657273405365616265640375696403756964010474696572020303646179030000" +
	"03090807000000000000000000000207636f756e747279000000030102030100000000000000000002030372657600000200" +
	"0000010474696572038020000776622b646966660101eb8804d5910801effdfad7ecd9fef6fe010101"

func TestEncodePlanGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenPlanFrame)
	if err != nil {
		t.Fatal(err)
	}
	req := goldenPlan()
	got, err := EncodePlan(req, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("plan frame bytes changed:\n got %x\nwant %x", got, want)
	}
	back, err := DecodePlan(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("golden plan frame decoded to\n %+v\nwant\n %+v", back, req)
	}
}

const goldenChunkFrame = "0303000102010000000000000004000000000000000700000000000000000000000000000001010101010101010202020202" +
	"0202020000000000000000000000000000000001000000000000000300000000000000010202000000000000000001000000" +
	"0000000002000000000000000300000000000000616263"

// TestScanChunkGolden pins a three-column (U64, Bytes, Str) scan chunk.
func TestScanChunkGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenChunkFrame)
	if err != nil {
		t.Fatal(err)
	}
	rows, kinds := chunkRows(3)
	got, err := AppendScanChunk(nil, rows, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scan chunk bytes changed:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeScanChunk(want, Version)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("golden chunk decoded to %d rows, want %d", len(back), len(rows))
	}
	for i := range rows {
		if back[i].ID != rows[i].ID || back[i].U64s[0] != rows[i].U64s[0] ||
			!bytes.Equal(back[i].Bytes[1], rows[i].Bytes[1]) || back[i].Strs[2] != rows[i].Strs[2] {
			t.Fatalf("golden chunk row %d = %+v, want %+v", i, back[i], rows[i])
		}
	}
}
