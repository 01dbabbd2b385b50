package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// The plan-frame bytes below were captured at the last commit that still
// negotiated versions (46746d6, framing at v8) and re-captured at wire v12,
// which dropped one byte from them: the compress-at-driver flag that followed
// the codec name (the plan field is gone; no map task compresses). Nothing
// else in the frame has moved since v8.

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
			GroupBy: &engine.GroupBy{Col: "tier", Inflate: 3, KeyBound: 4096},
			Codec:   idlist.VBDiff,
			Range:   &engine.IDRange{Lo: 66667, Hi: 133333},
			Partial: true,
		},
		TraceID:  0xfeedfacecafebeef,
		Hedge:    true,
		Failover: true,
	}
}

const goldenPlanFrame = "0c657640536561626564237231010c7573657273405365616265640375696403756964010474696572020303646179030000" +
	"03090807000000000000000000000207636f756e747279000000030102030100000000000000000002030372657600000200" +
	"0000010474696572038020000776622b6469666601eb8804d5910801effdfad7ecd9fef6fe010101"

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

// goldenChunkFrame was re-captured at wire v11, which added the Fixed kind and
// its width to the chunk header; the U64, Bytes and Str extents inside it are
// byte for byte what the v8 capture held.
const goldenChunkFrame = "0304000102030401000000000000000400000000000000070000000000000000000000000000000101010101010101020202" +
	"0202020202000000000000000000000000000000000100000000000000030000000000000001020200000000000000000100" +
	"00000000000002000000000000000300000000000000616263f000000ff001000ff002000f"

// TestScanChunkGolden pins a four-column (U64, Bytes, Str, Fixed) scan chunk.
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
		if diff := sameCells(back[i], rows[i]); diff != "" {
			t.Fatalf("golden chunk: %s", diff)
		}
	}
}

// goldenRegisterFrame pins a register frame — the ref, zero padding to an
// 8-byte boundary, then the table's image — over one column of each kind: the
// directory entry of the Fixed column carries its width (04), its extent is the
// values alone, and the Bytes and Str extents are offsets and a heap.
// Captured at wire v13, image version 4. Against the version-3 capture only
// the image's version word (frame byte 20: 03 → 04) and the header CRC that
// covers it (frame bytes 177–180: ea4616bf → 7e492130) changed.
const goldenRegisterFrame = "0b7440536561626564237230000000005342534704000000a500000001000000740100000001000000000000000200000000" +
	"0000000400000001000000750000000000a8000000000000001000000000000000b9ddf60001000000620100000000b80000" +
	"00000000001b00000000000000a307954901000000730200000000d80000000000000019000000000000008128cc27010000" +
	"00660304000000f8000000000000000800000000000000f33d020f7e49213000000001000000000000000200000000000000" +
	"000000000000000001000000000000000300000000000000b0b1b20000000000000000000000000001000000000000000100" +
	"0000000000007800000000000000f000000ff001000f"

func TestEncodeRegisterGolden(t *testing.T) {
	tbl, err := store.Build("t", []store.Column{
		{Name: "u", Kind: store.U64, U64: []uint64{1, 2}},
		{Name: "b", Kind: store.Bytes, Bytes: [][]byte{{0xB0}, {0xB1, 0xB2}}},
		{Name: "s", Kind: store.Str, Str: []string{"x", ""}},
		{Name: "f", Kind: store.Fixed, Width: 4, Fixed: []byte{0xF0, 0, 0, 0x0F, 0xF0, 1, 0, 0x0F}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeRegister("t@Seabed#r0", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != goldenRegisterFrame {
		t.Fatalf("register frame bytes changed:\n got %x\nwant %s", got, goldenRegisterFrame)
	}
	ref, img, err := DecodeRegister(got)
	if err != nil || ref != "t@Seabed#r0" {
		t.Fatalf("golden register frame decoded to %q (%v)", ref, err)
	}
	back, err := store.DecodeImage(img)
	if err != nil || !reflect.DeepEqual(back.Parts[0].Cols, tbl.Parts[0].Cols) {
		t.Fatalf("golden register frame's image decoded to %+v (%v)", back, err)
	}
}
