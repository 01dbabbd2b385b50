package wire

import (
	"bytes"
	crand "crypto/rand"
	"io"
	"math/big"
	"reflect"
	"testing"
	"time"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, MsgRun, p); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
	}
	for i, p := range payloads {
		mt, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if mt != MsgRun {
			t.Fatalf("frame %d: type %v, want %v", i, mt, MsgRun)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgResult, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("reading %d of %d bytes succeeded", cut, len(whole))
		}
	}
	// A clean EOF at a frame boundary is io.EOF, so callers can tell an
	// orderly close from a mid-frame cut.
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	head := []byte{byte(MsgRun), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(head)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	v, err := DecodeHello(EncodeHello())
	if err != nil {
		t.Fatal(err)
	}
	if v != Version {
		t.Fatalf("hello version %d, want %d", v, Version)
	}
	v, workers, shardIdx, shardCount, err := DecodeWelcome(EncodeWelcome(Version, 48, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v != Version || workers != 48 || shardIdx != 1 || shardCount != 3 {
		t.Fatalf("welcome = (v%d, %d workers, shard %d/%d), want (v%d, 48, 1/3)", v, workers, shardIdx, shardCount, Version)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	if got := DecodeError(EncodeError("boom: table missing")); got != "boom: table missing" {
		t.Fatalf("error round trip = %q", got)
	}
}

func TestCodecByName(t *testing.T) {
	for _, c := range idlist.AllCodecs() {
		got, err := CodecByName(c.Name())
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got.Name() != c.Name() {
			t.Fatalf("CodecByName(%q).Name() = %q", c.Name(), got.Name())
		}
	}
	if c, err := CodecByName(""); err != nil || c != nil {
		t.Fatalf("empty name = (%v, %v), want (nil, nil)", c, err)
	}
	if _, err := CodecByName("snappy"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// testPK is a small Paillier key generated once for the suite.
var testPK = func() *paillier.PublicKey {
	sk, err := paillier.GenerateKey(crand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return &sk.PublicKey
}()

func TestPlanRoundTrip(t *testing.T) {
	plans := map[string]*PlanRequest{
		"minimal": {
			TableRef: "sales@Seabed",
			Plan: &engine.Plan{
				Aggs: []engine.Agg{{Kind: engine.AggCount}},
			},
		},
		"kitchen-sink": {
			TableRef: "sales@Seabed",
			JoinRef:  "stores@Seabed",
			Plan: &engine.Plan{
				Join: &engine.Join{
					LeftCol:   "store",
					RightCol:  "id",
					RightCols: []string{"region", "sqft"},
				},
				Filters: []engine.Filter{
					{Kind: engine.FilterPlainCmp, Col: "day", Op: sqlparse.OpGt, U64: 180},
					{Kind: engine.FilterStrCmp, Col: "country", Op: sqlparse.OpNe, Str: "USA"},
					{Kind: engine.FilterDetEq, Col: "country", Bytes: []byte{1, 2, 3}, Negate: true},
					{Kind: engine.FilterOpeCmp, Col: "day", Op: sqlparse.OpLe, Bytes: []byte{9, 8}},
					{Kind: engine.FilterRandom, Prob: 0.125, Seed: 42},
				},
				Aggs: []engine.Agg{
					{Kind: engine.AggAsheSum, Col: "revenue"},
					{Kind: engine.AggPaillierSum, Col: "revenue_p", PK: testPK},
					{Kind: engine.AggOpeMax, Col: "day_ope", Companion: "revenue"},
				},
				GroupBy:          &engine.GroupBy{Col: "store", Inflate: 7},
				Codec:            idlist.VBDiff,
				CompressAtDriver: true,
			},
		},
		"scan": {
			TableRef: "sales@NoEnc",
			Plan: &engine.Plan{
				Project: []string{"revenue", "country"},
				Codec:   idlist.Default,
			},
		},
		"shard-scoped": {
			TableRef: "sales@Seabed",
			Plan: &engine.Plan{
				Aggs:    []engine.Agg{{Kind: engine.AggAsheSum, Col: "revenue"}},
				Range:   &engine.IDRange{Lo: 667, Hi: 1333},
				Partial: true,
				Codec:   idlist.Default,
			},
		},
	}
	for name, req := range plans {
		t.Run(name, func(t *testing.T) {
			payload, err := EncodePlan(req, Version)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodePlan(payload)
			if err != nil {
				t.Fatal(err)
			}
			if got.TableRef != req.TableRef || got.JoinRef != req.JoinRef {
				t.Fatalf("refs = (%q, %q), want (%q, %q)", got.TableRef, got.JoinRef, req.TableRef, req.JoinRef)
			}
			// The Paillier key is reconstructed from its modulus; compare it
			// semantically, then align for the deep comparison.
			for i := range req.Plan.Aggs {
				want := req.Plan.Aggs[i].PK
				if want == nil {
					continue
				}
				pk := got.Plan.Aggs[i].PK
				if pk == nil || pk.N.Cmp(want.N) != 0 || pk.NSquared.Cmp(want.NSquared) != 0 ||
					pk.CiphertextSize() != want.CiphertextSize() {
					t.Fatalf("agg %d: Paillier key did not survive the round trip", i)
				}
				got.Plan.Aggs[i].PK = want
			}
			if !reflect.DeepEqual(got.Plan, req.Plan) {
				t.Fatalf("plan round trip:\n got %+v\nwant %+v", got.Plan, req.Plan)
			}
		})
	}
}

func TestPlanEncodeRejectsBadRequests(t *testing.T) {
	if _, err := EncodePlan(&PlanRequest{TableRef: "t"}, Version); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := EncodePlan(&PlanRequest{Plan: &engine.Plan{}}, Version); err == nil {
		t.Fatal("empty table ref accepted")
	}
	join := &PlanRequest{TableRef: "t", Plan: &engine.Plan{Join: &engine.Join{LeftCol: "k", RightCol: "k"}}}
	if _, err := EncodePlan(join, Version); err == nil {
		t.Fatal("join without right-table ref accepted")
	}
}

func TestPlanDecodeRejectsUnknownCodec(t *testing.T) {
	req := &PlanRequest{TableRef: "t", Plan: &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggCount}}}}
	payload, err := EncodePlan(req, Version)
	if err != nil {
		t.Fatal(err)
	}
	// The codec name is the penultimate field; corrupt it wholesale by
	// truncating the payload instead, which must also fail.
	if _, err := DecodePlan(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated plan accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	ids := idlist.FromRange(10, 1000)
	ids.Merge(idlist.FromRange(500, 600)) // overlapping: duplicates preserved
	encoded, err := idlist.Default.Encode(ids)
	if err != nil {
		t.Fatal(err)
	}
	res := &engine.Result{
		Groups: []engine.Group{
			{
				KeyKind: store.U64, KeyU64: 7, Suffix: -1, Rows: 991,
				Aggs: []engine.AggValue{
					{Kind: engine.AggAsheSum, Ashe: engine.AsheAgg{Body: 0xDEADBEEFCAFE, IDs: ids, Encoded: encoded}},
					{Kind: engine.AggCount, U64: 991},
					{Kind: engine.AggPaillierSum, Pail: big.NewInt(0).Lsh(big.NewInt(12345), 300)},
				},
			},
			{
				KeyKind: store.Bytes, KeyBytes: []byte{0xAA, 0xBB}, Suffix: 3, Rows: 2,
				Aggs: []engine.AggValue{
					{Kind: engine.AggOpeMax, Ope: []byte{1, 2, 3}, ArgID: 77, U64: 41, CompanionBytes: []byte{9}},
				},
			},
			{KeyKind: store.Str, KeyStr: "Canada", Suffix: -1, Rows: 0, Aggs: []engine.AggValue{{Kind: engine.AggPlainMin}}},
			{
				// Partial-plan median collections (shard slices).
				KeyKind: store.U64, KeyU64: 9, Suffix: -1, Rows: 5,
				Aggs: []engine.AggValue{
					{Kind: engine.AggPlainMedian, MedU64: []uint64{5, 1, 3}},
					{Kind: engine.AggOpeMedian,
						MedOpe:  [][]byte{{4, 4}, {1, 1}, {2}},
						MedIDs:  []uint64{11, 12, 13},
						MedComp: []uint64{400, 100, 200}},
				},
			},
		},
		Scan: []engine.ScanRow{
			{ID: 1, U64s: []uint64{42, 0}, Bytes: [][]byte{nil, {5, 6}}, Strs: []string{"", ""}},
			{ID: 2, U64s: []uint64{0, 0}, Bytes: [][]byte{nil, nil}, Strs: []string{"x", "y"}},
		},
		Metrics: engine.Metrics{
			ServerTime: 123 * time.Millisecond, MapTime: 100 * time.Millisecond,
			ReduceTime: 13 * time.Millisecond, ShuffleTime: 10 * time.Millisecond,
			DriverTime: 1 * time.Millisecond, ShuffleBytes: 4096, ResultBytes: 512,
			MapTasks: 32, ReduceTasks: 4, RowsScanned: 1_000_000, RowsSelected: 993,
		},
	}
	payload, err := EncodeResult(idlist.Default.Name(), res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	codecName, got, _, err := DecodeResult(payload, Version)
	if err != nil {
		t.Fatal(err)
	}
	if codecName != idlist.Default.Name() {
		t.Fatalf("codec name %q, want %q", codecName, idlist.Default.Name())
	}
	if !got.Groups[0].Aggs[0].Ashe.IDs.Equal(ids) {
		t.Fatalf("id list round trip: got %v, want %v", got.Groups[0].Aggs[0].Ashe.IDs, ids)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, res)
	}
}

// TestDecodeResultRejectsHostileCounts pins the allocation guards: a tiny
// frame claiming a huge element count must fail the decode, not panic or
// OOM the trusted proxy (the server is untrusted).
func TestDecodeResultRejectsHostileCounts(t *testing.T) {
	e := &enc{}
	e.str("")       // codec name
	e.uint(0)       // no groups
	e.uint(1)       // one scan row
	e.uint(7)       // row id
	e.uint(1 << 62) // hostile projection count
	if _, _, _, err := DecodeResult(e.buf, Version); err == nil {
		t.Fatal("hostile scan-column count accepted")
	}

	e = &enc{}
	e.str("")
	e.uint(1) // one group
	e.uint(0) // key kind
	e.uint(0) // key u64
	e.bytes(nil)
	e.str("")
	e.int(-1)       // suffix
	e.uint(1)       // rows
	e.uint(1)       // one agg
	e.uint(0)       // agg kind
	e.uint(0)       // agg u64
	e.uint(0)       // ashe body
	e.uint(1 << 62) // hostile range count
	if _, _, _, err := DecodeResult(e.buf, Version); err == nil {
		t.Fatal("hostile id-list range count accepted")
	}
}

// TestDecodeResultRejectsOverflowedRange pins the span-overflow guard: a
// range whose span wraps hi below lo must fail the decode instead of
// panicking inside idlist.FromRanges.
func TestDecodeResultRejectsOverflowedRange(t *testing.T) {
	e := &enc{}
	e.str("")
	e.uint(1) // one group
	e.uint(0)
	e.uint(0)
	e.bytes(nil)
	e.str("")
	e.int(-1)
	e.uint(1)
	e.uint(1) // one agg
	e.uint(0)
	e.uint(0)
	e.uint(0)              // ashe body
	e.uint(1)              // one range
	e.uint(10)             // lo delta
	e.uint(^uint64(0) - 3) // span: hi = 10 + (2^64−4) wraps below lo
	e.bytes(nil)           // encoded
	e.bool(false)          // no pail
	e.bytes(nil)           // ope
	e.uint(0)              // arg id
	e.bytes(nil)           // companion
	e.uint(0)              // no scan rows
	encodeMetrics(e, &engine.Metrics{})
	if _, _, _, err := DecodeResult(e.buf, Version); err == nil {
		t.Fatal("overflow-inverted range accepted")
	}
}

func TestAppendFrameRoundTrip(t *testing.T) {
	batch, err := store.BuildFrom("sales", []store.Column{
		{Name: "revenue", Kind: store.U64, U64: []uint64{9, 8}},
	}, 1, 1001)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeAppend("sales@Seabed", batch)
	if err != nil {
		t.Fatal(err)
	}
	ref, got, err := DecodeAppend(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref != "sales@Seabed" || got.NumRows() != 2 || got.Parts[0].StartID != 1001 {
		t.Fatalf("append round trip: ref=%q rows=%d start=%d", ref, got.NumRows(), got.Parts[0].StartID)
	}
}

func TestResultEncodeRejectsRaggedScanRows(t *testing.T) {
	res := &engine.Result{Scan: []engine.ScanRow{{ID: 1, U64s: []uint64{1, 2}, Bytes: [][]byte{nil}, Strs: []string{"", ""}}}}
	if _, err := EncodeResult("", res, nil, Version); err == nil {
		t.Fatal("ragged scan row accepted")
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	tbl, err := store.Build("sales", []store.Column{
		{Name: "revenue", Kind: store.U64, U64: []uint64{1, 2, 3, 4, 5}},
		{Name: "ct", Kind: store.Bytes, Bytes: [][]byte{{1}, {2, 2}, nil, {4}, {5}}},
		{Name: "country", Kind: store.Str, Str: []string{"a", "b", "c", "d", "e"}},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeRegister("sales@Seabed", tbl)
	if err != nil {
		t.Fatal(err)
	}
	ref, got, err := DecodeRegister(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref != "sales@Seabed" {
		t.Fatalf("ref = %q", ref)
	}
	if got.NumRows() != tbl.NumRows() || len(got.Parts) != len(tbl.Parts) {
		t.Fatalf("table shape = (%d rows, %d parts), want (%d, %d)",
			got.NumRows(), len(got.Parts), tbl.NumRows(), len(tbl.Parts))
	}
	var a, b bytes.Buffer
	if _, err := tbl.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("table serialization changed across the register round trip")
	}
}

func TestRegisterRejectsJunk(t *testing.T) {
	if _, _, err := DecodeRegister([]byte{0xFF, 0x01, 0x02}); err == nil {
		t.Fatal("junk register payload accepted")
	}
	if _, err := EncodeRegister("", &store.Table{}); err == nil {
		t.Fatal("empty ref accepted")
	}
}

func TestCancelFrameType(t *testing.T) {
	// Frame types must keep their identities (they cross processes).
	if MsgCancel.String() != "cancel" || MsgResultChunk.String() != "result-chunk" {
		t.Fatalf("lifecycle frame names: %v, %v", MsgCancel, MsgResultChunk)
	}
	if Version != 8 {
		t.Fatalf("protocol version = %d, want 8 (a bump must re-capture the golden frames)", Version)
	}
	if MsgSegmentList.String() != "segment-list" || MsgSegmentFetch.String() != "segment-fetch" || MsgSegmentData.String() != "segment-data" {
		t.Fatalf("segment frame names: %v, %v, %v", MsgSegmentList, MsgSegmentFetch, MsgSegmentData)
	}
}
