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
				GroupBy: &engine.GroupBy{Col: "store", Inflate: 7},
				Codec:   idlist.VBDiff,
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
				KeyKind: store.Str, KeyStr: "Canada", Suffix: -1, Rows: 991,
				Aggs: []engine.AggValue{
					{Kind: engine.AggAsheSum, Ashe: engine.AsheAgg{Body: 0xDEADBEEFCAFE, Encoded: encoded}},
					{Kind: engine.AggCount, U64: 991},
					{Kind: engine.AggPaillierSum, Pail: big.NewInt(0).Lsh(big.NewInt(12345), 300)},
					{Kind: engine.AggOpeMax, Ope: []byte{1, 2, 3}, ArgID: 77, U64: 41, CompanionBytes: []byte{9}},
				},
			},
			{
				// A group no row reached, and an empty key.
				KeyKind: store.Str, Suffix: -1, Rows: 0,
				Aggs: []engine.AggValue{
					{Kind: engine.AggAsheSum, Ashe: engine.AsheAgg{Encoded: []byte{0}}},
					{Kind: engine.AggCount},
					{Kind: engine.AggPaillierSum, Pail: big.NewInt(1)},
					{Kind: engine.AggOpeMax},
				},
			},
		},
		Scan: []engine.ScanRow{
			{ID: 1, U64s: []uint64{42, 0}, Bytes: [][]byte{nil, {5, 6}}, Strs: []string{"", ""}},
			{ID: 2, U64s: []uint64{0, 0}, Bytes: [][]byte{nil, nil}, Strs: []string{"x", "y"}},
		},
		Metrics: engine.Metrics{
			ServerTime: 123 * time.Millisecond, MapTime: 100 * time.Millisecond,
			ReduceTime: 13 * time.Millisecond, DriverTime: 1 * time.Millisecond, ShuffleBytes: 4096, ResultBytes: 512,
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
	back, err := idlist.Default.Decode(got.View()[0].Aggs[0].Ashe.Encoded)
	if err != nil || !back.Equal(ids) {
		t.Fatalf("id list round trip: got %v (err %v), want %v", back, err, ids)
	}
	if !reflect.DeepEqual(got.View(), res.Groups) || !reflect.DeepEqual(got.Scan, res.Scan) || !reflect.DeepEqual(got.Metrics, res.Metrics) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, res)
	}

	// Per-task durations are in-process only: a result that carries them
	// encodes to the same frame.
	res.Metrics.MapTaskTimes = []time.Duration{time.Millisecond}
	res.Metrics.ReduceTaskTimes = []time.Duration{time.Millisecond}
	if again, err := EncodeResult(idlist.Default.Name(), res, nil, Version); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("task durations changed the result frame (err %v)", err)
	}
}

// TestResultEncodeRejectsMixedGroups pins the columnar form's precondition on
// hand-built results: one key kind and one aggregate list for every group.
func TestResultEncodeRejectsMixedGroups(t *testing.T) {
	count := []engine.AggValue{{Kind: engine.AggCount, U64: 1}}
	for name, groups := range map[string][]engine.Group{
		"key kinds":        {{KeyKind: store.U64, Suffix: -1, Aggs: count}, {KeyKind: store.Str, KeyStr: "x", Suffix: -1, Aggs: count}},
		"aggregate counts": {{KeyKind: store.U64, Suffix: -1, Aggs: count}, {KeyKind: store.U64, KeyU64: 1, Suffix: -1}},
		"aggregate kinds":  {{KeyKind: store.U64, Suffix: -1, Aggs: count}, {KeyKind: store.U64, KeyU64: 1, Suffix: -1, Aggs: []engine.AggValue{{Kind: engine.AggPlainSum}}}},
	} {
		if _, err := EncodeResult("", &engine.Result{Groups: groups}, nil, Version); err == nil {
			t.Errorf("groups mixing %s encoded", name)
		}
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
	e.uint(1 << 62) // hostile group count
	if _, _, _, err := DecodeResult(e.buf, Version); err == nil {
		t.Fatal("hostile group count accepted")
	}

	// A count the payload could hold as bare lanes, but not as side-column
	// values: the decoder must not reserve a value per claimed group.
	e = &enc{}
	e.str("")
	e.uint(1 << 20) // groups
	e.uint(0)       // u64 keys
	e.bool(false)
	e.uint(1) // one aggregate
	e.uint(uint64(engine.AggPaillierSum))
	e.lane(make([]uint64, 1<<20)) // rows
	e.lane(make([]uint64, 1<<20)) // keys
	e.buf = append(e.buf, make([]byte, 9<<20)...)
	e.buf = e.buf[:len(e.buf)-1] // the last value is cut short
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, _, err := DecodeResult(e.buf, Version); err == nil {
			t.Fatal("truncated side column accepted")
		}
	})
	if allocs > 64 {
		t.Fatalf("rejecting a truncated side column took %.0f allocations", allocs)
	}
}

// TestDecodeResultRejectsBadListOffsets pins the identifier-list block's
// guard: offsets that run backwards, or past the block, must fail the decode
// — a list read through them later would be out of bounds.
func TestDecodeResultRejectsBadListOffsets(t *testing.T) {
	for name, offs := range map[string][]uint64{
		"backwards":      {0, 3, 2},
		"past the block": {0, 2, 1 << 40},
		"nonzero first":  {1, 2, 4},
	} {
		e := &enc{}
		e.str("")
		e.uint(2) // groups
		e.uint(0) // u64 keys
		e.bool(false)
		e.uint(1)
		e.uint(uint64(engine.AggAsheSum))
		e.lane([]uint64{1, 1}) // rows
		e.lane([]uint64{7, 8}) // keys
		e.lane([]uint64{5, 6}) // bodies
		e.lane(offs)
		e.buf = append(e.buf, 0, 0, 0, 0)
		e.align()
		e.uint(0) // no scan rows
		encodeMetrics(e, &engine.Metrics{})
		e.uint(0) // no spans
		if _, _, _, err := DecodeResult(e.buf, Version); err == nil {
			t.Errorf("list offsets running %s accepted", name)
		}
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
	if Version != 13 {
		t.Fatalf("protocol version = %d, want 13 (a bump must re-capture the golden frames)", Version)
	}
	if MsgSegmentList.String() != "segment-list" || MsgSegmentFetch.String() != "segment-fetch" || MsgSegmentData.String() != "segment-data" {
		t.Fatalf("segment frame names: %v, %v, %v", MsgSegmentList, MsgSegmentFetch, MsgSegmentData)
	}
}
