package wire

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"io"
	"math/big"
	"os"
	"reflect"
	"slices"
	"strings"
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

// roundTripPlans are plans of every shape a proxy sends: a bare count, one
// touching every filter and aggregate field with a join, a scan, and a
// shard-scoped partial.
func roundTripPlans() map[string]*PlanRequest {
	return map[string]*PlanRequest{
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
}

func TestPlanRoundTrip(t *testing.T) {
	for name, req := range roundTripPlans() {
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
	res := &engine.Result{
		// Two string-keyed groups; the first is one no row reached, with an
		// empty key.
		Cols: &engine.GroupCols{
			KeyKind:  store.Str,
			KeyOff:   []uint64{0, 0, 6},
			KeyArena: []byte("Canada"),
			Rows:     []uint64{0, 991},
			Aggs: []engine.AggCol{
				{Kind: engine.AggAsheSum, Lane: []uint64{0, 0xDEADBEEFCAFE}},
				{Kind: engine.AggCount, Lane: []uint64{0, 991}},
				{Kind: engine.AggPaillierSum, Vals: []engine.AggValue{
					{Kind: engine.AggPaillierSum, Pail: big.NewInt(1)},
					{Kind: engine.AggPaillierSum, Pail: big.NewInt(0).Lsh(big.NewInt(12345), 300)}}},
				{Kind: engine.AggOpeMax, Vals: []engine.AggValue{
					{Kind: engine.AggOpeMax},
					{Kind: engine.AggOpeMax, Ope: []byte{1, 2, 3}, ArgID: 77, U64: 41, CompanionBytes: []byte{9}}}},
			},
			IDs:   []engine.IDPart{idSection(t, idlist.Default, [][]uint64{nil, ids.IDs()})},
			Codec: idlist.Default,
		},
		Metrics: engine.Metrics{
			ShuffleBytes: 4096, ResultBytes: 512,
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
	back, err := idlist.Default.Decode(got.View()[1].Aggs[0].Ashe.Encoded)
	if err != nil || !slices.Equal(back.IDs(), slices.Sorted(slices.Values(ids.IDs()))) {
		t.Fatalf("id list round trip: got %v (err %v), want %v", back, err, ids)
	}
	if !reflect.DeepEqual(got.View(), res.View()) || got.Scan != nil || !reflect.DeepEqual(got.Metrics, res.Metrics) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, res)
	}

	// Task and driver times are in-process only: a result that carries them
	// encodes to the same frame.
	res.Metrics.MapTaskTimes = []time.Duration{time.Millisecond}
	res.Metrics.ReduceTaskTimes = []time.Duration{time.Millisecond}
	res.Metrics.DriverTime = time.Millisecond
	if again, err := EncodeResult(idlist.Default.Name(), res, nil, Version); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("task durations changed the result frame (err %v)", err)
	}
}

// TestDecodeResultRejectsHostileCounts pins the allocation guards: a tiny
// frame claiming a huge element count must fail the decode, not panic or
// OOM the trusted proxy (the server is untrusted).
func TestDecodeResultRejectsHostileCounts(t *testing.T) {
	e := &enc{}
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

// TestDecodeResultRejectsBadListOffsets pins the identifier section's length
// guards: a list or a run block whose length runs past the payload, and a
// part count the payload cannot hold, must fail the decode — a list read
// through them later would be out of bounds.
func TestDecodeResultRejectsBadListOffsets(t *testing.T) {
	for name, write := range map[string]func(e *enc){
		"list past the payload":    func(e *enc) { e.uint(1); e.uint(2); e.uint(1 << 40) },
		"runs past the payload":    func(e *enc) { e.uint(1); e.uint(2); e.bytes([]byte{2, 2, 2}); e.uint(1 << 40) },
		"parts past the payload":   func(e *enc) { e.uint(1 << 40) },
		"list cut at its length":   func(e *enc) { e.uint(1); e.uint(2); e.uint(3) },
		"section missing entirely": func(e *enc) {},
	} {
		if _, _, _, err := DecodeResult(sectionFrame([]engine.AggKind{engine.AggAsheSum}, write), Version); err == nil {
			t.Errorf("%s: accepted", name)
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
	ref, img, err := DecodeAppend(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if ref != "sales@Seabed" || got.NumRows() != 2 || got.Parts[0].StartID != 1001 {
		t.Fatalf("append round trip: ref=%q rows=%d start=%d", ref, got.NumRows(), got.Parts[0].StartID)
	}
}

// rowMajorSeed is the checked-in fuzz seed holding rowMajorFrame.
const rowMajorSeed = "testdata/fuzz/FuzzDecodeResult/refused-row-major-scan-row"

// rowMajorFrame is a v15 result frame with one scan row in the row-major
// encoding the result frame's scan section once held: per row its
// identifier, its width, and per cell a uvarint, a byte string and a string;
// then the 25 varints of a zero run's v15 metrics. v16 has no scan section, so
// the row's bytes read as metrics and the frame runs past its end.
func rowMajorFrame() []byte {
	e := &enc{}
	e.str("") // codec name
	e.uint(0) // no groups
	e.uint(1) // one scan row
	e.uint(7) // its identifier
	e.uint(1) // one cell
	e.uint(42)
	e.bytes(nil)
	e.str("")
	for range 25 {
		e.uint(0)
	}
	e.uint(0) // no spans
	return e.buf
}

// TestScanRowsTravelOnlyInChunks: scan rows cross the wire in chunk frames
// and nowhere else. The chunk encoder refuses rows whose chunks' width or
// kinds disagree with the plan's kinds; EncodeResult refuses a result that
// carries scan rows; and DecodeResult refuses the row-major frame checked in
// as a fuzz seed, by its trailing-bytes check.
func TestScanRowsTravelOnlyInChunks(t *testing.T) {
	_, kinds := chunkRows(0)
	rows := chunkRowsFrom(1, 3)
	for name, k := range map[string][]store.Kind{
		"narrower": kinds[:3],
		"wider":    append(kinds, store.U64),
		"kinds":    {store.U64, store.Str, store.Bytes, store.Fixed},
	} {
		if _, err := AppendScanChunk(nil, rows, k); err == nil {
			t.Errorf("%s: encoded a chunk whose columns disagree with the plan's kinds", name)
		}
	}

	for name, res := range map[string]*engine.Result{
		"scan rows":             {Scan: rows},
		"scan rows with groups": {Scan: rows, Cols: opsResult().Cols},
	} {
		if _, err := EncodeResult("", res, nil, Version); err == nil || !strings.Contains(err.Error(), "2 scan rows") {
			t.Errorf("%s: EncodeResult returned %v, want a refusal counting 2 scan rows", name, err)
		}
	}

	frame := rowMajorFrame()
	seed, err := os.ReadFile(rowMajorSeed)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame); string(seed) != want {
		t.Fatalf("%s is not the row-major frame; rewrite it as\n%s", rowMajorSeed, want)
	}
	if _, _, _, err := DecodeResult(frame, Version); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("row-major scan row: DecodeResult returned %v, want a refusal of its trailing bytes", err)
	}
	// A frame of no groups, a zero run's metrics and no spans is a valid
	// empty result.
	e := &enc{}
	e.str("")
	e.uint(0)
	encodeMetrics(e, &engine.Metrics{})
	e.uint(0)
	if _, res, _, err := DecodeResult(e.buf, Version); err != nil || res.Cols != nil || res.Scan != nil {
		t.Fatalf("empty result frame: %+v, %v", res, err)
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
	ref, img, err := DecodeRegister(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.DecodeImage(img)
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
	if Version != 16 {
		t.Fatalf("protocol version = %d, want 16 (a bump must re-capture the golden frames)", Version)
	}
	if MsgSegmentList.String() != "segment-list" || MsgSegmentFetch.String() != "segment-fetch" || MsgSegmentData.String() != "segment-data" {
		t.Fatalf("segment frame names: %v, %v, %v", MsgSegmentList, MsgSegmentFetch, MsgSegmentData)
	}
}
