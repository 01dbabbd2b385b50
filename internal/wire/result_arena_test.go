package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"reflect"
	"testing"
	"time"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/store"
)

// goldenResult is a fixed three-group result touching every aggregate field
// the result frame carries: byte keys with ASHE sums (the encrypted GROUP BY
// shape), an inflation suffix, and one group of OPE, median and Paillier
// values.
func goldenResult(t testing.TB) *engine.Result {
	ids := idlist.FromRange(3, 9)
	ids.Append(12)
	ids.AppendRange(40, 41)
	enc, err := idlist.VBDiff.Encode(ids)
	if err != nil {
		t.Fatal(err)
	}
	one := idlist.FromRange(77, 77)
	encOne, err := idlist.VBDiff.Encode(one)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Result{
		Groups: []engine.Group{
			{KeyKind: store.Bytes, KeyBytes: []byte("0123456789abcdef"), Suffix: -1, Rows: 10,
				Aggs: []engine.AggValue{
					{Kind: engine.AggAsheSum, Ashe: engine.AsheAgg{Body: 0xfeedfacecafebeef, IDs: ids, Encoded: enc}},
					{Kind: engine.AggCount, U64: 10},
				}},
			{KeyKind: store.Bytes, KeyBytes: []byte("fedcba9876543210"), Suffix: 2, Rows: 1,
				Aggs: []engine.AggValue{
					{Kind: engine.AggAsheSum, Ashe: engine.AsheAgg{Body: 7, IDs: one, Encoded: encOne}},
					{Kind: engine.AggCount, U64: 1},
				}},
			{KeyKind: store.U64, KeyU64: 1 << 40, Suffix: -1, Rows: 4,
				Aggs: []engine.AggValue{
					{Kind: engine.AggOpeMin, Ope: []byte{9, 8, 7}, ArgID: 31, U64: 5, CompanionBytes: []byte{1, 2}},
					{Kind: engine.AggPlainMedian, MedU64: []uint64{4, 300, 2}},
					{Kind: engine.AggOpeMedian, MedOpe: [][]byte{{1}, {2, 2}}, MedIDs: []uint64{5, 6}, MedComp: []uint64{50, 60}},
					{Kind: engine.AggPaillierSum, Pail: new(big.Int).Lsh(big.NewInt(99), 70)},
				}},
		},
		Metrics: engine.Metrics{
			ServerTime: 9 * time.Millisecond, MapTime: 5 * time.Millisecond, ReduceTime: 2 * time.Millisecond,
			ShuffleTime: time.Millisecond, DriverTime: time.Millisecond, ShuffleBytes: 1234, ResultBytes: 567,
			MapTasks: 8, ReduceTasks: 3, RowsScanned: 1000, RowsSelected: 15,
			TaskMin: time.Microsecond, TaskP50: 2 * time.Microsecond, TaskMax: 3 * time.Microsecond,
			Ops: engine.OpStats{Batches: 8, GroupHash: 15, GroupSlots: 3, GroupTableLen: 1024, ColumnPins: 16},
		},
	}
}

// goldenFrame is what EncodeResult(idlist.VBDiff.Name(), goldenResult, nil,
// Version) emitted at the commit before the result decoder moved to arenas
// (89a27b9): the frame format is frozen across that rewrite.
const goldenFrame = "0776622b64696666030100103031323334353637383961626364656600010a020300effdfad7ecd9fef6fe01030306" +
	"09001c010b0a060202020202020638020000000000000000020a000000000000000000000001001066656463626139383736353433" +
	"32313000040102030007014d0003019a01000000000000000002010000000000000000000000008080808080200000010404070500" +
	"000000030908071f020102000000000900000000000000000304ac02020000000a00000000000000000002010102020202050602" +
	"323c0400000000010a18c00000000000000000000000000000000080d1ca0880ade2048092f40180897a80897aa413ee081006e807" +
	"0fd00fa01ff02e0008000000000f00038008100000"

// TestEncodeResultGolden pins the result frame's bytes, and that the arena
// decoder reads them back to the same result.
func TestEncodeResultGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	res := goldenResult(t)
	got, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result frame bytes changed:\n got %x\nwant %x", got, want)
	}
	codec, back, _, err := DecodeResult(want, Version)
	if err != nil {
		t.Fatal(err)
	}
	if codec != idlist.VBDiff.Name() || !reflect.DeepEqual(back, res) {
		t.Fatalf("golden frame decoded to\n %+v\nwant\n %+v", back, res)
	}
}

// wideFrame encodes a result of n byte-keyed ASHE-sum groups: one daemon's
// share of a wide encrypted GROUP BY.
func wideFrame(t testing.TB, n int) ([]byte, *engine.Result) {
	res := &engine.Result{Groups: make([]engine.Group, n)}
	for i := range res.Groups {
		ids := idlist.FromRange(uint64(3*i+1), uint64(3*i+1))
		ids.Append(uint64(3*i + 3))
		enc, err := idlist.VBDiff.Encode(ids)
		if err != nil {
			t.Fatal(err)
		}
		res.Groups[i] = engine.Group{
			KeyKind: store.Bytes, KeyBytes: []byte(fmt.Sprintf("det-key-%08d", i)), Suffix: -1, Rows: 2,
			Aggs: []engine.AggValue{{Kind: engine.AggAsheSum, Ashe: engine.AsheAgg{Body: uint64(i) * 7919, IDs: ids, Encoded: enc}}},
		}
	}
	p, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestDecodeResultAllocsPerGroup pins the arena decode: a 16k-group frame
// decodes in a handful of blocks, not several allocations per group.
func TestDecodeResultAllocsPerGroup(t *testing.T) {
	const groups = 1 << 14
	p, want := wideFrame(t, groups)
	_, got, _, err := DecodeResult(p, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wide frame did not round-trip")
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, _, _, err := DecodeResult(p, Version); err != nil {
			t.Fatal(err)
		}
	})
	if avg > groups/64 {
		t.Fatalf("DecodeResult of a %d-group frame makes %.0f allocations, want at most %d", groups, avg, groups/64)
	}
}

// FuzzDecodeResult feeds hostile bytes to the result decoder: the proxy
// decodes results from a server the threat model does not trust, so the
// decoder must fail cleanly — never panic or over-reserve — and whatever it
// accepts must survive a re-encode and second decode unchanged. The seed
// corpus is the valid frames above plus the hostile-count and overflowed-range
// frames the unit tests reject.
func FuzzDecodeResult(f *testing.F) {
	golden, err := hex.DecodeString(goldenFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for cut := len(golden) - 1; cut > 0; cut /= 2 {
		f.Add(golden[:cut])
	}
	wide, _ := wideFrame(f, 40)
	f.Add(wide)
	ops, err := EncodeResult(idlist.Default.Name(), opsResult(), nil, Version)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ops)
	for _, e := range hostileResultFrames() {
		f.Add(e)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		codec, res, _, err := DecodeResult(p, Version)
		if err != nil {
			return
		}
		again, err := EncodeResult(codec, res, nil, Version)
		if err != nil {
			return // ragged scan rows decode but do not re-encode
		}
		codec2, res2, _, err := DecodeResult(again, Version)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if codec2 != codec || !reflect.DeepEqual(res2, res) {
			t.Fatalf("result changed across encode/decode:\n got %+v\nwant %+v", res2, res)
		}
	})
}

// hostileResultFrames builds the frames TestDecodeResultRejectsHostileCounts
// and TestDecodeResultRejectsOverflowedRange reject, plus hostile group and
// aggregate counts.
func hostileResultFrames() [][]byte {
	group := func(e *enc) {
		e.uint(0) // key kind
		e.uint(0) // key u64
		e.bytes(nil)
		e.str("")
		e.int(-1) // suffix
		e.uint(1) // rows
	}
	var out [][]byte

	e := &enc{}
	e.str("")
	e.uint(0)       // no groups
	e.uint(1)       // one scan row
	e.uint(7)       // row id
	e.uint(1 << 62) // hostile projection count
	out = append(out, e.buf)

	e = &enc{}
	e.str("")
	e.uint(1 << 62) // hostile group count
	out = append(out, e.buf)

	e = &enc{}
	e.str("")
	e.uint(1)
	group(e)
	e.uint(1 << 62) // hostile aggregate count
	out = append(out, e.buf)

	e = &enc{}
	e.str("")
	e.uint(1)
	group(e)
	e.uint(1)       // one agg
	e.uint(0)       // agg kind
	e.uint(0)       // agg u64
	e.uint(0)       // ashe body
	e.uint(1 << 62) // hostile range count
	out = append(out, e.buf)

	e = &enc{}
	e.str("")
	e.uint(1)
	group(e)
	e.uint(1)
	e.uint(0)
	e.uint(0)
	e.uint(0)
	e.uint(1)          // one range
	e.uint(10)         // lo
	e.uint(^uint64(0)) // span wraps hi below lo
	out = append(out, e.buf)
	return out
}

// TestDecodeResultRejectsHostileFrames runs the fuzz seeds' hostile frames as
// a plain test: each must fail the decode.
func TestDecodeResultRejectsHostileFrames(t *testing.T) {
	for i, p := range hostileResultFrames() {
		if _, _, _, err := DecodeResult(p, Version); err == nil {
			t.Errorf("hostile frame %d accepted", i)
		}
	}
}

// BenchmarkEncodeResultWide and BenchmarkDecodeResultWide time the result
// codec on a 16k-group frame, the unit a wide GROUP BY pays per daemon.
func BenchmarkEncodeResultWide(b *testing.B) {
	_, res := wideFrame(b, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResultWide(b *testing.B) {
	p, _ := wideFrame(b, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeResult(p, Version); err != nil {
			b.Fatal(err)
		}
	}
}
