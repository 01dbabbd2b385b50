package wire

import (
	"reflect"
	"testing"
	"time"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/store"
)

// opsResult builds a result whose per-operator counter block has every field
// nonzero and distinct, so a dropped or reordered field cannot round-trip
// cleanly by accident.
func opsResult() *engine.Result {
	return &engine.Result{
		Cols: &engine.GroupCols{KeyKind: store.U64, KeyU64: []uint64{7}, Rows: []uint64{3},
			Aggs: []engine.AggCol{{Kind: engine.AggCount, Lane: []uint64{3}}}},
		Metrics: engine.Metrics{
			MapTasks: 4, ReduceTasks: 1,
			RowsScanned: 9000, RowsSelected: 1234,
			FirstChunk: 2 * time.Millisecond,
			Ops: engine.OpStats{
				Batches:       101,
				DenseBatches:  11,
				JoinProbed:    5000,
				JoinMatched:   4200,
				GroupDense:    3000,
				GroupHash:     1200,
				RadixBatches:  7,
				GroupSlots:    31,
				GroupTableLen: 4096,
				ColumnPins:    12,
				ColumnFaults:  2,
			},
		},
	}
}

// TestResultOpsRoundTripV8 pins the result frame: the full per-operator
// counter block survives encode/decode exactly.
func TestResultOpsRoundTripV8(t *testing.T) {
	res := opsResult()
	payload, err := EncodeResult(idlist.Default.Name(), res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := DecodeResult(payload, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Metrics.Ops, res.Metrics.Ops) {
		t.Fatalf("ops round trip:\n got %+v\nwant %+v", got.Metrics.Ops, res.Metrics.Ops)
	}
	if !reflect.DeepEqual(got.View(), res.View()) || !reflect.DeepEqual(got.Metrics, res.Metrics) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, res)
	}
}

// TestResultOpsRejectsTruncatedV8 pins the hostile-payload guard: a frame
// cut off inside the ops block must fail the decode, not panic or hand the
// trusted proxy fabricated counters plus a clean error.
func TestResultOpsRejectsTruncatedV8(t *testing.T) {
	payload, err := EncodeResult(idlist.Default.Name(), opsResult(), nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point from "just before the ops block could finish"
	// back to an empty frame must error — never panic.
	for cut := len(payload) - 1; cut >= 0; cut-- {
		if _, _, _, err := DecodeResult(payload[:cut], Version); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(payload))
		}
	}
}
