package engine

import (
	"reflect"
	"testing"
)

// TestOpStatsMergeThreeShards pins the merge semantics the coordinator relies
// on when it folds three shards' v8 counter blocks into one EXPLAIN ANALYZE
// view: every field sums, except GroupTableLen, which reports the largest
// single table any shard built (a capacity, not a volume).
func TestOpStatsMergeThreeShards(t *testing.T) {
	shards := []OpStats{
		{Batches: 1, DenseBatches: 2, JoinProbed: 3, JoinMatched: 4, GroupDense: 5,
			GroupHash: 6, RadixBatches: 7, GroupSlots: 8, GroupTableLen: 100, ColumnPins: 9, ColumnFaults: 10},
		{Batches: 10, DenseBatches: 20, JoinProbed: 30, JoinMatched: 40, GroupDense: 50,
			GroupHash: 60, RadixBatches: 70, GroupSlots: 80, GroupTableLen: 4096, ColumnPins: 90, ColumnFaults: 100},
		{Batches: 100, DenseBatches: 200, JoinProbed: 300, JoinMatched: 400, GroupDense: 500,
			GroupHash: 600, RadixBatches: 700, GroupSlots: 800, GroupTableLen: 512, ColumnPins: 900, ColumnFaults: 1000},
	}
	var merged OpStats
	for i := range shards {
		merged.merge(&shards[i])
	}
	want := OpStats{
		Batches: 111, DenseBatches: 222, JoinProbed: 333, JoinMatched: 444, GroupDense: 555,
		GroupHash: 666, RadixBatches: 777, GroupSlots: 888, GroupTableLen: 4096, ColumnPins: 999, ColumnFaults: 1110,
	}
	if merged != want {
		t.Fatalf("3-shard merge:\n got %+v\nwant %+v", merged, want)
	}

	// Structural guard: a field added to OpStats without a merge rule would
	// silently read zero in every EXPLAIN ANALYZE. Merging a one-valued stats
	// block into a zero block must touch every field.
	ones := OpStats{}
	v := reflect.ValueOf(&ones).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(1)
	}
	var m OpStats
	m.merge(&ones)
	mv := reflect.ValueOf(m)
	for i := 0; i < mv.NumField(); i++ {
		if mv.Field(i).Uint() == 0 {
			t.Errorf("OpStats.%s not touched by merge; add it to merge()", mv.Type().Field(i).Name)
		}
	}
}

// TestMergeMetricsCarriesOps pins that the shard-result metric fold
// (mergeMetrics, the coordinator's scatter-gather path) forwards the ops
// block rather than dropping it on the floor.
func TestMergeMetricsCarriesOps(t *testing.T) {
	dst := Metrics{Ops: OpStats{Batches: 1, GroupTableLen: 10}}
	src := Metrics{Ops: OpStats{Batches: 2, GroupTableLen: 7, ColumnFaults: 3}}
	mergeMetrics(&dst, &src)
	if dst.Ops.Batches != 3 || dst.Ops.GroupTableLen != 10 || dst.Ops.ColumnFaults != 3 {
		t.Fatalf("mergeMetrics dropped ops counters: %+v", dst.Ops)
	}
}
