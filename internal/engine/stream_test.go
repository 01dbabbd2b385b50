package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// Mid-map streaming tests: RunStream must deliver exactly the rows Run
// materializes, in the same order, in sink batches of at most ScanChunkRows —
// and must deliver the first batch while later map tasks are still running.

// flatRow is a scan row as comparable values: its identifier and, per
// projected column, the cell as each accessor reads it.
type flatRow struct {
	ID    uint64
	U64s  []uint64
	Bytes []string
	Strs  []string
}

// flatScan reads rows through their cursors, so two scans compare equal by
// their cells whichever chunks hold them.
func flatScan(rows []ScanRow) []flatRow {
	out := make([]flatRow, len(rows))
	for i, r := range rows {
		w := r.Width()
		f := flatRow{ID: r.ID, U64s: make([]uint64, w), Bytes: make([]string, w), Strs: make([]string, w)}
		for j := 0; j < w; j++ {
			f.U64s[j], f.Bytes[j], f.Strs[j] = r.U64(j), string(r.Bytes(j)), r.Str(j)
		}
		out[i] = f
	}
	return out
}

// TestScanRowsAreChunkCursors: a map task's survivors are one chunk, column
// by column in projection order — U64 and Fixed values copied, Bytes and Str
// values the table's own — and each row a cursor into it whose accessors read
// the zero value on a column of another kind.
func TestScanRowsAreChunkCursors(t *testing.T) {
	fixed := make([]byte, 16*6)
	for i := range fixed {
		fixed[i] = byte(i)
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "u", Kind: store.U64, U64: []uint64{1, 2, 3, 4, 5, 6}},
		{Name: "f", Kind: store.Fixed, Width: 16, Fixed: fixed},
		{Name: "b", Kind: store.Bytes, Bytes: [][]byte{{1}, {2}, {3}, {4}, {5}, {6}}},
		{Name: "s", Kind: store.Str, Str: []string{"a", "b", "c", "d", "e", "f"}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(context.Context, *Plan) (*Result, error){NewCluster(Config{}).Run, NewCluster(Config{}).RunReference} {
		res, err := run(context.Background(), &Plan{Table: tbl,
			Filters: []Filter{{Kind: FilterPlainCmp, Col: "u", Op: sqlparse.OpNe, U64: 2}},
			Project: []string{"s", "u", "f", "b"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scan) != 5 {
			t.Fatalf("scan returned %d rows, want 5", len(res.Scan))
		}
		first, second := res.Scan[0].Chunk(), res.Scan[2].Chunk()
		if res.Scan[1].Chunk() != first || first == second || len(first.IDs) != 2 || len(second.IDs) != 3 {
			t.Fatalf("rows are not one chunk per task: %d and %d identifiers", len(first.IDs), len(second.IDs))
		}
		for j, want := range []store.Kind{store.Str, store.U64, store.Fixed, store.Bytes} {
			if c := first.Cols[j]; c.Kind != want || c.Len() != 2 || want == store.Fixed && c.Width != 16 {
				t.Fatalf("chunk column %d is %v of %d values, want %v of 2", j, c.Kind, c.Len(), want)
			}
		}
		r := res.Scan[1] // row 3, partition 0's second survivor
		if r.ID != 3 || r.Width() != 4 || r.Str(0) != "c" || r.U64(1) != 3 || r.Bytes(2)[0] != 32 || r.Bytes(3)[0] != 3 {
			t.Fatalf("row %d reads %q %d %v %v", r.ID, r.Str(0), r.U64(1), r.Bytes(2), r.Bytes(3))
		}
		if r.U64(0) != 0 || r.Bytes(1) != nil || r.Str(2) != "" || r.U64(3) != 0 {
			t.Fatal("an accessor on a column of another kind read a value")
		}
		if &r.Bytes(2)[0] == &fixed[32] || &r.Bytes(3)[0] != &tbl.Parts[0].Cols[2].Bytes[2][0] {
			t.Fatal("the chunk aliases the table's Fixed values or copies its Bytes values")
		}
	}
}

// TestRunStreamEquivalence asserts the streaming contract against the
// materialized scan for single- and multi-partition tables: concatenating
// the sink batches reproduces Run's Scan exactly, the streamed result's own
// Scan stays nil, and FirstChunk is recorded.
func TestRunStreamEquivalence(t *testing.T) {
	for _, parts := range []int{1, 7} {
		tbl, _, _ := fixture(t, 20000, parts)
		c := NewCluster(Config{Workers: 4})
		plan := func() *Plan {
			return &Plan{Table: tbl,
				Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 40}},
				Project: []string{"v", "d", "v_ashe"}}
		}
		want, err := c.Run(context.Background(), plan())
		if err != nil {
			t.Fatal(err)
		}
		var got []ScanRow
		res, err := c.RunStream(context.Background(), plan(), func(rows []ScanRow) error {
			if len(rows) == 0 || len(rows) > ScanChunkRows {
				t.Errorf("sink batch of %d rows, want 1..%d", len(rows), ScanChunkRows)
			}
			got = append(got, rows...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Scan != nil {
			t.Errorf("parts=%d: streamed result materialized %d scan rows, want nil", parts, len(res.Scan))
		}
		if !reflect.DeepEqual(flatScan(got), flatScan(want.Scan)) {
			t.Errorf("parts=%d: streamed rows diverge from materialized scan (%d vs %d rows)",
				parts, len(got), len(want.Scan))
		}
		if res.Metrics.FirstChunk <= 0 {
			t.Errorf("parts=%d: FirstChunk = %v, want > 0", parts, res.Metrics.FirstChunk)
		}
		if res.Metrics.RowsSelected != want.Metrics.RowsSelected {
			t.Errorf("parts=%d: RowsSelected %d vs %d", parts, res.Metrics.RowsSelected, want.Metrics.RowsSelected)
		}
	}
}

// TestRunStreamFirstChunkBeforeMapEnds pins the "mid-map" in mid-map
// streaming. With RealParallelism 1 the task launcher admits partitions in
// order, so partition 0 retires after one TaskSleep while five more tasks
// still have to run; the first sink call — and Metrics.FirstChunk — must
// land well before RunStream returns.
func TestRunStreamFirstChunkBeforeMapEnds(t *testing.T) {
	const parts = 6
	const sleep = 20 * time.Millisecond
	tbl, _, _ := fixture(t, 6000, parts)
	c := NewCluster(Config{Workers: 4, RealParallelism: 1, TaskSleep: sleep})
	start := time.Now()
	var firstRows time.Duration
	res, err := c.RunStream(context.Background(), &Plan{Table: tbl, Project: []string{"v"}},
		func(rows []ScanRow) error {
			if firstRows == 0 {
				firstRows = time.Since(start)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	total := time.Since(start)
	if res.Metrics.FirstChunk <= 0 {
		t.Fatalf("FirstChunk = %v, want > 0", res.Metrics.FirstChunk)
	}
	// The run holds at least parts×sleep of serialized map work; the first
	// chunk needs only partition 0's. Allow one extra sleep of slack.
	if firstRows >= total-2*sleep {
		t.Errorf("first rows at %v of a %v run: streaming did not beat the map stage", firstRows, total)
	}
	if res.Metrics.FirstChunk >= total-2*sleep {
		t.Errorf("FirstChunk = %v of a %v run, want mid-map delivery", res.Metrics.FirstChunk, total)
	}
}

// TestRunStreamSinkErrorAborts asserts a sink failure cancels the run: the
// error comes back verbatim and the remaining map tasks stop instead of
// running the table to completion.
func TestRunStreamSinkErrorAborts(t *testing.T) {
	tbl, _, _ := fixture(t, 6000, 6)
	c := NewCluster(Config{Workers: 4, RealParallelism: 1, TaskSleep: 5 * time.Millisecond})
	sinkErr := errors.New("downstream full")
	calls := 0
	_, err := c.RunStream(context.Background(), &Plan{Table: tbl, Project: []string{"v"}},
		func(rows []ScanRow) error {
			calls++
			return sinkErr
		})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("RunStream error = %v, want the sink's", err)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after failing, want 1", calls)
	}
}

// TestRunStreamNonScanFallsBack asserts aggregate plans and nil sinks run
// exactly like Run: no streaming machinery, no FirstChunk.
func TestRunStreamNonScanFallsBack(t *testing.T) {
	tbl, _, _ := fixture(t, 3000, 3)
	c := NewCluster(Config{Workers: 4})
	res, err := c.RunStream(context.Background(),
		&Plan{Table: tbl, Aggs: []Agg{{Kind: AggCount}}},
		func(rows []ScanRow) error { t.Error("sink called for an aggregate plan"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.FirstChunk != 0 {
		t.Errorf("FirstChunk = %v for a non-streaming run, want 0", res.Metrics.FirstChunk)
	}
	res, err = c.RunStream(context.Background(), &Plan{Table: tbl, Project: []string{"v"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scan) == 0 {
		t.Error("nil-sink RunStream did not materialize the scan")
	}
}
