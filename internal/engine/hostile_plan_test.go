package engine_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// TestHostileLaneBounds: a group-by's KeyBound and Inflate arrive in a plan
// frame from an untrusted client. Plans with huge values, with pairs whose
// product wraps uint64, and with products just past and exactly at the lane
// cap (65,536 lanes) round-trip through the plan frame codec and run on a u64
// and on a 16-byte key: each answers as the reference evaluator does, and no
// run's map output — at most a lane set per running task of at most 65,536
// lanes, 8 bytes a lane for the row count and each aggregate — grows past
// what the cap allows.
func TestHostileLaneBounds(t *testing.T) {
	const rows, par = 4096, 2
	d, v := make([]uint64, rows), make([]uint64, rows)
	k := make([]byte, 16*rows)
	for i := range rows {
		d[i], v[i] = uint64(i%7), uint64(i%100)
		binary.LittleEndian.PutUint64(k[16*i:], uint64(i%7)*0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(k[16*i+8:], uint64(i%7)+1)
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "d", Kind: store.U64, U64: d},
		{Name: "k", Kind: store.Fixed, Width: 16, Fixed: k},
		{Name: "v", Kind: store.U64, U64: v},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}, {Kind: engine.AggCount}}
	maxShuffle := par * 8 * (1 << 16) * (1 + len(aggs))
	c := engine.NewCluster(engine.Config{Workers: 4, RealParallelism: par, Seed: 3})
	ctx := context.Background()
	for _, col := range []string{"d", "k"} {
		for _, gb := range []engine.GroupBy{
			{KeyBound: 1 << 63},
			{Inflate: 1 << 62},
			{KeyBound: 1 << 63, Inflate: 1 << 62},
			{KeyBound: 1 << 62, Inflate: 4},        // the product wraps to 0
			{KeyBound: 1 << 33, Inflate: 1 << 31},  // so does this one
			{KeyBound: 1<<62 + 1, Inflate: 1 << 2}, // and this to 4
			{KeyBound: 1 << 16, Inflate: 2},
			{KeyBound: 7, Inflate: 1 << 14},
			{KeyBound: 1 << 16},
			{KeyBound: 1, Inflate: 1 << 16},
		} {
			gb.Col = col
			name := fmt.Sprintf("%s/bound=%d/inflate=%d", col, gb.KeyBound, gb.Inflate)
			frame, err := wire.EncodePlan(&wire.PlanRequest{TableRef: "t",
				Plan: &engine.Plan{Table: tbl, GroupBy: &gb, Aggs: aggs}}, wire.Version)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plan := func() *engine.Plan {
				req, err := wire.DecodePlan(frame)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if *req.Plan.GroupBy != gb {
					t.Fatalf("%s: decoded %+v", name, *req.Plan.GroupBy)
				}
				req.Plan.Table = tbl
				return req.Plan
			}
			ref, err := c.RunReference(ctx, plan())
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			got, err := c.Run(ctx, plan())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.View(), ref.View()) {
				t.Errorf("%s: %d groups, the reference's %d, diverge", name, len(got.View()), len(ref.View()))
			}
			if got.Metrics.ShuffleBytes > maxShuffle {
				t.Errorf("%s: map output of %d bytes, past the lane cap's %d", name, got.Metrics.ShuffleBytes, maxShuffle)
			}
		}
	}
}
