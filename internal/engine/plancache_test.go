package engine

import (
	"context"
	"reflect"
	"testing"

	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// cacheFixture builds a small table and a cluster for cache tests.
func cacheFixture(t *testing.T) (*Cluster, *store.Table) {
	t.Helper()
	const rows = 4096
	v := make([]uint64, rows)
	d := make([]uint64, rows)
	for i := range v {
		v[i] = uint64(i % 100)
		d[i] = uint64(i % 16)
	}
	tbl, err := store.Build("pc", []store.Column{
		{Name: "v", Kind: store.U64, U64: v},
		{Name: "d", Kind: store.U64, U64: d},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(Config{Workers: 4}), tbl
}

// cacheShapePlan builds a fresh plan struct of the canonical cached shape.
func cacheShapePlan(tbl *store.Table, cut uint64) *Plan {
	return &Plan{
		Table:   tbl,
		Filters: []Filter{{Kind: FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: cut}},
		Aggs:    []Agg{{Kind: AggPlainSum, Col: "v"}},
	}
}

// TestPlanCacheHitsRepeatedShapes runs the same query shape through fresh
// Plan structs and checks the second run hits the cache with identical
// results, while a changed constant or a grown table misses.
func TestPlanCacheHitsRepeatedShapes(t *testing.T) {
	c, tbl := cacheFixture(t)
	ctx := context.Background()

	first, err := c.Run(ctx, cacheShapePlan(tbl, 50))
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.PlanCacheStats(); h != 0 || m != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", h, m)
	}
	second, err := c.Run(ctx, cacheShapePlan(tbl, 50))
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.PlanCacheStats(); h != 1 || m != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", h, m)
	}
	if !reflect.DeepEqual(first.View(), second.View()) {
		t.Fatal("cached run diverged from compiled run")
	}

	// A different constant is a different shape.
	if _, err := c.Run(ctx, cacheShapePlan(tbl, 10)); err != nil {
		t.Fatal(err)
	}
	if h, m := c.PlanCacheStats(); h != 1 || m != 2 {
		t.Fatalf("after new constant: hits=%d misses=%d, want 1/2", h, m)
	}

	// Copy-on-write growth changes the table pointer: the stale compilation
	// must not serve the grown table.
	batch, err := store.BuildFrom("pc", []store.Column{
		{Name: "v", Kind: store.U64, U64: []uint64{60, 70}},
		{Name: "d", Kind: store.U64, U64: []uint64{1, 2}},
	}, 1, tbl.EndID()+1)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := tbl.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx, cacheShapePlan(grown, 50))
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.PlanCacheStats(); h != 1 || m != 3 {
		t.Fatalf("after growth: hits=%d misses=%d, want 1/3", h, m)
	}
	wantSum := first.View()[0].Aggs[0].U64 + 60 + 70
	if got := res.View()[0].Aggs[0].U64; got != wantSum {
		t.Fatalf("grown-table sum %d, want %d", got, wantSum)
	}
}

// TestPlanCacheSurvivesCallerMutation mutates a Plan in place after running
// it; the cached compilation of the original shape must keep serving the
// original semantics.
func TestPlanCacheSurvivesCallerMutation(t *testing.T) {
	c, tbl := cacheFixture(t)
	ctx := context.Background()

	pl := cacheShapePlan(tbl, 50)
	first, err := c.Run(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	// Hostile-ish caller: reuse the same struct for a different query.
	pl.Filters[0].U64 = 90
	pl.Codec = nil
	mutated, err := c.Run(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	if mutated.View()[0].Aggs[0].U64 == first.View()[0].Aggs[0].U64 {
		t.Fatal("mutated plan returned the original's result")
	}
	// The original shape, via a fresh struct, must hit and match run one.
	again, err := c.Run(ctx, cacheShapePlan(tbl, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.View(), again.View()) {
		t.Fatal("cache served mutated kernels for the original shape")
	}
	if h, _ := c.PlanCacheStats(); h != 1 {
		t.Fatalf("original shape re-run did not hit (hits=%d)", h)
	}
}

// TestPlanCacheJoinAndGroupShapes exercises fingerprint coverage for join,
// group-by, scan, and range fields: each variation must compile separately
// and reuse only its own entry.
func TestPlanCacheJoinAndGroupShapes(t *testing.T) {
	c, tbl := cacheFixture(t)
	ctx := context.Background()
	right, err := store.Build("dim", []store.Column{
		{Name: "k", Kind: store.U64, U64: []uint64{1, 2, 3}},
		{Name: "label", Kind: store.U64, U64: []uint64{10, 20, 30}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []func() *Plan{
		func() *Plan {
			return &Plan{Table: tbl, GroupBy: &GroupBy{Col: "d"},
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}}
		},
		func() *Plan {
			return &Plan{Table: tbl,
				Join: &Join{Right: right, LeftCol: "d", RightCol: "k", RightCols: []string{"label"}},
				Aggs: []Agg{{Kind: AggCount}}}
		},
		func() *Plan { return &Plan{Table: tbl, Project: []string{"v"}} },
		func() *Plan {
			return &Plan{Table: tbl, Range: &IDRange{Lo: 10, Hi: 500}, Partial: true,
				Aggs: []Agg{{Kind: AggPlainSum, Col: "v"}}}
		},
	}
	var wants []*Result
	for _, mk := range shapes {
		res, err := c.Run(ctx, mk())
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, res)
	}
	if h, m := c.PlanCacheStats(); h != 0 || m != uint64(len(shapes)) {
		t.Fatalf("distinct shapes collided: hits=%d misses=%d", h, m)
	}
	for i, mk := range shapes {
		res, err := c.Run(ctx, mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.View(), wants[i].View()) || !reflect.DeepEqual(flatScan(res.Scan), flatScan(wants[i].Scan)) {
			t.Fatalf("shape %d: cached rerun diverged", i)
		}
	}
	if h, m := c.PlanCacheStats(); h != uint64(len(shapes)) || m != uint64(len(shapes)) {
		t.Fatalf("reruns did not all hit: hits=%d misses=%d", h, m)
	}
}

// TestPlanCacheBounded floods the cache with distinct shapes and checks it
// resets at the bound instead of growing without limit, while reference
// runs bypass it entirely.
func TestPlanCacheBounded(t *testing.T) {
	c, tbl := cacheFixture(t)
	ctx := context.Background()
	for i := 0; i < planCacheMax+30; i++ {
		if _, err := c.Run(ctx, cacheShapePlan(tbl, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.plans.mu.Lock()
	size := len(c.plans.plans)
	c.plans.mu.Unlock()
	if size > planCacheMax {
		t.Fatalf("cache grew to %d entries, bound is %d", size, planCacheMax)
	}

	h, m := c.PlanCacheStats()
	if _, err := c.RunReference(ctx, cacheShapePlan(tbl, 5)); err != nil {
		t.Fatal(err)
	}
	if h2, m2 := c.PlanCacheStats(); h2 != h || m2 != m {
		t.Fatal("reference evaluator touched the plan cache")
	}
}

// BenchmarkPlanCache reports compile-skipping in isolation: the same join
// shape repeatedly, cold vs warm cache.
func BenchmarkPlanCacheJoinShape(b *testing.B) {
	const rows = 1 << 15
	v := make([]uint64, rows)
	k := make([]uint64, rows)
	for i := range v {
		v[i], k[i] = uint64(i%100), uint64(i)
	}
	tbl, err := store.Build("pc", []store.Column{
		{Name: "v", Kind: store.U64, U64: v},
		{Name: "k", Kind: store.U64, U64: k},
	}, 4)
	if err != nil {
		b.Fatal(err)
	}
	right, err := store.Build("dim", []store.Column{
		{Name: "k", Kind: store.U64, U64: k},
		{Name: "w", Kind: store.U64, U64: v},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	mk := func() *Plan {
		return &Plan{Table: tbl,
			Join: &Join{Right: right, LeftCol: "k", RightCol: "k", RightCols: []string{"w"}},
			Aggs: []Agg{{Kind: AggPlainSum, Col: "w"}}}
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			c := NewCluster(Config{Workers: 4})
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !warm {
					c.plans.mu.Lock()
					c.plans.plans = nil
					c.plans.mu.Unlock()
				}
				if _, err := c.Run(ctx, mk()); err != nil {
					b.Fatal(err)
				}
			}
			h, m := c.PlanCacheStats()
			b.ReportMetric(float64(h)/float64(max(h+m, 1)), "hit-rate")
		})
	}
}

// TestPlanCacheClonesFilterBytes reuses one ciphertext buffer for two
// queries' encrypted constants — the caller-mutation hazard the cache's
// clone must survive for byte-valued filters: the cached kernels must keep
// comparing against the constant they were compiled with, not the buffer's
// current contents.
func TestPlanCacheClonesFilterBytes(t *testing.T) {
	const rows = 1024
	b := make([][]byte, rows)
	v := make([]uint64, rows)
	valA := []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}
	valB := []byte{0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xBB}
	for i := range b {
		if i%4 == 0 {
			b[i] = valA
		} else {
			b[i] = valB
		}
		v[i] = uint64(i)
	}
	tbl, err := store.Build("det", []store.Column{
		{Name: "d", Kind: store.Bytes, Bytes: b},
		{Name: "v", Kind: store.U64, U64: v},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: 2})
	ctx := context.Background()

	buf := append([]byte(nil), valA...) // the caller's reusable buffer
	mkPlan := func(constant []byte) *Plan {
		return &Plan{Table: tbl,
			Filters: []Filter{{Kind: FilterDetEq, Col: "d", Bytes: constant}},
			Aggs:    []Agg{{Kind: AggCount}}}
	}
	first, err := c.Run(ctx, mkPlan(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got := first.View()[0].Aggs[0].U64; got != rows/4 {
		t.Fatalf("fixture: valA count %d, want %d", got, rows/4)
	}
	copy(buf, valB) // reuse the buffer for the "next query"
	if _, err := c.Run(ctx, mkPlan(buf)); err != nil {
		t.Fatal(err)
	}
	// The original constant, in a fresh buffer, must hit the first entry
	// and still count valA rows.
	again, err := c.Run(ctx, mkPlan(append([]byte(nil), valA...)))
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := c.PlanCacheStats(); h != 1 {
		t.Fatalf("original constant did not hit (hits=%d)", h)
	}
	if got := again.View()[0].Aggs[0].U64; got != rows/4 {
		t.Fatalf("cached kernel compares against the mutated buffer: count %d, want %d", got, rows/4)
	}
}
