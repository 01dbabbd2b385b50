// Package workload generates the datasets and query sets of Seabed's
// evaluation (§5, §6): the synthetic microbenchmark tables, the AmpLab Big
// Data Benchmark (Rankings / UserVisits), a synthetic stand-in for the
// proprietary advertising-analytics application, the month-long ad-analytics
// query log, and the MDX function catalog of Appendix B.
//
// Every generator is seeded and deterministic, so experiments are exactly
// reproducible.
package workload

import (
	"math/rand"

	"seabed/internal/schema"
	"seabed/internal/store"
)

// SyntheticSchema describes the §6.1 microbenchmark table: one sensitive
// measure v, one group dimension g (cardinality given), and one range
// dimension o.
func SyntheticSchema(groups int) *schema.Table {
	return &schema.Table{
		Name: "synth",
		Columns: []schema.Column{
			{Name: "v", Type: schema.Int64, Sensitive: true},
			{Name: "g", Type: schema.Int64, Sensitive: true, Cardinality: groups},
			{Name: "o", Type: schema.Int64, Sensitive: true},
		},
	}
}

// SyntheticQueries is the sample query set matching SyntheticSchema.
func SyntheticQueries() []string {
	return []string{
		"SELECT SUM(v) FROM synth",
		"SELECT g, SUM(v) FROM synth GROUP BY g",
		"SELECT SUM(v) FROM synth WHERE o > 100",
	}
}

// Synthetic generates the microbenchmark source table: values uniform in
// [0, 10^6), group ids uniform in [0, groups), range values uniform in
// [0, 10^6).
func Synthetic(rows, groups int, seed int64) (*store.Table, error) {
	if groups < 1 {
		groups = 1
	}
	rng := rand.New(rand.NewSource(seed))
	v := make([]uint64, rows)
	g := make([]uint64, rows)
	o := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		v[i] = uint64(rng.Intn(1_000_000))
		g[i] = uint64(rng.Intn(groups))
		o[i] = uint64(rng.Intn(1_000_000))
	}
	return store.Build("synth", []store.Column{
		{Name: "v", Kind: store.U64, U64: v},
		{Name: "g", Kind: store.U64, U64: g},
		{Name: "o", Kind: store.U64, U64: o},
	}, 1)
}

// ScaleRows resolves a paper-scale row count (e.g. 1.75 billion) to a
// laptop-scale count, preserving ratios across datasets: rows = paperRows /
// divisor, floored at 1000.
func ScaleRows(paperRows uint64, divisor uint64) int {
	if divisor == 0 {
		divisor = 1
	}
	rows := paperRows / divisor
	if rows < 1000 {
		rows = 1000
	}
	return int(rows)
}
