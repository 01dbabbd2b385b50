package client

import (
	"context"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
	"seabed/internal/wire"
)

// splitBackend answers as a three-daemon fleet's coordinator does, in
// process: it deals the table's partitions round-robin into three
// sub-tables — the shape appended batches give a fleet's shards, so the
// sub-results' identifier lists interleave — runs the plan Partial on each
// and merges. With view set it hands the merged result over as rows, whose
// lists the row view encodes, instead of as the decoded columns Merge leaves.
type splitBackend struct {
	*engine.Cluster
	view bool
}

func (b *splitBackend) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	subs := make([]*store.Table, 3)
	for k := range subs {
		subs[k] = &store.Table{Name: pl.Table.Name}
	}
	for i, p := range pl.Table.Parts {
		subs[i%3].Parts = append(subs[i%3].Parts, p)
	}
	partials := make([]*engine.Result, len(subs))
	for k, sub := range subs {
		scoped := *pl
		scoped.Table, scoped.Partial = sub, true
		res, err := b.Cluster.Run(ctx, &scoped)
		if err != nil {
			return nil, err
		}
		partials[k] = res
	}
	merged, err := engine.Merge(pl, partials)
	if err != nil || !b.view {
		return merged, err
	}
	return &engine.Result{Groups: merged.View(), Scan: merged.Scan, Metrics: merged.Metrics}, nil
}

// TestDecryptMergedResults: the rows Decrypt makes of a merged result's
// decoded identifier lists are the rows it makes of the same lists encoded —
// by one engine over the whole table, and by the merged result's row view —
// for plain and filtered sums, quadratic aggregates (two ASHE sums over one
// list), a DET group-by, an inflated group-by (DeflateGroups reading decoded
// columns) and an aggregate mix on the merge's generic path.
func TestDecryptMergedResults(t *testing.T) {
	p := salesFixture(t)
	ctx := context.Background()
	one := engine.NewCluster(engine.Config{Workers: 24})
	whole := reclusteredProxy(t, p, one)
	decoded := &Proxy{ring: p.ring, cluster: &splitBackend{Cluster: one}, tables: p.tables}
	viewed := &Proxy{ring: p.ring, cluster: &splitBackend{Cluster: one, view: true}, tables: p.tables}
	for _, sql := range []string{
		"SELECT SUM(revenue) FROM sales",
		"SELECT SUM(revenue) FROM sales WHERE day > 15",
		"SELECT SUM(revenue) FROM sales WHERE country = 'India'",
		"SELECT VAR(clicks) FROM sales",
		"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		"SELECT hour, AVG(revenue) FROM sales GROUP BY hour",
		"SELECT MAX(revenue) FROM sales",
	} {
		for _, inflate := range []int{0, 4} {
			var opts []QueryOption
			if inflate > 0 {
				opts = append(opts, WithForceInflate(inflate))
			}
			want, err := whole.Query(ctx, sql, opts...)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for name, px := range map[string]*Proxy{"decoded columns": decoded, "row view": viewed} {
				got, err := px.Query(ctx, sql, opts...)
				if err != nil {
					t.Fatalf("%s over %s (inflate %d): %v", sql, name, inflate, err)
				}
				assertSameRows(t, sql+" over "+name, translate.Seabed, mustRows(t, want), mustRows(t, got))
				if got.PRFEvals != want.PRFEvals {
					t.Errorf("%s over %s (inflate %d): %d PRF evaluations, one engine's result took %d", sql, name, inflate, got.PRFEvals, want.PRFEvals)
				}
			}
		}
	}
}

// BenchmarkMergeToDecrypt measures what a fleet query pays between its last
// shard's frame and its rows: three framed sub-results decoded, merged by
// engine.Merge and decrypted — the dashboard's wide filtered sum (one list of
// tens of thousands of ranges) and its dense group-by (a sparse list per
// group). The merged identifier lists go from the merge to the PRF without
// passing through the codec.
func BenchmarkMergeToDecrypt(b *testing.B) {
	p := salesProxy(b, 50, translate.Seabed) // 200,000 rows
	ctx := context.Background()
	cl := engine.NewCluster(engine.Config{Workers: 12})
	for _, shape := range []struct{ name, sql string }{
		{"wide_sum", "SELECT SUM(revenue) FROM sales WHERE day > 8"},
		{"dense_gb", "SELECT hour, SUM(revenue) FROM sales GROUP BY hour"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			stmt, err := sqlparse.ParseStatement(shape.sql)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := translate.Translate(stmt.Query, p, p.Ring(), translate.Seabed, translate.Options{Workers: cl.Workers()})
			if err != nil {
				b.Fatal(err)
			}
			pl := tr.Server
			var frames [][]byte
			for _, sub := range pl.Table.SplitRanges(3) {
				scoped := *pl
				scoped.Partial, scoped.Range = true, &engine.IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
				res, err := cl.Run(ctx, &scoped)
				if err != nil {
					b.Fatal(err)
				}
				frame, err := wire.EncodeResult(pl.Codec.Name(), res, nil, wire.Version)
				if err != nil {
					b.Fatal(err)
				}
				frames = append(frames, frame)
			}
			var rows int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				partials := make([]*engine.Result, len(frames))
				for k, frame := range frames {
					if _, partials[k], _, err = wire.DecodeResult(frame, wire.Version); err != nil {
						b.Fatal(err)
					}
				}
				merged, err := engine.Merge(pl, partials)
				if err != nil {
					b.Fatal(err)
				}
				out, err := Decrypt(tr, merged, p.Ring())
				if err != nil {
					b.Fatal(err)
				}
				rows = len(out.Rows)
			}
			if rows == 0 {
				b.Fatal("decrypted no rows")
			}
		})
	}
}
