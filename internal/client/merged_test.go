package client

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// sub-results' identifier sections interleave — runs the plan Partial on each
// and merges, handing over the three sections as Merge leaves them, one part
// each. parts is the partition count it last dealt.
type splitBackend struct {
	*engine.Cluster
	parts int
}

func (b *splitBackend) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	subs := make([]*store.Table, 3)
	for k := range subs {
		subs[k] = &store.Table{Name: pl.Table.Name}
	}
	for i, p := range pl.Table.Parts {
		subs[i%3].Parts = append(subs[i%3].Parts, p)
	}
	b.parts = len(pl.Table.Parts)
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
	return engine.Merge(pl, partials)
}

// TestDecryptMergedResults: the rows Decrypt makes of a merged result — three
// interleaved section parts, each with its tags mapped to the merged groups —
// are the rows it makes of one engine's one-part section over the whole
// table, for plain and filtered sums, quadratic aggregates (two ASHE sums over
// one section), a DET group-by, an inflated group-by (DeflateGroups
// renumbering the parts again) and an aggregate mix on the merge's generic
// path. The PRF count is the single run's when the decryption sweeps a pad,
// whose span the parts share; taken a piece at a time it may exceed it by two
// values an ASHE sum for each place the deal cut a range of the single run's
// list, one partition from the next.
func TestDecryptMergedResults(t *testing.T) {
	p := salesFixture(t)
	ctx := context.Background()
	one := engine.NewCluster(engine.Config{Workers: 24})
	whole := reclusteredProxy(t, p, one)
	split := &splitBackend{Cluster: one}
	merged := &Proxy{ring: p.ring, cluster: split, tables: p.tables}
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
			got, err := merged.Query(ctx, sql, opts...)
			if err != nil {
				t.Fatalf("%s (inflate %d): %v", sql, inflate, err)
			}
			assertSameRows(t, sql, translate.Seabed, mustRows(t, want), mustRows(t, got))
			if slack := 2 * 2 * uint64(split.parts-1); got.PRFEvals < want.PRFEvals || got.PRFEvals > want.PRFEvals+slack {
				t.Errorf("%s (inflate %d): %d PRF evaluations, one engine's result took %d (+ at most %d)", sql, inflate, got.PRFEvals, want.PRFEvals, slack)
			}
		}
	}
}

// shardResults runs sql's plan, translated with opts, Partial on three
// contiguous identifier ranges of its table, each over a table of its own
// range, as a fleet's shards would.
func shardResults(t *testing.T, p *Proxy, cl *engine.Cluster, sql string, mode translate.Mode, opts translate.Options) (*translate.Translation, []*engine.Result) {
	t.Helper()
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(stmt.Query, p, p.Ring(), mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*engine.Result
	for _, sub := range tr.Server.Table.SplitRanges(3) {
		scoped := *tr.Server
		scoped.Table, scoped.Partial, scoped.Range = sub, true, &engine.IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
		res, err := cl.Run(context.Background(), &scoped)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, res)
	}
	return tr, partials
}

// TestRowsIgnoreShardOrder pins the contract that lets the engine leave
// groups in no key order: the coordinator's merge lists groups in the order
// the shards first name them, and the rows Decrypt makes of it do not depend
// on that order. The same three shard results are merged forward and in
// reverse, for a DET-keyed ASHE group-by, a Paillier sum and an inflated
// group-by that Decrypt deflates. Each shard lists its groups as its rows
// first name them — by code, where its table codes the key, or with one
// worker, through its one reducer — an order that differs from shard to
// shard, which the merges must then disagree on.
func TestRowsIgnoreShardOrder(t *testing.T) {
	p := salesFixture(t)
	cl := engine.NewCluster(engine.Config{Workers: 1})
	const gb = "SELECT hour, SUM(revenue), COUNT(*) FROM sales GROUP BY hour"
	for _, tc := range []struct {
		name string
		mode translate.Mode
		opts translate.Options
	}{
		{"det-ashe", translate.Seabed, translate.Options{Workers: 4}},
		{"paillier", translate.Paillier, translate.Options{Workers: 4}},
		{"inflated", translate.Seabed, translate.Options{Workers: 24, ExpectedGroups: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, partials := shardResults(t, p, cl, gb, tc.mode, tc.opts)
			if tc.opts.ExpectedGroups > 0 && !tr.Client.Inflated {
				t.Fatal("plan is not inflated")
			}
			reversed := slices.Clone(partials)
			slices.Reverse(reversed)
			var rows [2][]Row
			var keys [2][]byte
			for i, order := range [][]*engine.Result{partials, reversed} {
				merged, err := engine.Merge(tr.Server, order)
				if err != nil {
					t.Fatal(err)
				}
				keys[i] = merged.Cols.KeyArena
				out, err := Decrypt(tr, merged, p.Ring())
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = out.Rows
			}
			if bytes.Equal(keys[0], keys[1]) {
				t.Fatal("the reversed merge lists its groups in the same order: the case tests nothing")
			}
			if len(rows[0]) != 6 || !reflect.DeepEqual(rows[0], rows[1]) {
				t.Fatalf("rows depend on shard order:\nforward %+v\nreverse %+v", rows[0], rows[1])
			}
		})
	}
}

// TestDecryptRefusesDuplicateKeys: a result that holds one DET group key
// twice — which no merge, deflate or run produces — is a DuplicateKeyError,
// not two rows. The columns are decrypted directly, as a single daemon's
// result is.
func TestDecryptRefusesDuplicateKeys(t *testing.T) {
	p := salesFixture(t)
	cl := engine.NewCluster(engine.Config{Workers: 4})
	tr, partials := shardResults(t, p, cl, "SELECT hour, COUNT(*) FROM sales GROUP BY hour", translate.Seabed, translate.Options{Workers: 4})
	key := partials[0].Cols.KeyBytes(0)
	if partials[0].Cols.KeyKind != store.Bytes || len(tr.Server.Aggs) != 1 || tr.Server.Aggs[0].Kind != engine.AggCount {
		t.Fatalf("fixture: %v keys, aggregates %+v", partials[0].Cols.KeyKind, tr.Server.Aggs)
	}
	cols := &engine.GroupCols{
		KeyKind:  store.Bytes,
		KeyOff:   []uint64{0, uint64(len(key)), uint64(2 * len(key))},
		KeyArena: append(slices.Clone(key), key...),
		Rows:     []uint64{3, 4},
		Aggs:     []engine.AggCol{{Kind: engine.AggCount, Lane: []uint64{3, 4}}},
	}
	_, err := Decrypt(tr, &engine.Result{Cols: cols}, p.Ring())
	var dup *DuplicateKeyError
	if !errors.As(err, &dup) || dup.Key.Name != "hour" {
		t.Fatalf("err = %v, want a DuplicateKeyError naming an hour", err)
	}
	// The same key once decrypts.
	cols.KeyOff, cols.KeyArena, cols.Rows = cols.KeyOff[:2], key, cols.Rows[:1]
	cols.Aggs[0].Lane = cols.Aggs[0].Lane[:1]
	if _, err := Decrypt(tr, &engine.Result{Cols: cols}, p.Ring()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMergeToDecrypt measures what a fleet query pays between its last
// shard's frame and its rows: three framed sub-results decoded, merged by
// engine.Merge and decrypted — the dashboard's wide filtered sum (one list of
// tens of thousands of ranges), its dense group-by (6 groups, a run every
// identifier or so) and heavy_groupby's wide one (16,384 DET-keyed groups over
// 200,000 rows).
func BenchmarkMergeToDecrypt(b *testing.B) {
	p := salesProxyClicks(b, 50, 1<<14, translate.Seabed) // 200,000 rows
	ctx := context.Background()
	cl := engine.NewCluster(engine.Config{Workers: 12})
	for _, shape := range []struct{ name, sql string }{
		{"wide_sum", "SELECT SUM(revenue) FROM sales WHERE day > 8"},
		{"dense_gb", "SELECT hour, SUM(revenue) FROM sales GROUP BY hour"},
		{"wide_gb", "SELECT clicks, SUM(revenue) FROM sales GROUP BY clicks"},
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
				scoped.Table, scoped.Partial, scoped.Range = sub, true, &engine.IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
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

// TestKeyOrderSortsSignedKeys: integer group keys come out in signed order —
// negative, small, wide and extreme keys, so every byte of the radix sort
// takes a pass or is skipped — with each row's group beside its key, as a
// comparison sort orders them; and a key twice is a DuplicateKeyError naming
// it.
func TestKeyOrderSortsSignedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 24, 300, 20_000} {
		for _, spread := range []int64{50_000, 1 << 40, math.MaxInt64} {
			seen := map[int64]bool{}
			keys := make([]Value, 0, n)
			for len(keys) < n {
				k := rng.Int63n(spread)
				if rng.Intn(2) == 0 {
					k = -k - 1
				}
				if len(keys) == 0 && n > 2 {
					k = math.MinInt64
				}
				if !seen[k] {
					seen[k] = true
					keys = append(keys, Value{Kind: Int, I64: k})
				}
			}
			order, err := keyOrder(keys, n)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortFunc(want, func(a, b int32) int { return cmp.Compare(keys[a].I64, keys[b].I64) })
			if !slices.Equal(order, want) {
				t.Fatalf("%d keys over ±%d: order differs from a comparison sort", n, spread)
			}
			if n < 2 {
				continue
			}
			dup := append(slices.Clone(keys), keys[n/2])
			var de *DuplicateKeyError
			if _, err := keyOrder(dup, n+1); !errors.As(err, &de) || de.Key.I64 != keys[n/2].I64 {
				t.Fatalf("%d keys with one twice: %v, want a DuplicateKeyError naming %d", n, err, keys[n/2].I64)
			}
		}
	}
}
