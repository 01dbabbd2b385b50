package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"seabed/internal/ashe"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
)

var padRing = MustNewKeyRing([]byte("pad-property-master-secret"))

// padValue is the plaintext every fixture encrypts under identifier id.
func padValue(id uint64) uint64 { return id*2654435761 + 7 }

// padShape is one draw of an ASHE aggregate column's identifier lists.
type padShape struct {
	name  string
	lists [][]idlist.Range
}

// randomShape assigns identifiers from start, kept with probability 1/stride,
// to groups in runs of up to maxRun, and sometimes repeats a run in a second
// group's list (a multiset's duplicate).
func randomShape(rng *rand.Rand, groups int, start, n uint64, stride, maxRun int) padShape {
	lists := make([][]idlist.Range, groups)
	for id := start; id < start+n; {
		run := uint64(1 + rng.Intn(maxRun))
		if rng.Intn(stride) == 0 {
			g := rng.Intn(groups)
			r := idlist.Range{Lo: id, Hi: min(id+run-1, start+n-1)}
			lists[g] = append(lists[g], r)
			if rng.Intn(50) == 0 {
				h := rng.Intn(groups)
				lists[h] = append(lists[h], r)
			}
		}
		id += run
	}
	return padShape{name: fmt.Sprintf("%d groups from %d over %d, 1 in %d, runs ≤ %d", groups, start, n, stride, maxRun), lists: lists}
}

// padCols lays a shape out as a result's column set, in the decoded form or
// encoded under codec, each group's body the ASHE sum of its identifiers'
// padValues, and returns the plaintext sums.
func padCols(t *testing.T, k *ashe.Key, s padShape, codec idlist.Codec) (*engine.GroupCols, []uint64) {
	t.Helper()
	n := len(s.lists)
	col := engine.AggCol{Kind: engine.AggAsheSum, Lane: make([]uint64, n)}
	want := make([]uint64, n)
	if codec == nil {
		col.RangeOff = []uint64{0}
	} else {
		col.IDOff = []uint64{0}
	}
	for g, list := range s.lists {
		for _, r := range list {
			for id := max(r.Lo, 1); id <= r.Hi; id++ { // no body can be had under 0
				col.Lane[g] += k.EncryptBody(padValue(id), id)
				want[g] += padValue(id)
			}
		}
		if codec == nil {
			col.Ranges = append(col.Ranges, list...)
			col.RangeOff = append(col.RangeOff, uint64(len(col.Ranges)))
			continue
		}
		var err error
		if col.IDs, err = codec.AppendEncode(col.IDs, idlist.View(list)); err != nil {
			t.Fatal(err)
		}
		col.IDOff = append(col.IDOff, uint64(len(col.IDs)))
	}
	return &engine.GroupCols{KeyKind: store.U64, KeyU64: make([]uint64, n), Rows: make([]uint64, n), Aggs: []engine.AggCol{col}}, want
}

// padSums decrypts the column through the proxy's group path and reports the
// sums, the PRF values computed and whether it swept a pad.
func padSums(t *testing.T, cols *engine.GroupCols, codec idlist.Codec, s padShape) ([]uint64, uint64, bool) {
	t.Helper()
	if codec == nil {
		codec = idlist.Default
	}
	d := newDecrypter(padRing, codec)
	sums, err := d.asheSums(&translate.Output{Agg: 0, SourceCol: "c"}, cols)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	lo, hi, ranges, sweepable := uint64(1<<64-1), uint64(0), uint64(0), true
	for _, list := range s.lists {
		for _, r := range list {
			lo, hi, ranges = min(lo, r.Lo), max(hi, r.Hi), ranges+1
		}
		sweepable = sweepable && ashe.Sweepable(list)
	}
	padded := ranges > 0 && sweepable && ashe.PadPays(lo, hi, 2*ranges)
	want := 2 * ranges
	if padded {
		want = hi - lo + 2
	}
	if d.prfEvals != want {
		t.Errorf("%s: %d PRF values, want %d (pad %v)", s.name, d.prfEvals, want, padded)
	}
	return sums, d.prfEvals, padded
}

// TestPadDecryptMatchesPointwise is the pad path's property: over random
// identifier lists — singletons, long runs, one range, duplicates; spans from
// identifier 1 (so F(0)) or later, starting and ending on odd and even
// identifiers and crossing the sweep's windows; 24 groups and 16k — an ASHE
// aggregate column decrypts to its plaintext sums whether it sweeps one pad
// over its span or takes the per-range PRF, and a decoded column and the same
// lists encoded take the same path with the same PRF count.
func TestPadDecryptMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	k := padRing.Ashe("c")
	shapes := []padShape{
		{name: "one range", lists: [][]idlist.Range{{{Lo: 5, Hi: 90_000}}}},
		{name: "one short range from 1", lists: [][]idlist.Range{{{Lo: 1, Hi: 4}}}},
		{name: "one identifier", lists: [][]idlist.Range{{{Lo: 8, Hi: 8}}}},
		{name: "empty groups", lists: [][]idlist.Range{nil, {{Lo: 3, Hi: 3}}, nil}},
		randomShape(rng, 24, 1, 200_000, 1, 1),    // the dense group-by: singletons
		randomShape(rng, 16_384, 1, 60_000, 1, 1), // the wide group-by
		randomShape(rng, 24, 1, 50_000, 1, 2_000), // long runs: per-range PRF
		randomShape(rng, 24, 2, 9_001, 3, 4),
		randomShape(rng, 5, 1, 40_000, 40, 1), // too sparse for a pad
	}
	for i := 0; i < 24; i++ {
		groups := []int{1, 3, 24, 300}[rng.Intn(4)]
		start := uint64(1 + rng.Intn(6))
		n := uint64(1 + rng.Intn(3*4096+50))
		shapes = append(shapes, randomShape(rng, groups, start, n, 1+rng.Intn(12), 1+rng.Intn(8)))
	}
	var pads, points int
	for _, s := range shapes {
		cols, want := padCols(t, k, s, nil)
		got, evals, padded := padSums(t, cols, nil, s)
		for g := range want {
			if got[g] != want[g] {
				t.Fatalf("%s: group %d decrypts to %d, want %d (pad %v)", s.name, g, got[g], want[g], padded)
			}
		}
		if padded {
			pads++
		} else {
			points++
		}
		for _, codec := range []idlist.Codec{idlist.RangeVB, idlist.RangeVBDiffDeflateFast} {
			ecols, _ := padCols(t, k, s, codec)
			egot, eevals, epadded := padSums(t, ecols, codec, s)
			if !slices.Equal(egot, got) || eevals != evals || epadded != padded {
				t.Fatalf("%s under %s: sums equal %v, %d PRF values (pad %v); decoded took %d (pad %v)",
					s.name, codec.Name(), slices.Equal(egot, got), eevals, epadded, evals, padded)
			}
		}
	}
	if pads < 5 || points < 3 {
		t.Fatalf("%d shapes took the pad and %d the per-range PRF: the property needs both", pads, points)
	}
}

// scanFixture is one chunk of an ASHE column over ids and a plaintext column
// beside it: the bodies of padValue(id) and the ids themselves.
func scanFixture(k *ashe.Key, ids []uint64) []engine.ScanRow {
	bodies := make([]uint64, len(ids))
	for i, id := range ids {
		if id != 0 {
			bodies[i] = k.EncryptBody(padValue(id), id)
		}
	}
	return (&engine.ScanChunk{IDs: ids, Cols: []store.Column{
		{Kind: store.U64, U64: bodies},
		{Kind: store.U64, U64: slices.Clone(ids)},
	}}).Rows()
}

// TestScanPadMatchesPointwise: scan rows decrypt column by column to their
// plaintexts, whether a window of ScanChunkRows rows takes a pad over its
// identifiers' span (dense, ascending or not) or the per-row PRF (sparse),
// and with PRF counts that say which.
func TestScanPadMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	k := padRing.Ashe("c")
	cols := []translate.ScanCol{{Name: "a", Ashe: true, SourceCol: "c"}, {Name: "id"}}
	for _, c := range []struct {
		name   string
		n      int
		start  uint64
		stride int
		pad    bool
	}{
		{"dense from 1", 3000, 1, 1, true},
		{"dense from an even id", 1024, 2, 2, true},
		{"one in five", 2500, 7, 5, true},
		{"one in forty", 1500, 1, 40, false},
	} {
		ids := make([]uint64, 0, c.n)
		for id := c.start; len(ids) < c.n; id++ {
			if rng.Intn(c.stride) == 0 {
				ids = append(ids, id)
			}
		}
		if c.name == "one in five" { // out of order inside each window
			for w := 0; w < len(ids); w += engine.ScanChunkRows {
				win := ids[w:min(w+engine.ScanChunkRows, len(ids))]
				rng.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
			}
		}
		d := newDecrypter(padRing, idlist.Default)
		d.resolveScan(cols)
		vals, err := d.scanRows(cols, scanFixture(k, ids))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var wantEvals uint64
		for w := 0; w < len(ids); w += engine.ScanChunkRows {
			win := ids[w:min(w+engine.ScanChunkRows, len(ids))]
			lo, hi := slices.Min(win), slices.Max(win)
			if ashe.PadPays(lo, hi, 2*uint64(len(win))) != c.pad {
				t.Fatalf("%s: fixture window [%d,%d] of %d rows does not take pad=%v", c.name, lo, hi, len(win), c.pad)
			}
			if c.pad {
				wantEvals += hi - lo + 2
			} else {
				wantEvals += 2 * uint64(len(win))
			}
		}
		for i, id := range ids {
			if row := scanRow(vals, len(cols), i); uint64(row.Values[0].I64) != padValue(id) || row.Values[1].I64 != int64(id) {
				t.Fatalf("%s: row %d (id %d) = %+v, want %d", c.name, i, id, row.Values, padValue(id))
			}
		}
		if d.prfEvals != wantEvals {
			t.Errorf("%s: %d PRF values, want %d", c.name, d.prfEvals, wantEvals)
		}
	}
}

// chunkBackend streams one fixed chunk of scan rows in place of a run's.
type chunkBackend struct {
	*engine.Cluster
	rows []engine.ScanRow
}

func (b chunkBackend) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	if err := sink(b.rows); err != nil {
		return nil, err
	}
	return &engine.Result{}, nil
}

// TestReservedIdentifierOnPadPaths: identifier 0 is refused on the paths that
// would otherwise compute a pad from F(−1) — a dense column whose one list
// starts at 0, in either form or as a bitmap, and a dense scan chunk holding
// identifier 0, materialized and streamed — with a ReservedIDError, not a
// panic.
func TestReservedIdentifierOnPadPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	k := padRing.Ashe("c")
	s := randomShape(rng, 24, 1, 5_000, 1, 1)
	s.lists[5] = append([]idlist.Range{{Lo: 0, Hi: 0}}, s.lists[5]...)
	var rid *ReservedIDError
	for _, codec := range []idlist.Codec{nil, idlist.RangeVBDiff} {
		cols, _ := padCols(t, k, padShape{name: s.name, lists: s.lists}, codec)
		if codec == nil {
			codec = idlist.Default
		}
		d := newDecrypter(padRing, codec)
		if _, err := d.asheSums(&translate.Output{Agg: 0, SourceCol: "c"}, cols); !errors.As(err, &rid) || !strings.Contains(rid.Where, "aggregate 0") {
			t.Errorf("dense column under %s with a list from 0: err = %v, want a ReservedIDError naming aggregate 0", codec.Name(), err)
		}
		if d.prfEvals != 0 {
			t.Errorf("dense column under %s: %d PRF values computed before the refusal", codec.Name(), d.prfEvals)
		}
	}

	// A dense list from identifier 0, which the default codec writes as a
	// bitmap (mode byte 1, docs/FORMAT.md §3.2) and decodes — the codec has
	// no reason to refuse identifier 0 — is refused here.
	var dense idlist.List
	for id := uint64(0); id < 20_000; id++ {
		if id == 0 || rng.Intn(2) == 0 {
			dense.Append(id)
		}
	}
	cols, _ := padCols(t, k, padShape{name: "bitmap from 0", lists: [][]idlist.Range{dense.Ranges()}}, idlist.Default)
	if mode := cols.Aggs[0].EncodedIDs(0)[0]; mode != 1 {
		t.Fatalf("fixture: the default codec wrote mode %d, want a bitmap", mode)
	}
	if _, err := newDecrypter(padRing, idlist.Default).asheSums(&translate.Output{Agg: 0, SourceCol: "c"}, cols); !errors.As(err, &rid) || !strings.Contains(rid.Where, "aggregate 0") {
		t.Errorf("bitmap from identifier 0: err = %v, want a ReservedIDError naming aggregate 0", err)
	}

	p := salesFixture(t)
	const scan = "SELECT revenue FROM sales WHERE day > 29"
	stmt, err := sqlparse.ParseStatement(scan)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(stmt.Query, p, p.Ring(), translate.Seabed, translate.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i)
	}
	rows := scanFixture(k, ids)
	if _, err := Decrypt(tr, &engine.Result{Scan: rows}, p.Ring()); !errors.As(err, &rid) || !strings.Contains(rid.Where, "scan row 0") {
		t.Errorf("materialized dense chunk holding id 0: err = %v, want a ReservedIDError naming the row", err)
	}
	zp := &Proxy{ring: p.ring, cluster: chunkBackend{engine.NewCluster(engine.Config{Workers: 2}), rows}, tables: p.tables}
	res, err := zp.Query(context.Background(), scan, WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); !errors.As(err, &rid) || !strings.Contains(rid.Where, "scan row 0") {
		t.Errorf("streamed dense chunk holding id 0: err = %v, want a ReservedIDError naming the row", err)
	}
}

// TestPooledPadsUnderConcurrentQueries: queries on several goroutines share
// the pool of pad scratch — dense group-bys that sweep their columns, scans
// (materialized and streamed) that pad their windows — and each gets the
// answer it gets alone.
func TestPooledPadsUnderConcurrentQueries(t *testing.T) {
	p := salesFixture(t)
	type query struct {
		sql    string
		stream bool
	}
	queries := []query{
		{"SELECT hour, SUM(revenue) FROM sales GROUP BY hour", false},
		{"SELECT revenue, hour FROM sales WHERE day > 3", false},
		{"SELECT revenue, hour FROM sales WHERE day > 3", true},
		{"SELECT SUM(revenue) FROM sales WHERE day > 10", false},
	}
	run := func(q query) (string, error) {
		var opts []QueryOption
		if q.stream {
			opts = append(opts, WithStreaming())
		}
		res, err := p.Query(context.Background(), q.sql, opts...)
		if err != nil {
			return "", err
		}
		rows, err := res.All()
		var b strings.Builder
		for _, r := range rows {
			if r.Key != nil {
				fmt.Fprint(&b, *r.Key)
			}
			fmt.Fprintln(&b, r.Values)
		}
		return b.String(), err
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = run(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (w + i) % len(queries)
				got, err := run(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[qi] {
					t.Errorf("%q on goroutine %d: rows differ from the query run alone", queries[qi].sql, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}
