// Loopback end-to-end tests, each at R = 1 (sharding without redundancy) and
// R = 2: the full Create Plan / Upload Data / Query Data flow driven through
// a fleet over three live internal/server daemons on loopback TCP sockets,
// asserting results identical to a single in-process engine of the same
// total capacity — for every translate.Mode, under concurrent queries and
// appends, streamed, and traced (run with -race).
package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/planner"
	"seabed/internal/remote"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
)

const (
	numDaemons       = 3
	workersPerDaemon = 4
	fixtureRows      = 2000
)

// eachR runs f as one subtest per replication factor.
func eachR(t *testing.T, f func(t *testing.T, r int)) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) { f(t, r) })
	}
}

// dialTestFleet launches numDaemons daemons, each with its own engine config,
// and dials an R-replica fleet (hedging off) across them.
func dialTestFleet(t *testing.T, r int, cfgFor func(i int) engine.Config) (*Cluster, []*daemon) {
	t.Helper()
	daemons := make([]*daemon, numDaemons)
	addrs := make([]string, numDaemons)
	for i := range daemons {
		daemons[i] = startDaemonAt(t, "", i, numDaemons, cfgFor(i))
		addrs[i] = daemons[i].addr
	}
	c, err := Dial(addrs, Options{Replicas: r})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, daemons
}

func uniformCfg(int) engine.Config { return engine.Config{Workers: workersPerDaemon} }

// fixtureModes covers the paper's three systems.
var fixtureModes = []translate.Mode{translate.NoEnc, translate.Seabed, translate.Paillier}

// fixture builds a sales fact table plus a stores dimension table (for
// broadcast joins) on an in-process proxy whose cluster matches the fleet's
// total capacity, so both paths translate queries identically. Tables are
// encrypted exactly once; the fleet twin shares them via WithCluster +
// SyncTables, so any result divergence is the scatter-gather path's fault.
func fixture(t *testing.T) *client.Proxy {
	t.Helper()
	rng := rand.New(rand.NewSource(97))

	countries := []string{"USA", "Canada", "India", "Chile", "Japan"}
	countryFreq := []uint64{900, 750, 125, 125, 100}
	countryCol := make([]string, 0, fixtureRows)
	for v, c := range countryFreq {
		for i := uint64(0); i < c; i++ {
			countryCol = append(countryCol, countries[v])
		}
	}
	rng.Shuffle(len(countryCol), func(a, b int) { countryCol[a], countryCol[b] = countryCol[b], countryCol[a] })

	revenue := make([]uint64, fixtureRows)
	clicks := make([]uint64, fixtureRows)
	day := make([]uint64, fixtureRows)
	hour := make([]uint64, fixtureRows)
	storeID := make([]uint64, fixtureRows)
	for i := 0; i < fixtureRows; i++ {
		revenue[i] = uint64(rng.Intn(10000))
		clicks[i] = uint64(rng.Intn(50))
		day[i] = uint64(rng.Intn(31) + 1)
		hour[i] = uint64(rng.Intn(6))
		storeID[i] = uint64(rng.Intn(8))
	}

	sales := &schema.Table{
		Name: "sales",
		Columns: []schema.Column{
			{Name: "revenue", Type: schema.Int64, Sensitive: true},
			{Name: "clicks", Type: schema.Int64, Sensitive: true},
			{Name: "country", Type: schema.String, Sensitive: true, Cardinality: 5,
				Freqs: countryFreq, Values: countries},
			{Name: "day", Type: schema.Int64, Sensitive: true},
			{Name: "hour", Type: schema.Int64, Sensitive: true},
			{Name: "store", Type: schema.Int64},
		},
	}
	salesSamples := []string{
		"SELECT SUM(revenue) FROM sales WHERE country = 'India'",
		"SELECT COUNT(*) FROM sales WHERE country = 'USA'",
		"SELECT VAR(clicks) FROM sales",
		"SELECT SUM(revenue) FROM sales WHERE day > 15",
		"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		"SELECT country, COUNT(*) FROM sales GROUP BY country",
		"SELECT MIN(revenue) FROM sales",
		"SELECT MEDIAN(revenue) FROM sales",
	}

	cluster := engine.NewCluster(engine.Config{Workers: numDaemons * workersPerDaemon})
	proxy, err := client.NewProxy([]byte("fleet-test-master-secret-0123456"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Parts = 9
	if _, err := proxy.CreatePlan(sales, salesSamples, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	src, err := store.Build("sales", []store.Column{
		{Name: "revenue", Kind: store.U64, U64: revenue},
		{Name: "clicks", Kind: store.U64, U64: clicks},
		{Name: "country", Kind: store.Str, Str: countryCol},
		{Name: "day", Kind: store.U64, U64: day},
		{Name: "hour", Kind: store.U64, U64: hour},
		{Name: "store", Kind: store.U64, U64: storeID},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Ring().EnsurePaillier(256); err != nil { // small key: test speed
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "sales", src, fixtureModes...); err != nil {
		t.Fatal(err)
	}

	// Broadcast-join dimension: store id → region, plaintext in every mode.
	stores := &schema.Table{
		Name: "stores",
		Columns: []schema.Column{
			{Name: "sid", Type: schema.Int64},
			{Name: "region", Type: schema.String},
		},
	}
	if _, err := proxy.CreatePlan(stores, []string{"SELECT COUNT(*) FROM stores"}, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	regions := []string{"west", "east", "west", "north", "east", "west", "south", "north"}
	sids := make([]uint64, len(regions))
	for i := range sids {
		sids[i] = uint64(i)
	}
	dim, err := store.Build("stores", []store.Column{
		{Name: "sid", Kind: store.U64, U64: sids},
		{Name: "region", Kind: store.Str, Str: regions},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "stores", dim, fixtureModes...); err != nil {
		t.Fatal(err)
	}
	return proxy
}

// fleetTwin binds the fixture to a 3-daemon, R-replica loopback fleet and
// ships it the tables.
func fleetTwin(t *testing.T, local *client.Proxy, r int) (*client.Proxy, []*daemon) {
	t.Helper()
	c, daemons := dialTestFleet(t, r, uniformCfg)
	if c.Workers() != numDaemons*workersPerDaemon {
		t.Fatalf("fleet workers = %d, want %d", c.Workers(), numDaemons*workersPerDaemon)
	}
	fp := local.WithCluster(c)
	if err := fp.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}
	return fp, daemons
}

// fleetQueries is the acceptance query set: plain and filtered aggregates,
// variance, group-by (U64 and DET string keys), min/max, median, a broadcast
// join, and a scan.
var fleetQueries = []struct {
	sql   string
	modes []translate.Mode // nil = all fixture modes
}{
	{"SELECT SUM(revenue) FROM sales", nil},
	{"SELECT COUNT(*) FROM sales", nil},
	{"SELECT AVG(revenue) FROM sales", nil},
	{"SELECT SUM(revenue) FROM sales WHERE country = 'Canada'", nil},
	{"SELECT SUM(revenue) FROM sales WHERE country = 'India'", nil},
	{"SELECT COUNT(*) FROM sales WHERE country = 'Chile'", nil},
	{"SELECT SUM(revenue) FROM sales WHERE day > 15", nil},
	{"SELECT SUM(revenue) FROM sales WHERE day >= 10 AND day <= 20", nil},
	{"SELECT VAR(clicks) FROM sales", nil},
	{"SELECT STDDEV(clicks) FROM sales", nil},
	{"SELECT hour, SUM(revenue) FROM sales GROUP BY hour", nil},
	{"SELECT hour, AVG(revenue) FROM sales GROUP BY hour", nil},
	{"SELECT country, COUNT(*) FROM sales GROUP BY country", nil},
	{"SELECT MIN(revenue) FROM sales", nil},
	{"SELECT MAX(revenue) FROM sales", nil},
	// MEDIAN is supported in NoEnc and Seabed modes (the OPE+ASHE path).
	{"SELECT MEDIAN(revenue) FROM sales", []translate.Mode{translate.NoEnc, translate.Seabed}},
	// Broadcast join: every range needs the whole stores relation.
	{"SELECT SUM(revenue) FROM sales JOIN stores ON store = sid WHERE region = 'west'", nil},
	{"SELECT COUNT(*) FROM sales JOIN stores ON store = sid WHERE region = 'east'", nil},
	// Scan: rows re-sort by identifier at the gather.
	{"SELECT revenue FROM sales WHERE day > 29", nil},
}

// mustRows runs a query and returns its decrypted rows.
func mustRows(t *testing.T, p *client.Proxy, sql string, mode translate.Mode, opts ...client.QueryOption) []client.Row {
	t.Helper()
	res, err := p.Query(context.Background(), sql, append([]client.QueryOption{client.WithMode(mode)}, opts...)...)
	if err != nil {
		t.Fatalf("%v %q: %v", mode, sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%v %q: %v", mode, sql, err)
	}
	return rows
}

// TestFleetAllModesEndToEnd is the acceptance gate: every query, in every
// mode, decrypts to rows identical to the single in-process engine's.
func TestFleetAllModesEndToEnd(t *testing.T) {
	local := fixture(t)
	eachR(t, func(t *testing.T, r int) {
		twin, _ := fleetTwin(t, local, r)
		for _, q := range fleetQueries {
			modes := q.modes
			if modes == nil {
				modes = fixtureModes
			}
			for _, mode := range modes {
				want := mustRows(t, local, q.sql, mode)
				got := mustRows(t, twin, q.sql, mode)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v %q: fleet rows differ from in-process\n got %+v\nwant %+v", mode, q.sql, got, want)
				}
			}
		}
	})
}

// rangeRows sums the rows daemon d holds of base's per-range refs, and counts
// those refs.
func rangeRows(d *daemon, base string) (rows uint64, refs int) {
	for _, ts := range d.srv.Stats().Tables {
		if b, _, all, ok := splitRangeRef(ts.Ref); ok && !all && b == base {
			rows += ts.Rows
			refs++
		}
	}
	return rows, refs
}

// TestFleetBalance asserts the range partitioner spreads uploads evenly:
// every daemon holds R balanced ranges of every mode's physical table, and
// every daemon executes every scattered query.
func TestFleetBalance(t *testing.T) {
	local := fixture(t)
	eachR(t, func(t *testing.T, r int) {
		twin, daemons := fleetTwin(t, local, r)
		mustRows(t, twin, "SELECT COUNT(*) FROM sales", translate.Seabed)

		for _, mode := range fixtureModes {
			ref := client.TableRef("sales", mode)
			var total uint64
			for i, d := range daemons {
				rows, refs := rangeRows(d, ref)
				if refs != r {
					t.Errorf("daemon %d hosts %d ranges of %q, want %d", i, refs, ref, r)
				}
				// 2000 rows over 3 ranges: 667/667/666 each.
				if lo, hi := uint64(r*(fixtureRows/numDaemons)), uint64(r*(fixtureRows/numDaemons+1)); rows < lo || rows > hi {
					t.Errorf("daemon %d holds %d rows of %q, want %d–%d", i, rows, ref, lo, hi)
				}
				total += rows
			}
			if total != uint64(r*fixtureRows) {
				t.Errorf("%q rows across daemons = %d, want %d", ref, total, r*fixtureRows)
			}
		}
		for i, d := range daemons {
			if st := d.srv.Stats(); st.Runs == 0 {
				t.Errorf("daemon %d executed no plans; scatter is not reaching it", i)
			} else if st.Errors != 0 {
				t.Errorf("daemon %d reported %d request errors", i, st.Errors)
			}
		}
	})
}

// TestFleetConcurrentQueries fans queries out over parallel goroutines so the
// per-daemon pools, the scatter fan-out, and the proxy-side merge all run
// concurrently.
func TestFleetConcurrentQueries(t *testing.T) {
	local := fixture(t)
	type workItem struct {
		sql  string
		mode translate.Mode
		want []client.Row
	}
	var work []workItem
	for _, q := range fleetQueries {
		for _, mode := range []translate.Mode{translate.NoEnc, translate.Seabed} {
			skip := q.modes != nil
			for _, m := range q.modes {
				if m == mode {
					skip = false
				}
			}
			if skip {
				continue
			}
			work = append(work, workItem{q.sql, mode, mustRows(t, local, q.sql, mode)})
		}
	}
	eachR(t, func(t *testing.T, r int) {
		twin, _ := fleetTwin(t, local, r)
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range work {
					w := work[(i+g)%len(work)]
					res, err := twin.Query(context.Background(), w.sql, client.WithMode(w.mode))
					if err != nil {
						errs <- err
						return
					}
					rows, err := res.All()
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(rows, w.want) {
						errs <- fmt.Errorf("concurrent fleet query diverged: %v %s", w.mode, w.sql)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestFleetAppendRouting verifies append batches split across ranges: results
// stay identical to in-process, and every daemon's slice grows.
func TestFleetAppendRouting(t *testing.T) {
	eachR(t, func(t *testing.T, r int) {
		local := fixture(t) // appends grow the shared tables: one fixture per R
		twin, daemons := fleetTwin(t, local, r)
		const batchRows = 1000
		batch := salesBatch(t, rand.New(rand.NewSource(31)))
		// Append through the fleet-bound proxy: the encrypted batch splits
		// into per-range identifier slices on the wire and also grows the
		// shared local tables, so the in-process twin sees the same data.
		if err := twin.Append(context.Background(), "sales", batch, translate.Seabed, translate.NoEnc); err != nil {
			t.Fatal(err)
		}

		for _, sql := range []string{
			"SELECT COUNT(*) FROM sales",
			"SELECT SUM(revenue) FROM sales",
			"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
			"SELECT revenue FROM sales WHERE day > 29",
		} {
			for _, mode := range []translate.Mode{translate.NoEnc, translate.Seabed} {
				want := mustRows(t, local, sql, mode)
				got := mustRows(t, twin, sql, mode)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v %q after append: fleet rows differ\n got %+v\nwant %+v", mode, sql, got, want)
				}
			}
		}

		// Every daemon's Seabed slice must have grown by a balanced share of
		// the batch (the encrypted batch may exceed batchRows if SPLASHE
		// balancing added dummy rows, so compare against the actual
		// encrypted growth).
		enc, err := local.Table("sales", translate.Seabed)
		if err != nil {
			t.Fatal(err)
		}
		ref := client.TableRef("sales", translate.Seabed)
		var total uint64
		for i, d := range daemons {
			if st := d.srv.Stats(); st.Appends == 0 {
				t.Errorf("daemon %d received no append frames", i)
			}
			rows, _ := rangeRows(d, ref)
			total += rows
			if rows <= uint64(r*(fixtureRows/numDaemons+1)) {
				t.Errorf("daemon %d did not grow: %d rows of %q", i, rows, ref)
			}
		}
		if total != uint64(r)*enc.NumRows() {
			t.Errorf("%q rows across daemons = %d, want %d", ref, total, uint64(r)*enc.NumRows())
		}
	})
}

// salesBatch builds a 1,000-row batch for the sales fixture. It must roughly
// match the planned value distribution so enhanced SPLASHE balancing has dummy
// rows to work with (§3.5), so it mirrors the fixture's skew at half its size.
func salesBatch(t *testing.T, rng *rand.Rand) *store.Table {
	t.Helper()
	const batchRows = 1000
	country := make([]string, 0, batchRows)
	for v, c := range []int{450, 375, 63, 62, 50} {
		for i := 0; i < c; i++ {
			country = append(country, []string{"USA", "Canada", "India", "Chile", "Japan"}[v])
		}
	}
	rng.Shuffle(len(country), func(a, b int) { country[a], country[b] = country[b], country[a] })
	u64s := func(f func(i int) uint64) []uint64 {
		out := make([]uint64, batchRows)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	batch, err := store.Build("sales", []store.Column{
		{Name: "revenue", Kind: store.U64, U64: u64s(func(i int) uint64 { return uint64(rng.Intn(10000)) })},
		{Name: "clicks", Kind: store.U64, U64: u64s(func(i int) uint64 { return uint64(rng.Intn(50)) })},
		{Name: "country", Kind: store.Str, Str: country},
		{Name: "day", Kind: store.U64, U64: u64s(func(i int) uint64 { return uint64(rng.Intn(31) + 1) })},
		{Name: "hour", Kind: store.U64, U64: u64s(func(i int) uint64 { return uint64(rng.Intn(6)) })},
		{Name: "store", Kind: store.U64, U64: u64s(func(i int) uint64 { return uint64(rng.Intn(8)) })},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

// TestFleetGroupedSumsAcrossAppends: grouped ASHE sums stay exact as appends
// interleave the ranges. AppendTable splits every batch across the ranges, so
// after each append every daemon's identifiers interleave with the others',
// and the merged identifier section is three parts whose spans overlap. After
// each of three appends, group-bys by a plain and a DET key, filtered and
// not, with one and two ASHE sums, and an inflated group-by that the client
// deflates, decrypt to the in-process engine's rows, at R=1 and R=2 — never
// with fewer PRF values: the parts share its span, and only add pieces.
func TestFleetGroupedSumsAcrossAppends(t *testing.T) {
	queries := []struct {
		sql  string
		opts []client.QueryOption
	}{
		{"SELECT hour, SUM(revenue) FROM sales GROUP BY hour", nil},
		{"SELECT country, SUM(revenue), AVG(clicks) FROM sales GROUP BY country", nil},
		{"SELECT hour, SUM(revenue) FROM sales WHERE day > 15 GROUP BY hour", nil},
		{"SELECT hour, VAR(clicks) FROM sales GROUP BY hour", nil},
		{"SELECT hour, SUM(revenue) FROM sales GROUP BY hour", []client.QueryOption{client.WithExpectedGroups(6), client.WithForceInflate(3)}},
	}
	eachR(t, func(t *testing.T, r int) {
		local := fixture(t) // appends grow the shared tables: one fixture per R
		twin, _ := fleetTwin(t, local, r)
		rng := rand.New(rand.NewSource(int64(41 + r)))
		for round := 0; round < 3; round++ {
			if err := twin.Append(context.Background(), "sales", salesBatch(t, rng), translate.Seabed); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				opts := append([]client.QueryOption{client.WithMode(translate.Seabed)}, q.opts...)
				want, err := local.Query(context.Background(), q.sql, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := twin.Query(context.Background(), q.sql, opts...)
				if err != nil {
					t.Fatalf("round %d %q: %v", round, q.sql, err)
				}
				wantRows, err := want.All()
				if err != nil {
					t.Fatal(err)
				}
				gotRows, err := got.All()
				if err != nil {
					t.Fatalf("round %d %q: %v", round, q.sql, err)
				}
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Errorf("round %d %q: fleet rows differ\n got %+v\nwant %+v", round, q.sql, gotRows, wantRows)
				}
				if got.PRFEvals < want.PRFEvals {
					t.Errorf("round %d %q: %d PRF values, fewer than the in-process engine's %d over the same span", round, q.sql, got.PRFEvals, want.PRFEvals)
				}
			}
		}
	})
}

// lastRun is a fleet that keeps the result of the last plan it ran.
type lastRun struct {
	*Cluster
	res *engine.Result
}

// Run implements client.ClusterBackend.
func (l *lastRun) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	res, err := l.Cluster.Run(ctx, pl)
	l.res = res
	return res, err
}

// TestFleetDenseListsStayBitmapsAfterAppends: after eight appends, each split
// across the three ranges, every range's identifiers are stretches that the
// other ranges' stretches separate. A SUM selecting about 70 % of the rows
// then decrypts to the in-process NoEnc answer, and each range's identifier
// list still travels as the adaptive codec's bitmap (mode 1), in more than
// one segment: the bitmap skips the words the other ranges hold, where a
// bitmap of the range's whole span would lose to the deflated ranges.
func TestFleetDenseListsStayBitmapsAfterAppends(t *testing.T) {
	local := fixture(t) // appends grow the shared tables
	c, _ := dialTestFleet(t, 2, uniformCfg)
	fleet := &lastRun{Cluster: c}
	twin := local.WithCluster(fleet)
	if err := twin.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for range 8 {
		if err := twin.Append(context.Background(), "sales", salesBatch(t, rng), translate.Seabed, translate.NoEnc); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT SUM(revenue) FROM sales WHERE day > 9" // 22 of 31 days
	want := mustRows(t, local, sql, translate.NoEnc)
	if got := mustRows(t, twin, sql, translate.Seabed); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet Seabed rows differ from in-process NoEnc\n got %+v\nwant %+v", got, want)
	}
	parts := fleet.res.Cols.IDs
	if len(parts) != numDaemons {
		t.Fatalf("%d identifier parts, want one per range (%d)", len(parts), numDaemons)
	}
	for k, p := range parts {
		if len(p.List) == 0 || p.List[0] != 1 {
			t.Errorf("range %d: %d identifiers in %d bytes, not a bitmap (mode byte %v)", k, p.Selected, len(p.List), p.List[:min(len(p.List), 1)])
			continue
		}
		// The first segment: base, words, words × 8 B; more segments follow
		// it to the end of the list (docs/FORMAT.md §3.2).
		body := p.List[1:]
		_, n := binary.Uvarint(body)
		words, m := binary.Uvarint(body[n:])
		if rest := len(body) - n - m - 8*int(words); rest <= 0 {
			t.Errorf("range %d: a bitmap of one segment, %d words over %d identifiers", k, words, p.Selected)
		}
	}
}

// TestFleetGroupInflation forces the §4.5 inflation path, whose suffixed
// group keys cross the wire from three daemons and deflate at the client.
func TestFleetGroupInflation(t *testing.T) {
	local := fixture(t)
	sql := "SELECT hour, SUM(revenue) FROM sales GROUP BY hour"
	want := mustRows(t, local, sql, translate.Seabed, client.WithExpectedGroups(6), client.WithForceInflate(3))
	if len(want) != 6 {
		t.Fatalf("inflated group-by returned %d groups, want 6", len(want))
	}
	eachR(t, func(t *testing.T, r int) {
		twin, _ := fleetTwin(t, local, r)
		got := mustRows(t, twin, sql, translate.Seabed, client.WithExpectedGroups(6), client.WithForceInflate(3))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("inflated group-by diverged:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestFleetServerOnly exercises the §6.7 metrics-only path: counts sum across
// ranges, stage latencies take the slowest range.
func TestFleetServerOnly(t *testing.T) {
	local := fixture(t)
	eachR(t, func(t *testing.T, r int) {
		twin, _ := fleetTwin(t, local, r)
		res, err := twin.Query(context.Background(), "SELECT SUM(revenue) FROM sales", client.WithServerOnly())
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.RowsScanned != fixtureRows || res.Metrics.MapTasks == 0 {
			t.Fatalf("scatter-gather metrics not populated: %+v", res.Metrics)
		}
	})
}

// TestFleetUnsyncedTableFails pins the failure mode of forgetting SyncTables:
// a clear error naming the fix, not a hang or a wrong answer.
func TestFleetUnsyncedTableFails(t *testing.T) {
	local := fixture(t)
	eachR(t, func(t *testing.T, r int) {
		c, _ := dialTestFleet(t, r, uniformCfg)
		fp := local.WithCluster(c) // no SyncTables
		_, err := fp.Query(context.Background(), "SELECT COUNT(*) FROM sales")
		if err == nil || !strings.Contains(err.Error(), "never registered") {
			t.Fatalf("err = %v, want a never-registered error", err)
		}
	})
}

// factRows is the join fixture's fact table size: keys cycle through 0..9.
const factRows = 600

// registerJoinTables registers the join fixture on c: a fact table whose
// keys cycle through 0..9, and a dimension table holding keys 0..4 (appends
// add 5..9 one at a time, appendDimKey). It returns a fresh-plan builder for
// the fact ⋈ dim COUNT(*) and a function running it.
func registerJoinTables(t *testing.T, c *Cluster) (mkPlan func() *engine.Plan, count func() uint64) {
	t.Helper()
	keys := make([]uint64, factRows)
	vals := make([]uint64, factRows)
	for i := range keys {
		keys[i] = uint64(i % 10)
		vals[i] = 1
	}
	fact, err := store.Build("fact", []store.Column{
		{Name: "k", Kind: store.U64, U64: keys},
		{Name: "v", Kind: store.U64, U64: vals},
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(context.Background(), "fact", fact); err != nil {
		t.Fatal(err)
	}
	dim, err := store.Build("dim", []store.Column{
		{Name: "dk", Kind: store.U64, U64: []uint64{0, 1, 2, 3, 4}},
		{Name: "w", Kind: store.U64, U64: []uint64{0, 0, 0, 0, 0}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(context.Background(), "dim", dim); err != nil {
		t.Fatal(err)
	}
	mkPlan = func() *engine.Plan {
		return &engine.Plan{
			Table: fact,
			Join:  &engine.Join{Right: dim, LeftCol: "k", RightCol: "dk", RightCols: []string{"w"}},
			Aggs:  []engine.Agg{{Kind: engine.AggCount}},
		}
	}
	count = func() uint64 {
		t.Helper()
		res, err := c.Run(context.Background(), mkPlan())
		if err != nil {
			t.Fatal(err)
		}
		return res.View()[0].Aggs[0].U64
	}
	return mkPlan, count
}

// appendDimKey appends dimension key k (identifier k+1) to the join
// fixture's dim table.
func appendDimKey(t *testing.T, c *Cluster, k uint64) {
	t.Helper()
	batch, err := store.BuildFrom("dim", []store.Column{
		{Name: "dk", Kind: store.U64, U64: []uint64{k}},
		{Name: "w", Kind: store.U64, U64: []uint64{0}},
	}, 1, k+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTable(context.Background(), "dim", batch); err != nil {
		t.Fatal(err)
	}
}

// registers sums the daemons' register frames.
func registers(daemons []*daemon) uint64 {
	var n uint64
	for _, d := range daemons {
		n += d.srv.Stats().Registers
	}
	return n
}

// TestFleetConcurrentJoinQueriesAndAppends races join queries against appends
// to the join's right table. Join replication must serialize the
// coordinator's copy-on-write snapshot — never a table mid-append — so this
// is free of data races (run with -race), every query sees a consistent
// dimension table, and the final query sees every appended row.
func TestFleetConcurrentJoinQueriesAndAppends(t *testing.T) {
	eachR(t, func(t *testing.T, r int) {
		c, daemons := dialTestFleet(t, r, uniformCfg)
		mkPlan, count := registerJoinTables(t, c)
		if got := count(); got != factRows/2 {
			t.Fatalf("pre-append join count = %d, want %d", got, factRows/2)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := c.Run(context.Background(), mkPlan())
					if err != nil {
						t.Error(err)
						return
					}
					// Any consistent snapshot matches between 5 and 10 keys.
					if n := res.View()[0].Aggs[0].U64; n < factRows/2 || n > factRows {
						t.Errorf("join count mid-append = %d", n)
						return
					}
				}
			}()
		}
		for k := uint64(5); k < 10; k++ {
			appendDimKey(t, c, k)
		}
		close(stop)
		wg.Wait()
		if got := count(); got != factRows {
			t.Fatalf("post-append join count = %d, want %d", got, factRows)
		}
		// Growth appends through to the broadcast copy on every daemon.
		for i, d := range daemons {
			if st := d.srv.Stats(); st.Appends == 0 {
				t.Errorf("daemon %d received no append frames", i)
			}
		}
		if down := c.Stats().Down; len(down) != 0 {
			t.Errorf("concurrent joins and appends marked daemons down: %v", down)
		}
	})
}

// TestFleetJoinAfterAppendShipsNothing: the first join broadcasts the
// dimension table to every daemon, and an append then grows that broadcast
// copy in place, so later joins re-register nothing and still see the
// appended keys.
func TestFleetJoinAfterAppendShipsNothing(t *testing.T) {
	eachR(t, func(t *testing.T, r int) {
		c, daemons := dialTestFleet(t, r, uniformCfg)
		_, count := registerJoinTables(t, c)
		if got := count(); got != factRows/2 {
			t.Fatalf("first join count = %d, want %d", got, factRows/2)
		}
		shipped := registers(daemons)
		for k := uint64(5); k < 7; k++ {
			appendDimKey(t, c, k)
			if got, want := count(), factRows/10*(k+1); got != want {
				t.Fatalf("join count after appending key %d = %d, want %d", k, got, want)
			}
			if n := registers(daemons); n != shipped {
				t.Fatalf("join after append %d registered %d tables, want 0 (a re-ship of the broadcast copy)", k, n-shipped)
			}
		}
	})
}

// TestFleetOfOneHoldsJoinTableOnce: a one-daemon fleet's one range is the
// whole table, so a join reads the dimension table's range ref and ships no
// broadcast copy, before or after an append.
func TestFleetOfOneHoldsJoinTableOnce(t *testing.T) {
	daemons, addrs := startFleetDaemons(t, 1, engine.Config{Workers: workersPerDaemon})
	c, err := Dial(addrs, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, count := registerJoinTables(t, c)
	registered := registers(daemons)
	if got := count(); got != factRows/2 {
		t.Fatalf("join count = %d, want %d", got, factRows/2)
	}
	appendDimKey(t, c, 5)
	if got, want := count(), uint64(factRows/10*6); got != want {
		t.Fatalf("join count after append = %d, want %d", got, want)
	}
	if n := registers(daemons); n != registered {
		t.Errorf("joins registered %d tables, want 0", n-registered)
	}
	var refs []string
	for _, ts := range daemons[0].srv.Stats().Tables {
		refs = append(refs, ts.Ref)
	}
	if !slices.Contains(refs, rangeRef("dim", 0)) || slices.Contains(refs, "dim"+fullSuffix) {
		t.Errorf("daemon holds %v, want dim#r0 and no dim#all", refs)
	}
}

// TestFleetStreamedScan asserts streaming equivalence: concatenating the
// chunks RunStream hands the sink reproduces the materialized gather's scan
// exactly (one registration means range identifier envelopes are contiguous
// in range order), and the merged metrics carry a first-chunk latency from
// the daemons' mid-map streaming.
func TestFleetStreamedScan(t *testing.T) {
	eachR(t, func(t *testing.T, r int) {
		c, _ := dialTestFleet(t, r, uniformCfg)
		const rows = 9000
		vals := make([]uint64, rows)
		tags := make([]string, rows)
		blobs := make([][]byte, rows)
		for i := range vals {
			vals[i] = uint64(i % 211)
			tags[i] = string(rune('a' + i%17))
			blobs[i] = []byte(strings.Repeat("x", i%4))
		}
		tbl, err := store.Build("scanstream", []store.Column{
			{Name: "v", Kind: store.U64, U64: vals},
			{Name: "tag", Kind: store.Str, Str: tags},
			{Name: "blob", Kind: store.Bytes, Bytes: blobs},
		}, 6)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := c.RegisterTable(ctx, "scanstream", tbl); err != nil {
			t.Fatal(err)
		}
		mkPlan := func() *engine.Plan {
			return &engine.Plan{Table: tbl,
				Filters: []engine.Filter{{Kind: engine.FilterPlainCmp, Col: "v", Op: sqlparse.OpGt, U64: 100}},
				Project: []string{"v", "tag", "blob"}}
		}
		want, err := c.Run(ctx, mkPlan())
		if err != nil {
			t.Fatal(err)
		}
		var got []engine.ScanRow
		res, err := c.RunStream(ctx, mkPlan(), func(batch []engine.ScanRow) error {
			got = append(got, batch...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scan) != 0 {
			t.Errorf("streamed gather materialized %d rows, want 0", len(res.Scan))
		}
		if res.Metrics.FirstChunk <= 0 {
			t.Errorf("merged stream metrics carry FirstChunk %v, want > 0", res.Metrics.FirstChunk)
		}
		if len(got) != len(want.Scan) {
			t.Fatalf("streamed %d rows, materialized %d", len(got), len(want.Scan))
		}
		for i := range got {
			g, w := got[i], want.Scan[i]
			if g.ID != w.ID || g.Width() != 3 || w.Width() != 3 || g.U64(0) != w.U64(0) || g.Str(1) != w.Str(1) || string(g.Bytes(2)) != string(w.Bytes(2)) {
				t.Fatalf("row %d diverges: streamed id %d (%d, %q, %q), materialized id %d (%d, %q, %q)",
					i, g.ID, g.U64(0), g.Str(1), g.Bytes(2), w.ID, w.U64(0), w.Str(1), w.Bytes(2))
			}
		}
		// Spot-check against the source so both paths aren't wrong alike:
		// identifier 102 is source row 101 (v = 101, the first row past the
		// filter).
		if first := got[0]; first.ID != 102 || first.U64(0) != 101 || first.Str(1) != tags[101] || len(first.Bytes(2)) != 101%4 {
			t.Fatalf("first streamed row = id %d (%d, %q, %q), want id 102, v 101, tag %q, %d blob bytes",
				first.ID, first.U64(0), first.Str(1), first.Bytes(2), tags[101], 101%4)
		}
		if res.Metrics.FirstChunk <= 0 {
			t.Errorf("merged FirstChunk = %v, want > 0 (daemon mid-map streaming)", res.Metrics.FirstChunk)
		}
	})
}

// TestFleetServerErrorDoesNotMarkDown pins what "down" means: a daemon that
// answered — with a plan error, or whose stream the caller's own sink aborted
// — is healthy. After the bad plan nobody is down, the daemon's error is the
// query's, and a valid query and an append both succeed.
func TestFleetServerErrorDoesNotMarkDown(t *testing.T) {
	eachR(t, func(t *testing.T, r int) {
		c, _ := dialTestFleet(t, r, uniformCfg)
		tbl := fleetTable(t)
		ctx := context.Background()
		if err := c.RegisterTable(ctx, "m@NoEnc", tbl); err != nil {
			t.Fatal(err)
		}

		bad := &engine.Plan{Table: tbl, Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "nope"}}}
		_, err := c.Run(ctx, bad)
		var se *remote.ServerError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), `unknown column "nope"`) {
			t.Fatalf("bad plan returned %v, want the daemon's unknown-column error", err)
		}
		if down := c.Stats().Down; len(down) != 0 {
			t.Fatalf("one bad plan marked daemons down: %v", down)
		}

		errSink := errors.New("sink gave up")
		scan := &engine.Plan{Table: tbl, Project: []string{"v"}}
		if _, err := c.RunStream(ctx, scan, func([]engine.ScanRow) error { return errSink }); !errors.Is(err, errSink) {
			t.Fatalf("sink failure returned %v, want the sink's own error", err)
		}
		if down := c.Stats().Down; len(down) != 0 {
			t.Fatalf("a caller's sink error marked daemons down: %v", down)
		}

		local := engine.NewCluster(engine.Config{Workers: 2})
		want := mustGroups(t, local.Run, countPlan(tbl))
		if got := mustGroups(t, c.Run, countPlan(tbl)); !reflect.DeepEqual(got, want) {
			t.Fatalf("valid query after the bad plan diverged:\n got %+v\nwant %+v", got, want)
		}
		batch, err := store.BuildFrom("m", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{1, 2, 3}}}, 1, 91)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AppendTable(ctx, "m@NoEnc", batch); err != nil {
			t.Fatalf("append after the bad plan: %v", err)
		}
	})
}

// traceFixture uploads a small NoEnc sales table through a proxy bound to the
// given cluster.
func traceFixture(t *testing.T, cluster client.ClusterBackend) *client.Proxy {
	t.Helper()
	proxy, err := client.NewProxy([]byte("trace-test-master-secret-01234-x"), cluster)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Parts = 6
	tbl := &schema.Table{
		Name: "sales",
		Columns: []schema.Column{
			{Name: "revenue", Type: schema.Int64, Sensitive: true},
		},
	}
	if _, err := proxy.CreatePlan(tbl, []string{"SELECT SUM(revenue) FROM sales"}, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	revenue := make([]uint64, 600)
	for i := range revenue {
		revenue[i] = uint64(i % 97)
	}
	src, err := store.Build("sales", []store.Column{{Name: "revenue", Kind: store.U64, U64: revenue}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "sales", src, translate.NoEnc); err != nil {
		t.Fatal(err)
	}
	return proxy
}

// daemonTraceIDs walks a query trace and collects the trace-ID attribute of
// every daemon root span grafted under the per-range rpc spans.
func daemonTraceIDs(root *obs.Span) []string {
	var ids []string
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name() == "daemon" {
			if v := s.Attr("trace"); v != "" {
				ids = append(ids, v)
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	return ids
}

// TestFleetQueryTraceExposesStraggler: one trace for a 3-range scatter,
// "range k @ daemon d" spans under run, the injected straggler identifiable
// via SlowestChild("range "), and every daemon breakdown stamped with the
// query's trace ID.
func TestFleetQueryTraceExposesStraggler(t *testing.T) {
	const straggler = 2
	eachR(t, func(t *testing.T, r int) {
		c, _ := dialTestFleet(t, r, func(i int) engine.Config {
			cfg := engine.Config{Workers: 2}
			if i == straggler {
				// A real wall-clock delay per map task on one daemon: the
				// scatter span of the range it primaries must dominate.
				cfg.TaskSleep = 40 * time.Millisecond
			}
			return cfg
		})
		proxy := traceFixture(t, c)

		res, err := proxy.Query(context.Background(), "SELECT SUM(revenue) FROM sales", client.WithMode(translate.NoEnc))
		if err != nil {
			t.Fatal(err)
		}
		root := res.Trace()
		if root == nil {
			t.Fatal("QueryResult.Trace() = nil")
		}
		if root.Name() != "query" || root.TraceID() == 0 {
			t.Fatalf("trace root = %q (id %#x), want a \"query\" root with a nonzero ID", root.Name(), root.TraceID())
		}
		for _, name := range []string{"parse", "translate", "run", "decrypt"} {
			if root.FindSpan(name) == nil {
				t.Fatalf("trace has no %q span:\n%s", name, root)
			}
		}
		run := root.FindSpan("run")
		for k := 0; k < numDaemons; k++ {
			if run.FindSpan(fmt.Sprintf("range %d @ daemon %d", k, k)) == nil {
				t.Fatalf("run has no span for range %d on its primary:\n%s", k, root)
			}
		}
		want := fmt.Sprintf("range %d @ daemon %d", straggler, straggler)
		if got := run.SlowestChild("range "); got == nil || got.Name() != want {
			t.Fatalf("SlowestChild = %v, want %q:\n%s", got, want, root)
		}

		// Every daemon reported its breakdown under the query's own trace ID.
		wantID := fmt.Sprintf("%016x", root.TraceID())
		ids := daemonTraceIDs(root)
		if len(ids) != numDaemons {
			t.Fatalf("found %d daemon spans, want %d:\n%s", len(ids), numDaemons, root)
		}
		for _, id := range ids {
			if id != wantID {
				t.Fatalf("daemon trace ID %s, want %s:\n%s", id, wantID, root)
			}
		}
		// The daemon breakdown carries the engine's stage spans (no reduce:
		// the query has no group-by).
		for _, name := range []string{"queue", "map", "driver"} {
			if root.FindSpan(name) == nil {
				t.Fatalf("daemon breakdown has no %q span:\n%s", name, root)
			}
		}
	})
}

// TestFleetTraceIDStableAcrossRedial restarts one daemon between two queries;
// the second query's scatter redials it, and the daemon's reported breakdown
// must carry the SECOND query's trace ID — the ID rides in each plan frame,
// not in connection state.
func TestFleetTraceIDStableAcrossRedial(t *testing.T) {
	eachR(t, func(t *testing.T, r int) {
		c, daemons := dialTestFleet(t, r, func(int) engine.Config { return engine.Config{Workers: 2} })
		proxy := traceFixture(t, c)

		first, err := proxy.Query(context.Background(), "SELECT SUM(revenue) FROM sales", client.WithMode(translate.NoEnc))
		if err != nil {
			t.Fatal(err)
		}

		// Restart daemon 1 on its own address: pooled sockets die, the next
		// request redials. It lost its tables; ship them again (idempotent
		// on the surviving daemons).
		addr := daemons[1].addr
		daemons[1].stop()
		startDaemonAt(t, addr, 1, numDaemons, engine.Config{Workers: 2})
		if err := proxy.SyncTables(context.Background()); err != nil {
			t.Fatal(err)
		}

		second, err := proxy.Query(context.Background(), "SELECT SUM(revenue) FROM sales", client.WithMode(translate.NoEnc))
		if err != nil {
			t.Fatal(err)
		}
		if first.Trace().TraceID() == second.Trace().TraceID() {
			t.Fatal("two queries shared a trace ID")
		}
		want := fmt.Sprintf("%016x", second.Trace().TraceID())
		ids := daemonTraceIDs(second.Trace())
		for _, id := range ids {
			if id != want {
				t.Fatalf("daemon trace ID %s after redial, want %s:\n%s", id, want, second.Trace())
			}
		}
		if len(ids) != numDaemons {
			t.Fatalf("found %d daemon spans after redial, want %d:\n%s", len(ids), numDaemons, second.Trace())
		}
	})
}
