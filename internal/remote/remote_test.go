// Loopback end-to-end tests: the full Create Plan / Upload Data / Query Data
// flow driven through a RemoteCluster against a live internal/server on a
// loopback TCP socket, asserting results identical to the in-process engine
// — including under concurrent queries (run with -race).
package remote_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/planner"
	"seabed/internal/remote"
	"seabed/internal/schema"
	"seabed/internal/server"
	"seabed/internal/store"
	"seabed/internal/translate"
	"seabed/internal/wire"
)

// startServer launches a wire-protocol server for a fresh 4-worker cluster
// on a loopback socket and returns a dialed RemoteCluster.
func startServer(t *testing.T) *remote.RemoteCluster {
	t.Helper()
	srv := server.New(engine.NewCluster(engine.Config{Workers: 4}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	rc, err := remote.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// fixtureModes covers the paper's three systems.
var fixtureModes = []translate.Mode{translate.NoEnc, translate.Seabed, translate.Paillier}

// fixture builds the quickstart-style sales dataset on an in-process proxy.
// Tables are encrypted exactly once; remote proxies share them via
// WithCluster + SyncTables, so local and remote engines see identical
// ciphertext bytes and any result divergence is the wire path's fault.
func fixture(t *testing.T) *client.Proxy {
	t.Helper()
	const rows = 2000
	rng := rand.New(rand.NewSource(97))

	countries := []string{"USA", "Canada", "India", "Chile", "Japan"}
	countryFreq := []uint64{900, 750, 125, 125, 100}
	countryCol := make([]string, 0, rows)
	for v, c := range countryFreq {
		for i := uint64(0); i < c; i++ {
			countryCol = append(countryCol, countries[v])
		}
	}
	rng.Shuffle(len(countryCol), func(a, b int) { countryCol[a], countryCol[b] = countryCol[b], countryCol[a] })

	revenue := make([]uint64, rows)
	clicks := make([]uint64, rows)
	day := make([]uint64, rows)
	hour := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		revenue[i] = uint64(rng.Intn(10000))
		clicks[i] = uint64(rng.Intn(50))
		day[i] = uint64(rng.Intn(31) + 1)
		hour[i] = uint64(rng.Intn(6))
	}

	tbl := &schema.Table{
		Name: "sales",
		Columns: []schema.Column{
			{Name: "revenue", Type: schema.Int64, Sensitive: true},
			{Name: "clicks", Type: schema.Int64, Sensitive: true},
			{Name: "country", Type: schema.String, Sensitive: true, Cardinality: 5,
				Freqs: countryFreq, Values: countries},
			{Name: "day", Type: schema.Int64, Sensitive: true},
			{Name: "hour", Type: schema.Int64, Sensitive: true},
		},
	}
	samples := []string{
		"SELECT SUM(revenue) FROM sales WHERE country = 'India'",
		"SELECT COUNT(*) FROM sales WHERE country = 'USA'",
		"SELECT VAR(clicks) FROM sales",
		"SELECT SUM(revenue) FROM sales WHERE day > 15",
		"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		"SELECT MIN(revenue) FROM sales",
	}

	proxy, err := client.NewProxy([]byte("remote-test-master-secret-012345"), engine.NewCluster(engine.Config{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	proxy.Parts = 8
	if _, err := proxy.CreatePlan(tbl, samples, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	src, err := store.Build("sales", []store.Column{
		{Name: "revenue", Kind: store.U64, U64: revenue},
		{Name: "clicks", Kind: store.U64, U64: clicks},
		{Name: "country", Kind: store.Str, Str: countryCol},
		{Name: "day", Kind: store.U64, U64: day},
		{Name: "hour", Kind: store.U64, U64: hour},
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
	return proxy
}

// remoteTwin binds the fixture to a loopback server and ships it the tables.
func remoteTwin(t *testing.T, local *client.Proxy) *client.Proxy {
	t.Helper()
	rc := startServer(t)
	if rc.Workers() != 4 {
		t.Fatalf("remote workers = %d, want 4", rc.Workers())
	}
	rp := local.WithCluster(rc)
	if err := rp.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rp
}

var loopbackQueries = []string{
	"SELECT SUM(revenue) FROM sales",
	"SELECT COUNT(*) FROM sales",
	"SELECT AVG(revenue) FROM sales",
	"SELECT SUM(revenue) FROM sales WHERE country = 'Canada'",
	"SELECT SUM(revenue) FROM sales WHERE country = 'India'",
	"SELECT COUNT(*) FROM sales WHERE country = 'Chile'",
	"SELECT SUM(revenue) FROM sales WHERE day > 15",
	"SELECT SUM(revenue) FROM sales WHERE day >= 10 AND day <= 20",
	"SELECT VAR(clicks) FROM sales",
	"SELECT STDDEV(clicks) FROM sales",
	"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
	"SELECT hour, AVG(revenue) FROM sales GROUP BY hour",
	"SELECT MIN(revenue) FROM sales",
	"SELECT MAX(revenue) FROM sales",
	"SELECT revenue FROM sales WHERE day > 29",
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

// TestLoopbackEndToEnd is the acceptance gate: every query, in every mode,
// decrypts to rows identical to the in-process backend's.
func TestLoopbackEndToEnd(t *testing.T) {
	local := fixture(t)
	rmt := remoteTwin(t, local)
	for _, sql := range loopbackQueries {
		for _, mode := range fixtureModes {
			want := mustRows(t, local, sql, mode)
			got := mustRows(t, rmt, sql, mode)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %q: remote rows differ from in-process\n got %+v\nwant %+v", mode, sql, got, want)
			}
		}
	}
}

// TestLoopbackGroupInflation forces the §4.5 inflation path, whose suffixed
// group keys and VB+Diff codec selection both cross the wire.
func TestLoopbackGroupInflation(t *testing.T) {
	local := fixture(t)
	rmt := remoteTwin(t, local)
	sql := "SELECT hour, SUM(revenue) FROM sales GROUP BY hour"
	want := mustRows(t, local, sql, translate.Seabed, client.WithExpectedGroups(6), client.WithForceInflate(3))
	got := mustRows(t, rmt, sql, translate.Seabed, client.WithExpectedGroups(6), client.WithForceInflate(3))
	if len(want) != 6 {
		t.Fatalf("inflated group-by returned %d groups, want 6", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inflated group-by diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoopbackServerOnly exercises the §6.7 server-only path, which returns
// metrics without decryption.
func TestLoopbackServerOnly(t *testing.T) {
	local := fixture(t)
	rmt := remoteTwin(t, local)
	res, err := rmt.Query(context.Background(), "SELECT SUM(revenue) FROM sales", client.WithServerOnly())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RowsScanned != 2000 || res.Metrics.MapTasks == 0 {
		t.Fatalf("server-only metrics not populated: %+v", res.Metrics)
	}
}

// TestConcurrentRemoteQueries fans queries out over parallel goroutines so
// the connection pool, the server's per-connection dispatch, and the shared
// table registry all run concurrently (the -race gate of the issue).
func TestConcurrentRemoteQueries(t *testing.T) {
	local := fixture(t)
	rmt := remoteTwin(t, local)

	// Precompute expected rows serially.
	type workItem struct {
		sql  string
		mode translate.Mode
		want []client.Row
	}
	var work []workItem
	for _, sql := range loopbackQueries {
		for _, mode := range []translate.Mode{translate.NoEnc, translate.Seabed} {
			work = append(work, workItem{sql, mode, mustRows(t, local, sql, mode)})
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range work {
				w := work[(i+g)%len(work)]
				res, err := rmt.Query(context.Background(), w.sql, client.WithMode(w.mode))
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
					errs <- &divergence{sql: w.sql, mode: w.mode}
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
}

type divergence struct {
	sql  string
	mode translate.Mode
}

func (d *divergence) Error() string {
	return "concurrent query diverged: " + d.mode.String() + " " + d.sql
}

// TestAppendReachesServer verifies that Append re-registers the grown table,
// so remote queries see the new rows.
func TestAppendReachesServer(t *testing.T) {
	local := fixture(t)
	rmt := remoteTwin(t, local)
	sql := "SELECT COUNT(*) FROM sales"
	before := mustRows(t, rmt, sql, translate.Seabed)

	// The batch must roughly match the planned value distribution — and be
	// large enough that its common rows can donate the dummy slots enhanced
	// SPLASHE needs to lift every uncommon value to the plan's absolute
	// threshold — or balancing fails (§3.5). Mirror the fixture's skew at
	// half its size.
	const batchRows = 1000
	country := make([]string, 0, batchRows)
	for v, c := range []int{450, 375, 63, 62, 50} {
		for i := 0; i < c; i++ {
			country = append(country, []string{"USA", "Canada", "India", "Chile", "Japan"}[v])
		}
	}
	rng := rand.New(rand.NewSource(31))
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
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Append through the remote-bound proxy: encrypts locally, re-registers
	// the grown table on the server.
	if err := rmt.Append(context.Background(), "sales", batch, translate.Seabed); err != nil {
		t.Fatal(err)
	}
	after := mustRows(t, rmt, sql, translate.Seabed)
	if after[0].Values[0].I64 != before[0].Values[0].I64+batchRows {
		t.Fatalf("count after append = %d, want %d", after[0].Values[0].I64, before[0].Values[0].I64+batchRows)
	}
}

// TestUnsyncedTableFails pins the failure mode of forgetting SyncTables: a
// clear error naming the fix, not a hang or a wrong answer.
func TestUnsyncedTableFails(t *testing.T) {
	local := fixture(t)
	rc := startServer(t)
	rp := local.WithCluster(rc) // no SyncTables
	_, err := rp.Query(context.Background(), "SELECT COUNT(*) FROM sales")
	if err == nil || !strings.Contains(err.Error(), "never registered") {
		t.Fatalf("err = %v, want a never-registered error", err)
	}
}

// TestDialDiagnosesOldProtocol pins the client half of the frozen handshake:
// a server that Welcomes any version but wire.Version — older (even one whose
// Welcome lacks the newer fields) or newer — is reported as a protocol
// mismatch naming its version, not as a truncated-payload decode error, and
// is never spoken to.
func TestDialDiagnosesOldProtocol(t *testing.T) {
	welcomes := map[string][]byte{
		// A v1 Welcome: version varint 1, workers varint 4, nothing else.
		"negotiated protocol v1":                               {1, 4},
		fmt.Sprintf("negotiated protocol v%d", wire.Version-1): wire.EncodeWelcome(wire.Version-1, 4, 0, 0),
		fmt.Sprintf("negotiated protocol v%d", wire.Version+1): wire.EncodeWelcome(wire.Version+1, 4, 0, 0),
	}
	for want, welcome := range welcomes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, _, err := wire.ReadFrame(conn); err != nil { // consume the Hello
				return
			}
			wire.WriteFrame(conn, wire.MsgWelcome, welcome) //nolint:errcheck // test peer
		}()
		_, err = remote.Dial(ln.Addr().String())
		ln.Close()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want a %q diagnosis", err, want)
		}
	}
}

// TestDialRejectsDeadServer pins the dial error path.
func TestDialRejectsDeadServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := remote.Dial(addr); err == nil {
		t.Fatal("dialing a closed listener succeeded")
	}
}

// TestRunRefusesAForeignCodec: a daemon whose result frame declares an
// identifier-list codec other than the plan's broke protocol — the proxy
// would decode its lists wrongly — so RunRequest refuses the frame with a
// *remote.CodecMismatchError, for a plan that names its codec and for one
// that leaves it to the default.
func TestRunRefusesAForeignCodec(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frame, err := wire.EncodeResult(idlist.Bitmap.Name(), &engine.Result{}, nil, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := wire.ReadFrame(conn); err != nil { // the Hello
					return
				}
				wire.WriteFrame(conn, wire.MsgWelcome, wire.EncodeWelcome(wire.Version, 4, 0, 0)) //nolint:errcheck // test peer
				for {
					if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgRun {
						return
					}
					wire.WriteFrame(conn, wire.MsgResult, frame) //nolint:errcheck // test peer
				}
			}()
		}
	}()
	rc, err := remote.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, pl := range []*engine.Plan{
		{Aggs: []engine.Agg{{Kind: engine.AggAsheSum, Col: "m"}}, GroupBy: &engine.GroupBy{Col: "d"}},
		{Aggs: []engine.Agg{{Kind: engine.AggAsheSum, Col: "m"}}, Codec: idlist.VBDiff},
	} {
		_, err := rc.RunRequest(context.Background(), &wire.PlanRequest{TableRef: "t@Seabed", Plan: pl}, nil)
		var mismatch *remote.CodecMismatchError
		if !errors.As(err, &mismatch) || mismatch.Frame != idlist.Bitmap.Name() || mismatch.Plan != pl.EffectiveCodec().Name() {
			t.Errorf("plan codec %q, frame's %q: err = %v, want a *remote.CodecMismatchError naming both",
				pl.EffectiveCodec().Name(), idlist.Bitmap.Name(), err)
		}
	}
}

// TestRedialVerifiesShardIdentity restarts the daemon behind a pool's
// address with a different shard identity; the next request — which redials
// because its pooled socket died with the old process — must fail with the
// identity mismatch rather than run against misplaced rows.
func TestRedialVerifiesShardIdentity(t *testing.T) {
	serve := func(ln net.Listener, shardIdx, shardCount int) (*server.Server, chan error) {
		srv := server.New(engine.NewCluster(engine.Config{Workers: 4}))
		srv.ShardIndex, srv.ShardCount = shardIdx, shardCount
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, done
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv, done := serve(ln, 1, 3)
	rc, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	if idx, count := rc.Shard(); idx != 1 || count != 3 {
		t.Fatalf("recorded identity %d/%d, want 1/3", idx, count)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	// Same address, different -shard flag: the restartable-daemon footgun.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2, done2 := serve(ln2, 2, 3)
	t.Cleanup(func() {
		srv2.Close() //nolint:errcheck // test teardown
		<-done2
	})
	err = rc.RegisterTable(context.Background(), "x", mustTable(t))
	if err == nil || !strings.Contains(err.Error(), "declares shard 2/3") {
		t.Fatalf("redial against a re-sharded daemon returned %v, want identity mismatch", err)
	}
}

// mustTable builds a minimal table for identity-check requests.
func mustTable(t *testing.T) *store.Table {
	t.Helper()
	tbl, err := store.Build("x", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{1}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// fetchTable fetches table ref from the daemon at addr as a pulling daemon
// does: one exchange of image frames and a terminal inventory entry.
func fetchTable(t *testing.T, addr, ref string) ([][]byte, []wire.TableManifest) {
	t.Helper()
	pool, err := remote.DialPool(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var imgs [][]byte
	typ, resp, err := pool.Exchange(context.Background(), wire.MsgSegmentFetch, wire.EncodeSegmentFetch(ref, ""),
		wire.MsgSegmentData, func(img []byte) error {
			imgs = append(imgs, img)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgSegmentList {
		t.Fatalf("fetch of %q ends with a %v frame", ref, typ)
	}
	ms, err := wire.DecodeSegmentList(resp)
	if err != nil {
		t.Fatal(err)
	}
	return imgs, ms
}

// TestSegmentPullBetweenDaemons exercises the shipping path on memory
// daemons: a table registered on daemon A is pulled by daemon B directly
// from A, and B then inventories it as A does and ships the identical
// image.
func TestSegmentPullBetweenDaemons(t *testing.T) {
	rcA := startServer(t)
	rcB := startServer(t)
	ctx := context.Background()

	tbl, err := store.Build("p", []store.Column{
		{Name: "v", Kind: store.U64, U64: []uint64{7, 8, 9, 10}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcA.RegisterTable(ctx, "p@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}

	// B has never seen the table: its inventory is empty.
	if ms, err := rcB.TableManifests(ctx); err != nil || len(ms) != 0 {
		t.Fatalf("inventory of an empty daemon = %+v, %v", ms, err)
	}
	if err := rcB.PullTable(ctx, "p@NoEnc", rcA.Addr()); err != nil {
		t.Fatal(err)
	}

	wantMs, err := rcA.TableManifests(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotMs, err := rcB.TableManifests(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMs, wantMs) {
		t.Fatalf("pulled inventory diverged:\n got %+v\nwant %+v", gotMs, wantMs)
	}
	want := wire.TableManifest{Ref: "p@NoEnc", Rows: 4, StartID: 1, EndID: 4}
	if len(gotMs) != 1 || gotMs[0] != want {
		t.Fatalf("inventory %+v, want [%+v]", gotMs, want)
	}
	wantImgs, wantEntry := fetchTable(t, rcA.Addr(), "p@NoEnc")
	gotImgs, gotEntry := fetchTable(t, rcB.Addr(), "p@NoEnc")
	if len(gotImgs) != 1 || !reflect.DeepEqual(gotImgs, wantImgs) || !reflect.DeepEqual(gotEntry, wantEntry) {
		t.Fatalf("daemons ship different images or entries after the pull: %+v vs %+v", gotEntry, wantEntry)
	}

	// Pulling from a dead source reports the dial failure, not a hang.
	if err := rcB.PullTable(ctx, "q@NoEnc", "127.0.0.1:1"); err == nil {
		t.Fatal("pull from a dead source succeeded")
	}
}

// TestReRegisterReplacesRef: registering a ref twice leaves one entry in the
// pointer-to-ref map, Run resolves the newer table, and the replaced table no
// longer resolves — the map does not pin every version ever registered.
func TestReRegisterReplacesRef(t *testing.T) {
	rc := startServer(t)
	ctx := context.Background()
	older := mustTable(t)
	newer, err := store.Build("x", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{1, 2, 3}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*store.Table{older, newer} {
		if err := rc.RegisterTable(ctx, "x", tbl); err != nil {
			t.Fatal(err)
		}
	}
	if n := rc.NumRefs(); n != 1 {
		t.Fatalf("refs after registering one ref twice = %d, want 1", n)
	}
	res, err := rc.Run(ctx, &engine.Plan{Table: newer, Aggs: []engine.Agg{{Kind: engine.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RowsScanned != 3 {
		t.Fatalf("run scanned %d rows, want the newer table's 3", res.Metrics.RowsScanned)
	}
	if _, err := rc.Run(ctx, &engine.Plan{Table: older, Aggs: []engine.Agg{{Kind: engine.AggCount}}}); err == nil || !strings.Contains(err.Error(), "never registered") {
		t.Fatalf("run over the replaced table: err = %v, want a never-registered error", err)
	}
}
