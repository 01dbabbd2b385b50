// Query-lifecycle end-to-end tests: cancellation, deadlines, and streaming
// through the public facade, against all three backends — the in-process
// engine, a loopback seabed-server, and a 3-shard loopback fleet. These are
// the acceptance gates of the context-first API redesign:
//
//	(a) cancelling a context mid-query — once every engine has begun the
//	    run — returns context.Canceled, while the same query uncancelled
//	    succeeds with results identical across all backends;
//	(b) a streamed large scan via Rows() yields the same rows as the
//	    materialized result.
package seabed_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"seabed"
	"seabed/internal/engine"
	"seabed/internal/server"
)

// slowCluster returns an engine whose map tasks each stall for sleep on at
// most two real goroutines, making query wall-time long and predictable so a
// mid-query cancel demonstrably lands mid-query.
func slowCluster(sleep time.Duration) *seabed.Cluster {
	return seabed.NewCluster(seabed.ClusterConfig{
		Workers:         4,
		RealParallelism: 2,
		TaskSleep:       sleep,
	})
}

// lifecycleProxy builds a 3000-row dataset on the given backend, partitioned
// 30 ways so a TaskSleep-injected engine has a long runway of map tasks.
func lifecycleProxy(t *testing.T, backend seabed.ClusterBackend) *seabed.Proxy {
	t.Helper()
	const rows = 3000
	proxy, err := seabed.NewProxy([]byte("lifecycle-test-master-secret-012"), backend)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Parts = 30
	sch := &seabed.Schema{Name: "big", Columns: []seabed.SchemaColumn{
		{Name: "m", Type: seabed.Int64, Sensitive: true},
		{Name: "d", Type: seabed.Int64, Sensitive: true},
	}}
	if _, err := proxy.CreatePlan(sch, []string{
		"SELECT SUM(m) FROM big WHERE d > 15",
		"SELECT d, SUM(m) FROM big GROUP BY d",
	}, seabed.PlannerOptions{}); err != nil {
		t.Fatal(err)
	}
	m := make([]uint64, rows)
	d := make([]uint64, rows)
	for i := range m {
		m[i] = uint64(i % 997)
		d[i] = uint64(i%31) + 1
	}
	src, err := seabed.BuildTable("big", []seabed.Column{
		{Name: "m", Kind: seabed.U64, U64: m},
		{Name: "d", Kind: seabed.U64, U64: d},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Upload(context.Background(), "big", src, seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
		t.Fatal(err)
	}
	return proxy
}

// startSlowServer launches a loopback seabed-server over a slow cluster and
// returns its address plus the server for stats inspection.
func startSlowServer(t *testing.T, sleep time.Duration, shard string) (string, *seabed.Server) {
	t.Helper()
	srv := seabed.NewServer(slowCluster(sleep))
	if shard != "" {
		fmt.Sscanf(shard, "%d/%d", &srv.ShardIndex, &srv.ShardCount) //nolint:errcheck // test input
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close() //nolint:errcheck // racing test teardown
		<-done
	})
	return ln.Addr().String(), srv
}

const aggSQL = "SELECT SUM(m) FROM big WHERE d > 15"

// cancelOnRun is a backend that, while armed, cancels the query it runs once
// the engine beneath has begun to run it — started reports when — rather than
// at a guessed instant, so the cancel lands mid-query however loaded the host
// is: the slow cluster's map tasks leave a runway of many task sleeps.
type cancelOnRun struct {
	seabed.ClusterBackend
	started func() bool
	cancel  context.CancelFunc
}

func (b *cancelOnRun) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	if started, cancel := b.started, b.cancel; started != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for !started() {
				select {
				case <-done:
					return
				case <-tick.C:
				}
			}
			cancel()
		}()
	}
	return b.ClusterBackend.Run(ctx, pl)
}

// assertCancelsPromptly arms b, runs the query and asserts the proxy returns
// context.Canceled. runs counts the runs the engine beneath b has begun — for
// several daemons, the fewest any one has — so the cancel waits for every
// engine to be mid-run. Only a hang fails on time.
func assertCancelsPromptly(t *testing.T, proxy *seabed.Proxy, b *cancelOnRun, runs func() uint64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runs()
	b.started, b.cancel = func() bool { return runs() > before }, cancel
	errc := make(chan error, 1)
	go func() {
		_, err := proxy.Query(ctx, aggSQL)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query still running after 10s")
	}
	b.started, b.cancel = nil, nil
}

// drainStats polls until the server reports no in-flight runs, proving the
// canceled query's slot was freed.
func drainStats(t *testing.T, srv *seabed.Server) server.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.RunsActive == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still reports %d in-flight runs", st.RunsActive)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelMidQueryInProcess(t *testing.T) {
	cl := slowCluster(20 * time.Millisecond)
	b := &cancelOnRun{ClusterBackend: cl}
	proxy := lifecycleProxy(t, b)
	// A run looks its plan up in the cache once it has passed validation.
	assertCancelsPromptly(t, proxy, b, func() uint64 { hits, misses := cl.PlanCacheStats(); return hits + misses })
	// The same query, uncancelled, still succeeds afterwards.
	if _, err := proxy.Query(context.Background(), aggSQL); err != nil {
		t.Fatalf("uncancelled query after a cancel: %v", err)
	}
}

func TestCancelMidQueryRemote(t *testing.T) {
	addr, srv := startSlowServer(t, 20*time.Millisecond, "")
	rc, err := seabed.DialCluster(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	b := &cancelOnRun{ClusterBackend: rc}
	proxy := lifecycleProxy(t, b)

	assertCancelsPromptly(t, proxy, b, func() uint64 { return srv.Stats().Runs })
	st := drainStats(t, srv)
	if st.Canceled == 0 {
		t.Fatal("server never counted a canceled run; the Cancel frame did not arrive")
	}
	// The freed slot serves the next query on the same pool.
	if _, err := proxy.Query(context.Background(), aggSQL); err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
}

func TestCancelMidQuerySharded(t *testing.T) {
	addrs := make([]string, 3)
	servers := make([]*seabed.Server, 3)
	for i := range addrs {
		addrs[i], servers[i] = startSlowServer(t, 20*time.Millisecond, fmt.Sprintf("%d/3", i))
	}
	sc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	b := &cancelOnRun{ClusterBackend: sc}
	proxy := lifecycleProxy(t, b)

	assertCancelsPromptly(t, proxy, b, func() uint64 {
		fewest := servers[0].Stats().Runs
		for _, srv := range servers[1:] {
			fewest = min(fewest, srv.Stats().Runs)
		}
		return fewest
	})
	for i, srv := range servers {
		if st := drainStats(t, srv); st.Canceled == 0 {
			t.Errorf("shard %d never counted a canceled run", i)
		}
	}
}

// TestDeadlineCancelsAllShards is the WithTimeout gate: a deadline shorter
// than the slow 3-shard query returns context.DeadlineExceeded and cancels
// the in-flight work on every daemon (asserted via server.Stats).
func TestDeadlineCancelsAllShards(t *testing.T) {
	addrs := make([]string, 3)
	servers := make([]*seabed.Server, 3)
	for i := range addrs {
		addrs[i], servers[i] = startSlowServer(t, 20*time.Millisecond, fmt.Sprintf("%d/3", i))
	}
	sc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	proxy := lifecycleProxy(t, sc)

	start := time.Now()
	_, err = proxy.Query(context.Background(), aggSQL, seabed.WithTimeout(80*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline query returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline query took %v, want < 1s", elapsed)
	}
	for i, srv := range servers {
		st := drainStats(t, srv)
		if st.Canceled == 0 {
			t.Errorf("shard %d never canceled its slice of the deadline-exceeded query", i)
		}
	}
	// Past deadlines fail fast without touching the fleet again.
	if _, err := proxy.Query(context.Background(), aggSQL, seabed.WithTimeout(-time.Second)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v", err)
	}
}

// TestUncancelledResultsIdenticalAcrossBackends is acceptance gate (a)'s
// second half: the redesigned query path returns identical decrypted rows
// in-process, over the wire, and scatter-gathered across three shards.
func TestUncancelledResultsIdenticalAcrossBackends(t *testing.T) {
	local := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))

	addr, _ := startSlowServer(t, 0, "")
	rc, err := seabed.DialCluster(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	remote := local.WithCluster(rc)
	if err := remote.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}

	shardAddrs := make([]string, 3)
	for i := range shardAddrs {
		shardAddrs[i], _ = startSlowServer(t, 0, fmt.Sprintf("%d/3", i))
	}
	sc, err := seabed.DialFleet(shardAddrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	sharded := local.WithCluster(sc)
	if err := sharded.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, sql := range []string{
		aggSQL,
		"SELECT COUNT(*) FROM big",
		"SELECT m FROM big WHERE d > 29", // scan
	} {
		for _, mode := range []seabed.Mode{seabed.ModeNoEnc, seabed.ModeSeabed} {
			rowsOf := func(p *seabed.Proxy) []seabed.Row {
				res, err := p.Query(context.Background(), sql, seabed.WithMode(mode))
				if err != nil {
					t.Fatalf("%v %q: %v", mode, sql, err)
				}
				rows, err := res.All()
				if err != nil {
					t.Fatalf("%v %q: %v", mode, sql, err)
				}
				return rows
			}
			want := rowsOf(local)
			if got := rowsOf(remote); !reflect.DeepEqual(got, want) {
				t.Errorf("%v %q: remote rows diverge from in-process", mode, sql)
			}
			if got := rowsOf(sharded); !reflect.DeepEqual(got, want) {
				t.Errorf("%v %q: sharded rows diverge from in-process", mode, sql)
			}
		}
	}
}

// TestStreamedScanMatchesMaterialized is acceptance gate (b): a streamed
// scan's Rows() yields exactly the rows the materialized path returns — for
// the in-process, remote, and sharded backends — and the post-drain metrics
// are populated.
func TestStreamedScanMatchesMaterialized(t *testing.T) {
	local := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))

	addr, _ := startSlowServer(t, 0, "")
	rc, err := seabed.DialCluster(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	remote := local.WithCluster(rc)
	if err := remote.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}

	shardAddrs := make([]string, 3)
	for i := range shardAddrs {
		shardAddrs[i], _ = startSlowServer(t, 0, fmt.Sprintf("%d/3", i))
	}
	sc, err := seabed.DialFleet(shardAddrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	sharded := local.WithCluster(sc)
	if err := sharded.SyncTables(context.Background()); err != nil {
		t.Fatal(err)
	}

	// d > 1 selects ~2900 of 3000 rows: the scan spans multiple wire chunks.
	const scanSQL = "SELECT m FROM big WHERE d > 1"
	for name, proxy := range map[string]*seabed.Proxy{
		"in-process": local, "remote": remote, "sharded": sharded,
	} {
		mat, err := proxy.Query(context.Background(), scanSQL)
		if err != nil {
			t.Fatalf("%s materialized: %v", name, err)
		}
		matRows, err := mat.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(matRows) < 2000 {
			t.Fatalf("%s: scan selected only %d rows; fixture broken", name, len(matRows))
		}

		streamed, err := proxy.Query(context.Background(), scanSQL, seabed.WithStreaming())
		if err != nil {
			t.Fatalf("%s streamed: %v", name, err)
		}
		var got []seabed.Row
		for row, err := range streamed.Rows() {
			if err != nil {
				t.Fatalf("%s streamed row: %v", name, err)
			}
			got = append(got, row)
		}
		if !reflect.DeepEqual(got, matRows) {
			t.Fatalf("%s: streamed rows diverge from materialized (%d vs %d rows)", name, len(got), len(matRows))
		}
		if streamed.Metrics.RowsScanned == 0 || streamed.ServerTime <= 0 || streamed.TotalTime < streamed.ServerTime {
			t.Fatalf("%s: post-drain metrics not populated: %+v", name, streamed.Metrics)
		}
		// A drained stream is one-shot.
		for _, err := range streamed.Rows() {
			if err == nil {
				t.Fatalf("%s: second Rows() on a drained stream yielded no error", name)
			}
			break
		}
	}
}

// TestStreamEarlyBreakCancelsQuery verifies that abandoning a streamed scan
// mid-iteration cancels the underlying query and frees the server slot.
func TestStreamEarlyBreakCancelsQuery(t *testing.T) {
	addr, srv := startSlowServer(t, 0, "")
	rc, err := seabed.DialCluster(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	proxy := lifecycleProxy(t, rc)

	res, err := proxy.Query(context.Background(), "SELECT m FROM big WHERE d > 1", seabed.WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.Rows() {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n >= 10 {
			break
		}
	}
	drainStats(t, srv)
	// The pool must still serve queries after the abandoned stream.
	if _, err := proxy.Query(context.Background(), "SELECT COUNT(*) FROM big"); err != nil {
		t.Fatalf("query after abandoned stream: %v", err)
	}
}
