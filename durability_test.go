// Durability end-to-end tests: the kill-and-restart acceptance gates of the
// durable storage engine.
//
//	(a) In-process (fully race-instrumented): a 3-shard fleet of durable
//	    servers answers a query, one shard stops and restarts over the same
//	    data directory on the same address, and the same sharded cluster —
//	    whose pooled sockets to that shard died — returns byte-identical
//	    rows, with recovery visible in server.Stats.
//	(b) Subprocess: a real seabed-server daemon is SIGKILLed mid-append
//	    stream and restarted with the same -data-dir; every acknowledged
//	    append survives and 3-shard query results match an in-process proxy
//	    holding the same committed data byte for byte.
package seabed_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"seabed"
)

// startDurableShard serves a durable seabed-server on addr (":0" picks a
// port) and returns its address plus handles for stopping and inspection.
func startDurableShard(t *testing.T, addr, dir string, shardIdx, shardCount int) (string, *seabed.Server, *seabed.DurableStore, func()) {
	t.Helper()
	d, err := seabed.OpenDurableStore(seabed.DurableOptions{Dir: dir, Fsync: seabed.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := seabed.NewServer(seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	srv.ShardIndex, srv.ShardCount = shardIdx, shardCount
	srv.UseDurable(d)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		srv.Close() //nolint:errcheck // racing test teardown
		<-done
		d.Close() //nolint:errcheck // racing test teardown
	}
	t.Cleanup(stop)
	return ln.Addr().String(), srv, d, stop
}

// TestShardRestartRecoversDurableTables is gate (a). It runs fully under
// the race detector: the server, durable store, and recovery all execute in
// process.
func TestShardRestartRecoversDurableTables(t *testing.T) {
	base := t.TempDir()
	addrs := make([]string, 3)
	stops := make([]func(), 3)
	for i := range addrs {
		addrs[i], _, _, stops[i] = startDurableShard(t, "127.0.0.1:0", filepath.Join(base, fmt.Sprint(i)), i, 3)
	}
	sc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	proxy := lifecycleProxy(t, sc) // uploads "big" in NoEnc + Seabed

	// Grow the table so WAL replay is part of the recovery under test.
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		batch := appendBatch(t, 3000+uint64(i)*90, 90)
		if err := proxy.Append(ctx, "big", batch, seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{aggSQL, "SELECT COUNT(*) FROM big", "SELECT m FROM big WHERE d > 29"}
	want := make(map[string][]seabed.Row)
	for _, sql := range queries {
		want[sql] = queryRows(t, proxy, sql)
	}

	// Stop shard 1 and bring it back over the same directory and address.
	stops[1]()
	_, srv1b, _, _ := startDurableShard(t, addrs[1], filepath.Join(base, "1"), 1, 3)
	rec := srv1b.Stats().Recovery
	if rec.Tables != 2 { // big#noenc + big#seabed
		t.Fatalf("restarted shard recovered %d tables, want 2 (%+v)", rec.Tables, rec)
	}
	if rec.WALRecords == 0 {
		t.Fatalf("restarted shard replayed no WAL records; appends were not journaled (%+v)", rec)
	}

	// The same sharded cluster serves byte-identical results: its pooled
	// sockets to shard 1 are dead and the pool redials the restarted
	// daemon, which must hold exactly the rows it held before.
	for _, sql := range queries {
		if got := queryRows(t, proxy, sql); !reflect.DeepEqual(got, want[sql]) {
			t.Fatalf("%q: rows diverged across shard restart (%d vs %d rows)", sql, len(got), len(want[sql]))
		}
	}
	// And the table keeps growing where it left off.
	if err := proxy.Append(ctx, "big", appendBatch(t, 3270, 30), seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	after := queryRows(t, proxy, "SELECT COUNT(*) FROM big")
	if reflect.DeepEqual(after, want["SELECT COUNT(*) FROM big"]) {
		t.Fatal("post-restart append did not land")
	}
}

// appendBatch builds a plaintext batch continuing lifecycleProxy's dataset
// shape: deterministic contents from the global row position.
func appendBatch(t *testing.T, from uint64, rows int) *seabed.Table {
	t.Helper()
	m := make([]uint64, rows)
	d := make([]uint64, rows)
	for i := range m {
		pos := from + uint64(i)
		m[i] = pos % 997
		d[i] = pos%31 + 1
	}
	batch, err := seabed.BuildTable("big", []seabed.Column{
		{Name: "m", Kind: seabed.U64, U64: m},
		{Name: "d", Kind: seabed.U64, U64: d},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

// queryRows runs sql in Seabed mode and materializes the rows.
func queryRows(t *testing.T, proxy *seabed.Proxy, sql string) []seabed.Row {
	t.Helper()
	res, err := proxy.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// --- gate (b): a real daemon, a real SIGKILL -----------------------------

// buildServerBinary compiles cmd/seabed-server once per test run.
func buildServerBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available to build the daemon")
	}
	bin := filepath.Join(t.TempDir(), "seabed-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/seabed-server")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build seabed-server: %v\n%s", err, out)
	}
	return bin
}

// reservePort grabs a loopback port and releases it for a daemon to bind.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// spawnDaemon starts a durable daemon process and waits until it accepts
// connections.
func spawnDaemon(t *testing.T, bin, addr, dir string, shardIdx, shardCount int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-shard", fmt.Sprintf("%d/%d", shardIdx, shardCount),
		"-data-dir", dir,
		"-fsync", "always",
		"-workers", "4",
		"-quiet")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill() //nolint:errcheck // may already be dead
			cmd.Wait()         //nolint:errcheck // reap
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never came up", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestKillRestartSIGKILLMidAppend is gate (b): SIGKILL a shard daemon while
// an append stream is running against the fleet, restart it with the same
// -data-dir, and verify every acknowledged append survived — query results
// must be byte-identical to an in-process proxy holding the same committed
// batches.
func TestKillRestartSIGKILLMidAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills daemon subprocesses")
	}
	bin := buildServerBinary(t)
	base := t.TempDir()
	const shards = 3
	addrs := make([]string, shards)
	daemons := make([]*exec.Cmd, shards)
	for i := range addrs {
		addrs[i] = reservePort(t)
		daemons[i] = spawnDaemon(t, bin, addrs[i], filepath.Join(base, fmt.Sprint(i)), i, shards)
	}
	sc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	proxy := lifecycleProxy(t, sc)
	ctx := context.Background()

	// Append batches until one fails: after the third acknowledgement a
	// SIGKILL lands on shard 1, so an append soon dies mid-flight. Appends
	// run in Seabed mode only — a single mode keeps a failed append
	// all-or-nothing at the proxy, so the retry below re-encrypts the
	// byte-identical batch.
	const batchRows = 90
	committed := 0
	failed := -1
	killed := make(chan struct{})
	for k := 0; k < 40; k++ {
		if k == 3 {
			go func() {
				defer close(killed)
				daemons[1].Process.Signal(syscall.SIGKILL) //nolint:errcheck // target may already be gone
				daemons[1].Wait()                          //nolint:errcheck // reap
			}()
		}
		err := proxy.Append(ctx, "big", appendBatch(t, 3000+uint64(k*batchRows), batchRows), seabed.ModeSeabed)
		if err != nil {
			failed = k
			break
		}
		committed = k + 1
	}
	if failed < 0 {
		t.Fatal("no append failed despite the SIGKILL; the kill never landed mid-stream")
	}
	<-killed
	t.Logf("SIGKILL after %d committed batches; batch %d failed", committed, failed)

	// Restart the killed shard over its data directory and retry the failed
	// batch: shards that already applied their slice acknowledge the replay
	// idempotently, the restarted shard applies it fresh.
	daemons[1] = spawnDaemon(t, bin, addrs[1], filepath.Join(base, "1"), 1, shards)
	if err := proxy.Append(ctx, "big", appendBatch(t, 3000+uint64(failed*batchRows), batchRows), seabed.ModeSeabed); err != nil {
		t.Fatalf("retrying the failed append after restart: %v", err)
	}
	committed = failed + 1

	// Mirror the committed state on an in-process proxy: same upload, same
	// batches. Deterministic encryption makes equal data byte-identical.
	local := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	for k := 0; k < committed; k++ {
		if err := local.Append(ctx, "big", appendBatch(t, 3000+uint64(k*batchRows), batchRows), seabed.ModeSeabed); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{aggSQL, "SELECT COUNT(*) FROM big", "SELECT m FROM big WHERE d > 29"} {
		want := queryRows(t, local, sql)
		got := queryRows(t, proxy, sql)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: post-restart fleet diverges from committed data (%d vs %d rows)", sql, len(got), len(want))
		}
	}
}
