// Fleet end-to-end tests: the kill-and-heal and hedged-scatter acceptance
// gates of the replicated, self-healing fleet, driven through the public
// facade (DialFleet) and fully race-instrumented.
//
//	(a) A 3-daemon R=2 durable fleet serves a NoEnc/Seabed/Paillier workload;
//	    one daemon is killed mid-workload and every query still succeeds with
//	    rows byte-identical to an in-process mirror (replica failover). The
//	    dead daemon restarts on an empty disk and heals daemon-to-daemon over
//	    the segment-shipping frames: its segments are the replicas' bytes,
//	    tail included, under local names; writes resume, and results stay
//	    identical.
//	(b) A fleet with one injected straggler daemon and an armed hedge
//	    quantile answers with correct rows by re-issuing the straggler's
//	    sub-query to a second replica — visible in both the coordinator's and
//	    the daemons' hedge counters — and cancels the losing attempt.
package seabed_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seabed"
)

// startFleetDaemon serves one fleet daemon: a seabed-server with shard
// identity i/n on addr (":0" picks a port), durable over dir when non-empty,
// whose engine stalls each map task by sleep (straggler and kill-window
// injection). The returned stop is idempotent.
func startFleetDaemon(t *testing.T, addr, dir string, i, n int, sleep time.Duration) (string, *seabed.Server, *seabed.DurableStore, func()) {
	t.Helper()
	srv := seabed.NewServer(seabed.NewCluster(seabed.ClusterConfig{
		Workers: 4, RealParallelism: 2, TaskSleep: sleep,
	}))
	srv.ShardIndex, srv.ShardCount = i, n
	var d *seabed.DurableStore
	if dir != "" {
		var err error
		d, err = seabed.OpenDurableStore(seabed.DurableOptions{Dir: dir, Fsync: seabed.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		srv.UseDurable(d)
	}
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
		if d != nil {
			d.Close() //nolint:errcheck // racing test teardown
		}
	}
	t.Cleanup(stop)
	return ln.Addr().String(), srv, d, stop
}

// fleetWorkloadQueries enumerates the (sql, mode) pairs of the fleet
// acceptance workload: aggregates in all three encryption modes, the scan in
// the two modes whose projections are cheap enough to run repeatedly.
func fleetWorkloadQueries() []struct {
	sql  string
	mode seabed.Mode
} {
	var qs []struct {
		sql  string
		mode seabed.Mode
	}
	for _, sql := range []string{aggSQL, "SELECT COUNT(*) FROM big"} {
		for _, mode := range []seabed.Mode{seabed.ModeNoEnc, seabed.ModeSeabed, seabed.ModePaillier} {
			qs = append(qs, struct {
				sql  string
				mode seabed.Mode
			}{sql, mode})
		}
	}
	for _, mode := range []seabed.Mode{seabed.ModeNoEnc, seabed.ModeSeabed} {
		qs = append(qs, struct {
			sql  string
			mode seabed.Mode
		}{"SELECT m FROM big WHERE d > 29", mode})
	}
	return qs
}

// modeRows runs sql under mode and materializes the rows.
func modeRows(t *testing.T, proxy *seabed.Proxy, sql string, mode seabed.Mode) []seabed.Row {
	t.Helper()
	res, err := proxy.Query(context.Background(), sql, seabed.WithMode(mode))
	if err != nil {
		t.Fatalf("%v %q: %v", mode, sql, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%v %q: %v", mode, sql, err)
	}
	return rows
}

// TestFleetFailoverAndHealEndToEnd is gate (a): kill one of three durable
// daemons mid-workload under R=2 replication, then heal it from its replica
// neighbors over segment shipping.
func TestFleetFailoverAndHealEndToEnd(t *testing.T) {
	ctx := context.Background()
	base := t.TempDir()
	addrs := make([]string, 3)
	stores := make([]*seabed.DurableStore, 3)
	stops := make([]func(), 3)
	for i := range addrs {
		addrs[i], _, stores[i], stops[i] = startFleetDaemon(t, "127.0.0.1:0", filepath.Join(base, fmt.Sprint(i)), i, 3, 2*time.Millisecond)
	}
	fc, err := seabed.DialFleet(addrs, seabed.FleetOptions{
		Replicas:  2,
		EpochPath: filepath.Join(base, "epoch.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() }) //nolint:errcheck // test teardown

	// The in-process mirror holds the same plaintext under the same keys: the
	// fleet must match it byte for byte in every phase. appendBatch(0, 3000)
	// reproduces lifecycleProxy's dataset exactly, so the Paillier upload adds
	// the baseline mode on top of the NoEnc+Seabed fixture.
	local := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	if err := local.Ring().EnsurePaillier(256); err != nil { // small key: test speed
		t.Fatal(err)
	}
	if err := local.Upload(ctx, "big", appendBatch(t, 0, 3000), seabed.ModePaillier); err != nil {
		t.Fatal(err)
	}
	fleetP := local.WithCluster(fc)
	if err := fleetP.SyncTables(ctx); err != nil {
		t.Fatal(err)
	}

	// workload runs every (sql, mode) pair against the fleet and demands rows
	// identical to the in-process mirror — "zero failed queries" is the gate,
	// so any error inside is fatal.
	workload := func(phase string) {
		t.Helper()
		for _, q := range fleetWorkloadQueries() {
			want := modeRows(t, local, q.sql, q.mode)
			got := modeRows(t, fleetP, q.sql, q.mode)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %v %q: fleet rows diverge from in-process mirror (%d vs %d rows)",
					phase, q.mode, q.sql, len(got), len(want))
			}
		}
	}
	workload("healthy fleet")

	// Kill daemon 1 while the workload runs: in-flight sub-queries on it die
	// mid-run and fail over; later queries route around the corpse.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(30 * time.Millisecond)
		stops[1]()
	}()
	workload("daemon dying mid-workload")
	<-killed
	workload("daemon 1 down")
	st := fc.Stats()
	if st.Failovers == 0 {
		t.Fatal("daemon 1 died but the coordinator recorded no failovers")
	}
	if !reflect.DeepEqual(st.Down, []int{1}) {
		t.Fatalf("down set = %v, want [1]", st.Down)
	}

	// A streamed scan fails over too (the dead replica never delivered rows).
	streamed, err := fleetP.Query(ctx, "SELECT m FROM big WHERE d > 29", seabed.WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	var streamedRows []seabed.Row
	for row, err := range streamed.Rows() {
		if err != nil {
			t.Fatalf("streamed scan over degraded fleet: %v", err)
		}
		streamedRows = append(streamedRows, row)
	}
	if want := modeRows(t, local, "SELECT m FROM big WHERE d > 29", seabed.ModeSeabed); !reflect.DeepEqual(streamedRows, want) {
		t.Fatalf("degraded streamed scan diverges from mirror (%d vs %d rows)", len(streamedRows), len(want))
	}

	// Writes demand the full fleet: an append acknowledged by one replica of
	// a range would silently diverge the set.
	if err := fleetP.Append(ctx, "big", appendBatch(t, 3000, 90), seabed.ModeNoEnc); err == nil {
		t.Fatal("append succeeded against a degraded fleet")
	} else if !strings.Contains(err.Error(), "heal") {
		t.Fatalf("degraded append error %q does not point at healing", err)
	}

	// Restart daemon 1 on an EMPTY directory at its old address and heal: the
	// coordinator orders it to pull every range it hosts daemon-to-daemon
	// from a live replica — no proxy re-upload.
	_, _, store1b, _ := startFleetDaemon(t, addrs[1], filepath.Join(base, "1-reborn"), 1, 3, 2*time.Millisecond)
	if err := fc.Heal(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if st := fc.Stats(); len(st.Down) != 0 {
		t.Fatalf("down set = %v after heal, want empty", st.Down)
	}

	// The healed daemon holds its sources' bytes under local names: its
	// committed segments are, in (size, CRC) order, the source's committed
	// segments followed by the source's WAL-tail image, which the heal
	// committed as one more segment. Daemon 1 hosts range 0 (pulled from
	// daemon 0, its co-replica) and range 1 (pulled from daemon 2).
	type piece struct {
		size int
		crc  uint32
	}
	// pieces lists what d ships for ref as (size, CRC) pairs: its committed
	// segments, then its WAL tail's image, if it has one.
	pieces := func(d *seabed.DurableStore, ref string) (ps []piece, tail bool) {
		paths, pending, err := d.Shipment(ref)
		if err != nil {
			t.Fatalf("shipment of %q: %v", ref, err)
		}
		var imgs [][]byte
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("segment %s of %q: %v", path, ref, err)
			}
			imgs = append(imgs, data)
		}
		if pending != nil {
			var buf bytes.Buffer
			if _, err := pending.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, buf.Bytes())
		}
		for _, img := range imgs {
			ps = append(ps, piece{len(img), crc32.ChecksumIEEE(img)})
		}
		return ps, pending != nil
	}
	for _, table := range []string{"big@NoEnc", "big@Seabed", "big@Paillier"} {
		for _, src := range []struct{ k, daemon int }{{0, 0}, {1, 2}} {
			ref := fmt.Sprintf("%s#r%d", table, src.k)
			want, _ := pieces(stores[src.daemon], ref)
			if len(want) == 0 {
				t.Fatalf("replica daemon %d ships no segments for %q; fixture broken", src.daemon, ref)
			}
			got, tail := pieces(store1b, ref)
			if tail {
				t.Fatalf("healed %q has a WAL tail; the heal commits every piece", ref)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("healed %q segments %+v are not the replica's pieces %+v", ref, got, want)
			}
		}
	}

	// The healed fleet accepts writes again, and the grown table still
	// matches the mirror in every mode (the mirror grows through the shared
	// proxy tables).
	if err := fleetP.Append(ctx, "big", appendBatch(t, 3000, 90), seabed.ModeNoEnc, seabed.ModeSeabed, seabed.ModePaillier); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	workload("after heal and append")
}

// TestFleetHedgesStragglerEndToEnd is gate (b): one daemon stalls every map
// task, the hedge quantile is armed, and the straggling range's sub-query is
// re-issued to its second replica — the query completes fast and correct,
// and the losing slow attempt is canceled on its daemon.
func TestFleetHedgesStragglerEndToEnd(t *testing.T) {
	ctx := context.Background()
	addrs := make([]string, 3)
	servers := make([]*seabed.Server, 3)
	for i := range addrs {
		sleep := time.Duration(0)
		if i == 0 {
			sleep = 250 * time.Millisecond // the straggler
		}
		addrs[i], servers[i], _, _ = startFleetDaemon(t, "127.0.0.1:0", "", i, 3, sleep)
	}
	fc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 2, HedgeQuantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() }) //nolint:errcheck // test teardown

	local := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	hedged := local.WithCluster(fc)
	if err := hedged.SyncTables(ctx); err != nil {
		t.Fatal(err)
	}

	want := queryRows(t, local, aggSQL)
	got := queryRows(t, hedged, aggSQL)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged fleet rows diverge from in-process mirror (%d vs %d rows)", len(got), len(want))
	}
	st := fc.Stats()
	if st.Hedges == 0 {
		t.Fatal("straggler daemon never triggered a hedge")
	}
	if len(st.Down) != 0 {
		t.Fatalf("hedging marked daemons down: %v", st.Down)
	}
	// The hedge went to a healthy replica and is counted on its server …
	var hedgedRuns uint64
	for _, srv := range servers[1:] {
		hedgedRuns += srv.Stats().HedgedRuns
	}
	if hedgedRuns == 0 {
		t.Fatal("no replica daemon counted a hedged run")
	}
	// … and the losing slow attempt was canceled rather than left running.
	if st := drainStats(t, servers[0]); st.Canceled == 0 {
		t.Fatal("straggler daemon never saw its losing attempt canceled")
	}
}
