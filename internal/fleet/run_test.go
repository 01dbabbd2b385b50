package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// scanTable builds a rows-row table of a u64 and a string column in parts
// partitions, and the plan that scans both.
func scanTable(t *testing.T, rows, parts int) (*store.Table, func() *engine.Plan) {
	t.Helper()
	vals := make([]uint64, rows)
	tags := make([]string, rows)
	for i := range vals {
		vals[i] = uint64(i * 7)
		tags[i] = string(rune('a' + i%23))
	}
	tbl, err := store.Build("scan", []store.Column{
		{Name: "v", Kind: store.U64, U64: vals},
		{Name: "tag", Kind: store.Str, Str: tags},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, func() *engine.Plan { return &engine.Plan{Table: tbl, Project: []string{"v", "tag"}} }
}

// collect is a sink that keeps every row it is handed, and the rows.
func collect() (engine.ScanSink, *[]engine.ScanRow) {
	var got []engine.ScanRow
	return func(rows []engine.ScanRow) error {
		got = append(got, rows...)
		return nil
	}, &got
}

// sameScan reports the first difference between two scans, "" when they hold
// the same rows in the same order.
func sameScan(got, want []engine.ScanRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.U64(0) != w.U64(0) || g.Str(1) != w.Str(1) {
			return fmt.Sprintf("row %d is id %d (%d, %q), want id %d (%d, %q)", i, g.ID, g.U64(0), g.Str(1), w.ID, w.U64(0), w.Str(1))
		}
	}
	return ""
}

// lyingRelay stands in front of one daemon and forwards every frame both
// ways. While armed, it rewrites the next scan chunk the daemon sends so that
// every identifier in it is shifted by shift, then disarms.
type lyingRelay struct {
	addr  string
	armed atomic.Bool
}

func startLyingRelay(t *testing.T, target string, shift uint64) *lyingRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &lyingRelay{addr: ln.Addr().String()}
	var mu sync.Mutex
	var conns []net.Conn
	var wg sync.WaitGroup
	track := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			daemon, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			track(client)
			track(daemon)
			wg.Add(2)
			go func() { // client → daemon, frame by frame
				defer wg.Done()
				defer daemon.Close()
				for {
					typ, p, err := wire.ReadFrame(client)
					if err != nil || wire.WriteFrame(daemon, typ, p) != nil {
						return
					}
				}
			}()
			go func() { // daemon → client, one chunk shifted while armed
				defer wg.Done()
				defer client.Close()
				for {
					typ, p, err := wire.ReadFrame(daemon)
					if err != nil {
						return
					}
					if typ == wire.MsgResultChunk && r.armed.Load() {
						if p, err = shiftChunk(p, shift); err != nil {
							return
						}
						r.armed.Store(false)
					}
					if wire.WriteFrame(client, typ, p) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return r
}

// shiftChunk re-encodes a scan chunk with every identifier shifted by shift.
func shiftChunk(p []byte, shift uint64) ([]byte, error) {
	rows, err := wire.DecodeScanChunk(p, wire.Version)
	if err != nil || len(rows) == 0 {
		return p, err
	}
	ch := rows[0].Chunk()
	lie := &engine.ScanChunk{IDs: make([]uint64, len(ch.IDs)), Cols: ch.Cols}
	kinds := make([]store.Kind, len(ch.Cols))
	for j := range ch.Cols {
		kinds[j] = ch.Cols[j].Kind
	}
	for i, id := range ch.IDs {
		lie.IDs[i] = id + shift
	}
	return wire.AppendScanChunk(nil, lie.Rows(), kinds)
}

// TestFleetRefusesScanRowOutsideRange: a daemon that returns a scan row whose
// identifier lies outside the range it was asked to scan fails the query
// with an *OutOfRangeError naming it — through Run, which materializes the
// scan, and through RunStream, whose sink never sees the row. The daemon
// answered, so nobody is marked down and the range does not fail over.
func TestFleetRefusesScanRowOutsideRange(t *testing.T) {
	const rows, shift = 3000, 1 << 40
	d0 := startDaemonAt(t, "", 0, 3, engine.Config{})
	d1 := startDaemonAt(t, "", 1, 3, engine.Config{})
	d2 := startDaemonAt(t, "", 2, 3, engine.Config{})
	relay := startLyingRelay(t, d1.addr, shift)
	c, err := Dial([]string{d0.addr, relay.addr, d2.addr}, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, plan := scanTable(t, rows, 6)
	ctx := context.Background()
	if err := c.RegisterTable(ctx, "scan@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	want, err := engine.NewCluster(engine.Config{Workers: 2}).Run(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	// Unarmed, the relay is honest.
	if res, err := c.Run(ctx, plan()); err != nil || sameScan(res.Scan, want.Scan) != "" {
		t.Fatalf("through the honest relay: %v", err)
	}

	check := func(how string, err error) {
		t.Helper()
		var oor *OutOfRangeError
		if !errors.As(err, &oor) {
			t.Fatalf("%s: %v, want an *OutOfRangeError", how, err)
		}
		if oor.Range != 1 || oor.Daemon != 1 || oor.Addr != relay.addr || oor.ID >= oor.Lo && oor.ID <= oor.Hi ||
			!strings.Contains(err.Error(), relay.addr) {
			t.Fatalf("%s: %+v (%v), want range 1's row refused naming daemon 1 at %s", how, oor, err, relay.addr)
		}
		if st := c.Stats(); len(st.Down) != 0 || st.Failovers != 0 {
			t.Fatalf("%s: a lying daemon was marked down (%v) or failed over (%d)", how, st.Down, st.Failovers)
		}
	}

	relay.armed.Store(true)
	_, err = c.Run(ctx, plan())
	check("Run", err)

	relay.armed.Store(true)
	sink, got := collect()
	_, err = c.RunStream(ctx, plan(), sink)
	check("RunStream", err)
	for _, r := range *got {
		if r.ID > rows {
			t.Fatalf("the sink saw the shifted row %d", r.ID)
		}
	}
}

// TestFleetStreamFailsMidStream pins the stream rule of the shared attempt
// loop: range 0's daemon dies after its first chunk reached the sink, so a
// failover would deliver those rows again — RunStream fails the query
// instead, and no identifier reaches the sink twice. Every map task sleeps
// (and RealParallelism 1 runs them one by one), so the range is still
// streaming when the sink stops the daemon on its first chunk.
func TestFleetStreamFailsMidStream(t *testing.T) {
	c, daemons := dialTestFleet(t, 2, func(int) engine.Config {
		return engine.Config{Workers: 4, RealParallelism: 1, TaskSleep: 200 * time.Millisecond}
	})
	tbl, plan := scanTable(t, 1200, 12)
	ctx := context.Background()
	if err := c.RegisterTable(ctx, "scan@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	_, err := c.RunStream(ctx, plan(), func(rows []engine.ScanRow) error {
		if len(seen) == 0 {
			daemons[0].stop()
		}
		for _, r := range rows {
			if seen[r.ID] {
				t.Errorf("identifier %d reached the sink twice", r.ID)
			}
			seen[r.ID] = true
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "failed mid-stream") {
		t.Fatalf("RunStream returned %v, want the mid-stream failure", err)
	}
	if len(seen) == 0 {
		t.Fatal("the sink saw no rows")
	}
	if st := c.Stats(); st.Failovers != 0 {
		t.Errorf("a range that had delivered rows failed over %d times", st.Failovers)
	}
}

// TestFleetStreamFailsOverBeforeDelivery: with range 0's daemon stopped
// before the scan starts, the range has delivered nothing when its attempt
// fails, so it fails over silently to the next replica, and the streamed
// rows are Run's.
func TestFleetStreamFailsOverBeforeDelivery(t *testing.T) {
	c, daemons := dialTestFleet(t, 2, uniformCfg)
	tbl, plan := scanTable(t, 3000, 6)
	ctx := context.Background()
	if err := c.RegisterTable(ctx, "scan@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	daemons[0].stop()
	sink, got := collect()
	if _, err := c.RunStream(ctx, plan(), sink); err != nil {
		t.Fatalf("RunStream with range 0's primary stopped: %v", err)
	}
	if diff := sameScan(*got, want.Scan); diff != "" {
		t.Fatalf("streamed rows are not Run's: %s", diff)
	}
	if st := c.Stats(); st.Failovers == 0 || len(st.Down) != 1 || st.Down[0] != 0 {
		t.Errorf("stats %+v, want a failover and daemon 0 down", st)
	}
}
