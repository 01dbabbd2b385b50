package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/wire"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := New(engine.NewCluster(engine.Config{Workers: 4}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func handshake(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.EncodeHello()); err != nil {
		t.Fatal(err)
	}
	mt, _, err := wire.ReadFrame(conn)
	if err != nil || mt != wire.MsgWelcome {
		t.Fatalf("handshake: (%v, %v), want welcome", mt, err)
	}
}

// TestRejectsWrongProtocolVersion pins the frozen handshake: there is one
// protocol version, and a Hello naming an older or a newer one is answered
// with the version MsgError, never a Welcome.
func TestRejectsWrongProtocolVersion(t *testing.T) {
	_, addr := startServer(t)
	for _, v := range []uint64{1, wire.Version - 1, wire.Version + 3} {
		conn := dialRaw(t, addr)
		if err := wire.WriteFrame(conn, wire.MsgHello, binary.AppendUvarint(nil, v)); err != nil {
			t.Fatal(err)
		}
		mt, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("server: protocol version %d, want %d", v, wire.Version)
		if mt != wire.MsgError || wire.DecodeError(payload) != want {
			t.Fatalf("hello v%d: got (%v, %q), want error %q", v, mt, wire.DecodeError(payload), want)
		}
	}
}

func TestDropsConnectionOnNonHelloFirstFrame(t *testing.T) {
	_, addr := startServer(t)
	conn := dialRaw(t, addr)
	if err := wire.WriteFrame(conn, wire.MsgRun, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("server answered a connection that skipped the handshake")
	}
}

func TestUnknownRequestAnswersErrorAndKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	conn := dialRaw(t, addr)
	handshake(t, conn)
	if err := wire.WriteFrame(conn, wire.MsgWelcome, nil); err != nil { // not a request type
		t.Fatal(err)
	}
	mt, _, err := wire.ReadFrame(conn)
	if err != nil || mt != wire.MsgError {
		t.Fatalf("got (%v, %v), want an error frame", mt, err)
	}
	// The connection must survive a bad request.
	if err := wire.WriteFrame(conn, wire.MsgRun, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if mt, _, err = wire.ReadFrame(conn); err != nil || mt != wire.MsgError {
		t.Fatalf("after bad request: (%v, %v), want an error frame", mt, err)
	}
}

func TestRunAgainstUnknownRefAnswersError(t *testing.T) {
	_, addr := startServer(t)
	conn := dialRaw(t, addr)
	handshake(t, conn)
	payload, err := wire.EncodePlan(&wire.PlanRequest{
		TableRef: "ghost@Seabed",
		Plan:     &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggCount}}},
	}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgRun, payload); err != nil {
		t.Fatal(err)
	}
	mt, resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgError || !strings.Contains(wire.DecodeError(resp), "unknown table") {
		t.Fatalf("got (%v, %q), want an unknown-table error", mt, wire.DecodeError(resp))
	}
}

// TestRegistryConcurrentAccess hammers the table registry from parallel
// registrations, lookups, and plan runs (meaningful under -race).
func TestRegistryConcurrentAccess(t *testing.T) {
	srv, _ := startServer(t)
	mkImage := func(n uint64) []byte {
		vals := make([]uint64, 100)
		for i := range vals {
			vals[i] = n
		}
		tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: vals}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return imageOf(t, tbl)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ref := fmt.Sprintf("t%d@Seabed", g%4)
			for i := 0; i < 20; i++ {
				if err := srv.RegisterTable(ref, mkImage(uint64(g))); err != nil {
					t.Error(err)
					return
				}
				if tbl, err := srv.lookup(ref); err != nil || tbl.NumRows() != 100 {
					t.Errorf("lookup %q: (%v, %v)", ref, tbl, err)
					return
				}
				srv.Stats()
			}
		}(g)
	}
	wg.Wait()
	if got := len(srv.Stats().Tables); got != 4 {
		t.Fatalf("registry holds %d refs, want 4", got)
	}
}

// TestAppendIdempotentReplay pins the at-most-once contract: a retried
// append frame whose rows are already the table's tail (the client's
// connection died after apply, before the MsgOK) is acknowledged without
// re-applying, while genuinely misplaced batches still fail.
func TestAppendIdempotentReplay(t *testing.T) {
	srv := New(engine.NewCluster(engine.Config{Workers: 2}))
	base, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: make([]uint64, 100)}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("t@Seabed", imageOf(t, base)); err != nil {
		t.Fatal(err)
	}
	mkBatch := func(startID uint64, n int) []byte {
		batch, err := store.BuildFrom("t", []store.Column{{Name: "v", Kind: store.U64, U64: make([]uint64, n)}}, 1, startID)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := wire.EncodeAppend("t@Seabed", batch)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	rows := func() uint64 {
		tbl, err := srv.lookup("t@Seabed")
		if err != nil {
			t.Fatal(err)
		}
		return tbl.NumRows()
	}

	payload := mkBatch(101, 10)
	if mt, resp := srv.handleAppend(payload); mt != wire.MsgOK {
		t.Fatalf("append: %v %s", mt, wire.DecodeError(resp))
	}
	if rows() != 110 {
		t.Fatalf("rows after append = %d, want 110", rows())
	}
	// Replay of the same frame: acknowledged, not re-applied.
	if mt, resp := srv.handleAppend(payload); mt != wire.MsgOK {
		t.Fatalf("replay: %v %s", mt, wire.DecodeError(resp))
	}
	if rows() != 110 {
		t.Fatalf("rows after replay = %d, want 110 (double-applied)", rows())
	}
	// The next fresh batch continues normally.
	if mt, resp := srv.handleAppend(mkBatch(111, 5)); mt != wire.MsgOK {
		t.Fatalf("follow-up append: %v %s", mt, wire.DecodeError(resp))
	}
	if rows() != 115 {
		t.Fatalf("rows after follow-up = %d, want 115", rows())
	}
	// A replay of rows that are no longer the tail is still acknowledged
	// without re-applying: append identifiers only grow, so a batch ending
	// at or before the table's last identifier was already applied.
	if mt, resp := srv.handleAppend(payload); mt != wire.MsgOK {
		t.Fatalf("old replay: %v %s", mt, wire.DecodeError(resp))
	}
	if rows() != 115 {
		t.Fatalf("rows after old replay = %d, want 115 (double-applied)", rows())
	}
	// A batch that overlaps the tail without being a pure replay is
	// genuinely misplaced and still fails.
	if mt, _ := srv.handleAppend(mkBatch(110, 11)); mt != wire.MsgError {
		t.Fatal("overlapping batch accepted")
	}
	if rows() != 115 {
		t.Fatalf("rows after overlap = %d, want 115", rows())
	}
	// A batch that starts past the tail is accepted with a gap: a shard
	// table owns only its slice of each global batch, so the identifiers it
	// receives skip those routed to other shards.
	if mt, resp := srv.handleAppend(mkBatch(200, 5)); mt != wire.MsgOK {
		t.Fatalf("gapped shard batch: %v %s", mt, wire.DecodeError(resp))
	}
	if rows() != 120 {
		t.Fatalf("rows after gapped batch = %d, want 120", rows())
	}
	// A batch landing inside a gap — identifiers this shard never held — is
	// not a replay and must fail, not be silently acknowledged.
	if mt, _ := srv.handleAppend(mkBatch(150, 5)); mt != wire.MsgError {
		t.Fatal("never-applied gap batch acknowledged")
	}
	if rows() != 120 {
		t.Fatalf("rows after gap batch = %d, want 120", rows())
	}
}

// TestHostileShortFramesMidStream sends a frame whose header promises more
// payload than ever arrives, mid-connection: the server must drop the
// connection without hanging other clients or panicking, and keep serving
// fresh connections.
func TestHostileShortFramesMidStream(t *testing.T) {
	srv, addr := startServer(t)
	conn := dialRaw(t, addr)
	handshake(t, conn)

	// A well-formed request first, so the short frame lands mid-stream.
	if err := wire.WriteFrame(conn, wire.MsgRun, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgError {
		t.Fatalf("malformed plan: (%v, %v), want error frame", mt, err)
	}
	// Header claims 1 KiB, then the client vanishes.
	head := []byte{byte(wire.MsgRun), 0, 0, 4, 0}
	if _, err := conn.Write(append(head, []byte("short")...)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// An oversized length prefix must also just drop the connection.
	conn2 := dialRaw(t, addr)
	handshake(t, conn2)
	if _, err := conn2.Write([]byte{byte(wire.MsgRun), 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(conn2); err == nil {
		t.Fatal("server answered a frame exceeding MaxFrame")
	}

	// The server survives both and serves fresh connections.
	conn3 := dialRaw(t, addr)
	handshake(t, conn3)
	if st := srv.Stats(); st.ConnsTotal < 3 {
		t.Fatalf("conns total = %d, want ≥ 3", st.ConnsTotal)
	}
}

// TestAppendReplayOverWire drives the at-most-once append contract through
// a real socket: the same MsgAppend frame sent twice (a client retrying
// after a lost MsgOK) is acknowledged both times and applied once.
func TestAppendReplayOverWire(t *testing.T) {
	srv, addr := startServer(t)
	base, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: make([]uint64, 100)}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("t@Seabed", imageOf(t, base)); err != nil {
		t.Fatal(err)
	}
	batch, err := store.BuildFrom("t", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{7, 8, 9}}}, 1, 101)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodeAppend("t@Seabed", batch)
	if err != nil {
		t.Fatal(err)
	}

	conn := dialRaw(t, addr)
	handshake(t, conn)
	for attempt := 0; attempt < 2; attempt++ {
		if err := wire.WriteFrame(conn, wire.MsgAppend, payload); err != nil {
			t.Fatal(err)
		}
		if mt, resp, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgOK {
			t.Fatalf("attempt %d: (%v, %q, %v), want ok", attempt, mt, wire.DecodeError(resp), err)
		}
	}
	tbl, err := srv.lookup("t@Seabed")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 103 {
		t.Fatalf("rows = %d, want 103 (replay double-applied)", tbl.NumRows())
	}
	if st := srv.Stats(); st.Appends != 2 {
		t.Fatalf("append counter = %d, want 2", st.Appends)
	}
}

// TestCloseRacesInflightQueries closes the server while queries are on the
// wire: in-flight requests may fail with connection errors, but nothing
// hangs, panics, or leaks a goroutine past Close (meaningful under -race).
func TestCloseRacesInflightQueries(t *testing.T) {
	srv := New(engine.NewCluster(engine.Config{Workers: 2}))
	vals := make([]uint64, 20000)
	tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: vals}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("t@NoEnc", imageOf(t, tbl)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	// Prove the server is accepting before racing Close against queries:
	// a successful handshake means Serve has registered the listener.
	probe := dialRaw(t, ln.Addr().String())
	handshake(t, probe)
	probe.Close()

	payload, err := wire.EncodePlan(&wire.PlanRequest{
		TableRef: "t@NoEnc",
		Plan:     &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}},
	}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return // Close won the race with the dial
			}
			defer conn.Close()
			if err := wire.WriteFrame(conn, wire.MsgHello, wire.EncodeHello()); err != nil {
				return
			}
			if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgWelcome {
				return
			}
			for i := 0; i < 50; i++ {
				if err := wire.WriteFrame(conn, wire.MsgRun, payload); err != nil {
					return // server closed mid-stream: expected
				}
				if _, _, err := wire.ReadFrame(conn); err != nil {
					return
				}
			}
		}()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	wg.Wait() // Close waited for connection goroutines; clients must unblock
}

func TestCloseThenServeAgainKeepsRegistry(t *testing.T) {
	srv := New(engine.NewCluster(engine.Config{Workers: 2}))
	tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{1}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("t@NoEnc", imageOf(t, tbl)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		conn := dialRaw(t, ln.Addr().String())
		handshake(t, conn)
		conn.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: serve returned %v", round, err)
		}
	}
	if len(srv.Stats().Tables) != 1 {
		t.Fatal("registry did not survive Close")
	}
}
