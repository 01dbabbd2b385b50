package server

import (
	"context"
	"net"
	"testing"
	"time"

	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// serveOn starts srv on a loopback listener, returning the Serve result
// channel (buffered, so the goroutine never leaks) and the address.
func serveOn(t *testing.T, srv *Server) (chan error, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close() //nolint:errcheck // teardown; Shutdown tests already stopped it
	})
	return done, ln.Addr().String()
}

// slowServer returns a server whose map tasks stall, so an in-flight run is
// observably in flight, plus a registered 16-partition table and a run
// payload for it.
func slowServer(t *testing.T, sleep time.Duration) (*Server, []byte) {
	t.Helper()
	srv := New(engine.NewCluster(engine.Config{
		Workers: 2, RealParallelism: 1, TaskSleep: sleep,
	}))
	tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: make([]uint64, 1600)}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("t@NoEnc", imageOf(t, tbl)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodePlan(&wire.PlanRequest{
		TableRef: "t@NoEnc",
		Plan:     &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}},
	}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	return srv, payload
}

// awaitRunsActive polls Stats until the in-flight gauge reaches want.
func awaitRunsActive(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().RunsActive != want {
		if time.Now().After(deadline) {
			t.Fatalf("RunsActive = %d, want %d", srv.Stats().RunsActive, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelFrameAbortsRun drives the v3 Cancel frame at the raw protocol
// level: a Cancel mid-run makes the server answer the run with an error
// promptly, free the slot (RunsActive back to 0, Canceled counted), and keep
// the connection serving.
func TestCancelFrameAbortsRun(t *testing.T) {
	srv, payload := slowServer(t, 20*time.Millisecond)
	_, addr := serveOn(t, srv)
	conn := dialRaw(t, addr)
	handshake(t, conn)

	if err := wire.WriteFrame(conn, wire.MsgRun, payload); err != nil {
		t.Fatal(err)
	}
	awaitRunsActive(t, srv, 1)
	start := time.Now()
	if err := wire.WriteFrame(conn, wire.MsgCancel, nil); err != nil {
		t.Fatal(err)
	}
	mt, resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgError {
		t.Fatalf("canceled run answered %v, want error", mt)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel-to-response took %v, want < 1s (full run is ~320ms of sleep)", elapsed)
	}
	_ = resp
	st := srv.Stats()
	if st.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", st.Canceled)
	}
	awaitRunsActive(t, srv, 0)

	// The connection still serves: a fresh run completes.
	if err := wire.WriteFrame(conn, wire.MsgRun, payload); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgResult {
		t.Fatalf("run after cancel: (%v, %v), want result", mt, err)
	}
}

// TestStrayCancelIgnored pins the race where a Cancel crosses the response
// in flight: a Cancel with nothing running is silently ignored and the
// connection keeps its request/response accounting.
func TestStrayCancelIgnored(t *testing.T) {
	srv, payload := slowServer(t, 0)
	_, addr := serveOn(t, srv)
	conn := dialRaw(t, addr)
	handshake(t, conn)

	if err := wire.WriteFrame(conn, wire.MsgCancel, nil); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgRun, payload); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgResult {
		t.Fatalf("run after stray cancel: (%v, %v), want result", mt, err)
	}
	if st := srv.Stats(); st.Canceled != 0 {
		t.Fatalf("stray cancel counted as a cancellation: %+v", st)
	}
}

// TestShutdownCancelsInflightAndDrains is the graceful-shutdown gate:
// Shutdown stops accepting, cancels the in-flight query through its context
// (the client still gets the run's terminal error frame), and drains the
// connection goroutines within the context's budget.
func TestShutdownCancelsInflightAndDrains(t *testing.T) {
	srv, payload := slowServer(t, 20*time.Millisecond)
	done, addr := serveOn(t, srv)
	conn := dialRaw(t, addr)
	handshake(t, conn)

	if err := wire.WriteFrame(conn, wire.MsgRun, payload); err != nil {
		t.Fatal(err)
	}
	awaitRunsActive(t, srv, 1)

	// The client should still receive the canceled run's terminal frame.
	type resp struct {
		mt  wire.MsgType
		err error
	}
	respc := make(chan resp, 1)
	go func() {
		mt, _, err := wire.ReadFrame(conn)
		respc <- resp{mt, err}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v; in-flight work was not canceled", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	r := <-respc
	if r.err != nil || r.mt != wire.MsgError {
		t.Fatalf("in-flight run ended with (%v, %v), want a canceled-error frame", r.mt, r.err)
	}
	st := srv.Stats()
	if st.Canceled == 0 {
		t.Fatal("shutdown did not count the canceled run")
	}
	if st.ConnsActive != 0 {
		t.Fatalf("connections survived shutdown: %d", st.ConnsActive)
	}
	// New connections are refused after shutdown.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestShutdownIdleServer drains immediately with nothing in flight.
func TestShutdownIdleServer(t *testing.T) {
	srv, _ := slowServer(t, 0)
	done, _ := serveOn(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown returned %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}
