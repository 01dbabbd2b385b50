package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"seabed/internal/wire"
)

// cancelDrainTimeout bounds how long a canceled exchange waits for the
// server's terminal frame after firing a Cancel. A cooperative server
// answers within a round trip, letting the connection return to the pool
// clean; a stalled or hostile one runs into this deadline and the
// connection is discarded instead — cancellation never blocks on the
// server's goodwill.
const cancelDrainTimeout = 500 * time.Millisecond

// Pool is a per-endpoint TCP connection pool speaking the wire protocol: it
// dials, handshakes, and recycles connections to one seabed-server, and runs
// single request/response round trips over them. RemoteCluster composes one
// Pool per endpoint, so a coordinator's scatter requests to different daemons
// never queue behind one socket or one lock.
//
// Every round trip checks a connection out for exclusive use, returns it on
// success, and discards it on transport errors, so a poisoned socket never
// serves a second request. A transport failure on a pooled connection —
// typically a server that restarted while the socket sat idle — is retried
// once on a freshly dialed one.
type Pool struct {
	addr    string
	workers int
	// shardIndex/shardCount hold the shard identity the server declared at
	// handshake (count 0 = none declared).
	shardIndex, shardCount int

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// DialPool connects to a seabed-server, performs the version handshake, and
// returns a pool primed with the handshaked connection. The handshake
// metadata (worker count, shard identity) is recorded here and only verified
// by later dials, so it is immutable — readable without a lock — afterwards.
func DialPool(addr string) (*Pool, error) {
	p := &Pool{addr: addr}
	conn, workers, shardIndex, shardCount, err := p.handshake()
	if err != nil {
		return nil, err
	}
	p.workers, p.shardIndex, p.shardCount = workers, shardIndex, shardCount
	p.put(conn)
	return p, nil
}

// Addr returns the server address this pool dials.
func (p *Pool) Addr() string { return p.addr }

// Workers returns the worker count the server reported at handshake.
func (p *Pool) Workers() int { return p.workers }

// Shard returns the shard identity the server declared at handshake; count
// is 0 for a server that declared none.
func (p *Pool) Shard() (index, count int) { return p.shardIndex, p.shardCount }

// ServerError is a request-level failure the daemon reported in a MsgError
// frame: the daemon was reached, read the request and answered, so it says
// nothing about the daemon's health. Transport and protocol failures are
// never ServerErrors.
type ServerError struct {
	// Msg is the daemon's message.
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return "remote: server: " + e.Msg }

// dial opens and handshakes one connection, verifying the server still
// declares the shard identity recorded at DialPool. Daemons are restartable
// (a durable seabed-server comes back on the same address), so a redial may
// reach a different process than the first handshake did — if that process
// was restarted with the wrong -shard flag, serving it would silently query
// misplaced rows, so the mismatch fails the dial instead.
func (p *Pool) dial() (net.Conn, error) {
	conn, _, shardIndex, shardCount, err := p.handshake()
	if err != nil {
		return nil, err
	}
	if shardIndex != p.shardIndex || shardCount != p.shardCount {
		conn.Close()
		return nil, fmt.Errorf("remote: server %s now declares shard %d/%d, but declared %d/%d when first dialed (restarted with a different -shard flag?)",
			p.addr, shardIndex, shardCount, p.shardIndex, p.shardCount)
	}
	return conn, nil
}

// handshake opens one connection and performs the Hello/Welcome exchange on
// it.
func (p *Pool) handshake() (conn net.Conn, workers, shardIndex, shardCount int, err error) {
	conn, err = net.Dial("tcp", p.addr)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("remote: dial %s: %w", p.addr, err)
	}
	workers, shardIndex, shardCount, err = p.hello(conn)
	if err != nil {
		conn.Close()
		return nil, 0, 0, 0, err
	}
	return conn, workers, shardIndex, shardCount, nil
}

// hello runs the Hello/Welcome exchange on a fresh connection. A server that
// answers with any version but wire.Version is refused.
func (p *Pool) hello(conn net.Conn) (workers, shardIndex, shardCount int, err error) {
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.EncodeHello()); err != nil {
		return 0, 0, 0, err
	}
	t, payload, err := wire.ReadFrame(conn)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("remote: handshake with %s: %w", p.addr, err)
	}
	if t == wire.MsgError {
		return 0, 0, 0, fmt.Errorf("remote: server %s: %s", p.addr, wire.DecodeError(payload))
	}
	if t != wire.MsgWelcome {
		return 0, 0, 0, fmt.Errorf("remote: handshake with %s: unexpected %v frame", p.addr, t)
	}
	version, workers, shardIndex, shardCount, err := wire.DecodeWelcome(payload)
	// Checked before the decode error so a server of another version — whose
	// Welcome may also fail to decode — gets the actionable diagnosis instead
	// of the truncated-payload symptom. A version-0 decode failure really is
	// a malformed frame; report it as such.
	if version != wire.Version && (version != 0 || err == nil) {
		return 0, 0, 0, fmt.Errorf("remote: server %s negotiated protocol v%d, want v%d", p.addr, version, wire.Version)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	return workers, shardIndex, shardCount, nil
}

// get checks a connection out of the pool, dialing a fresh one if none is
// idle. fromPool reports which, so callers know a transport failure may just
// be a stale pooled socket.
func (p *Pool) get() (conn net.Conn, fromPool bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errors.New("remote: cluster is closed")
	}
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, true, nil
	}
	p.mu.Unlock()
	conn, err = p.dial()
	return conn, false, err
}

// put returns a healthy connection to the pool.
func (p *Pool) put(conn net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle = append(p.idle, conn)
	p.mu.Unlock()
}

// RoundTrip sends one request frame and reads its single response frame; a
// MsgResultChunk frame in its place is a protocol error. Server-reported
// failures surface as a *ServerError carrying the server's message; the
// response type is returned for the caller to validate.
func (p *Pool) RoundTrip(ctx context.Context, reqType wire.MsgType, req []byte) (wire.MsgType, []byte, error) {
	return p.Exchange(ctx, reqType, req, wire.MsgResultChunk, nil)
}

// Exchange runs one request over a pooled connection: the request frame,
// zero or more frames of type chunk delivered to onChunk (a run's
// MsgResultChunk frames, a fetched table's MsgSegmentData frames), and the
// terminal response frame, which it returns.
//
// Cancellation: when ctx dies mid-exchange, a best-effort MsgCancel frame is
// sent and the exchange keeps draining (without delivering chunks) until the
// terminal frame lands or cancelDrainTimeout passes — the common case
// returns the connection to the pool clean, the slow case discards it.
// Either way Exchange returns ctx.Err() promptly.
//
// A transport failure on a pooled connection before any response frame
// arrived — typically a server that restarted while the socket sat idle —
// is retried once on a freshly dialed one. Once any frame has been read the
// socket was demonstrably live and the request is not retriable: the server
// may have partially executed it, and the caller may have observed chunks.
func (p *Pool) Exchange(ctx context.Context, reqType wire.MsgType, req []byte, chunk wire.MsgType, onChunk func(payload []byte) error) (wire.MsgType, []byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		conn, fromPool, err := p.get()
		if err != nil {
			return 0, nil, err
		}
		respType, payload, err, retriable := p.exchange(ctx, conn, reqType, req, chunk, onChunk)
		if err != nil {
			if fromPool && retriable {
				continue // stale pooled socket: retry on a fresh dial
			}
			return 0, nil, err
		}
		if respType == wire.MsgError {
			return respType, nil, &ServerError{Msg: wire.DecodeError(payload)}
		}
		return respType, payload, nil
	}
}

// exchange performs one request exchange on conn, pooling it when it ends
// with the protocol in a clean state and closing it on transport errors.
// retriable reports whether the caller may safely re-run the request on a
// fresh connection.
func (p *Pool) exchange(ctx context.Context, conn net.Conn, reqType wire.MsgType, req []byte, chunk wire.MsgType, onChunk func([]byte) error) (_ wire.MsgType, _ []byte, err error, retriable bool) {
	if err := wire.WriteFrame(conn, reqType, req); err != nil {
		conn.Close()
		return 0, nil, err, true
	}

	// Cancellation watcher: the moment ctx dies, fire a Cancel frame at the
	// server (so it frees the query slot) and bound the drain. The watcher
	// owns the connection's write side until finish() joins it, so a Cancel
	// write can never interleave with a later request's frames.
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-stop:
		case <-ctx.Done():
			wire.WriteFrame(conn, wire.MsgCancel, nil)               //nolint:errcheck // best-effort
			conn.SetReadDeadline(time.Now().Add(cancelDrainTimeout)) //nolint:errcheck // best-effort
		}
	}()
	finish := func() {
		close(stop)
		<-watcherDone
	}

	frameRead := false // any frame arrived: the socket was live, not a stale pooled one
	var sinkErr error  // onChunk failure: abort the run, keep draining
	for {
		respType, payload, rerr := wire.ReadFrame(conn)
		if rerr != nil {
			finish()
			conn.Close()
			if cerr := ctx.Err(); cerr != nil {
				return 0, nil, cerr, false
			}
			if sinkErr != nil {
				// The drain after a sink failure died; the sink failure is
				// the error worth reporting, and re-running the query would
				// just hit it again.
				return 0, nil, sinkErr, false
			}
			return 0, nil, fmt.Errorf("remote: read %v response: %w", reqType, rerr), !frameRead
		}
		frameRead = true
		if respType == chunk {
			// Chunks after cancellation or a sink failure drain silently.
			if ctx.Err() != nil || sinkErr != nil {
				continue
			}
			if onChunk == nil {
				finish()
				conn.Close()
				return 0, nil, fmt.Errorf("remote: unexpected %v frame in %v response", respType, reqType), false
			}
			if cerr := onChunk(payload); cerr != nil {
				// Abort server-side and drain to the terminal frame, exactly
				// like a context cancellation.
				sinkErr = cerr
				wire.WriteFrame(conn, wire.MsgCancel, nil)               //nolint:errcheck // best-effort
				conn.SetReadDeadline(time.Now().Add(cancelDrainTimeout)) //nolint:errcheck // best-effort
				continue
			}
			continue
		}
		// Terminal frame: the exchange is complete and the connection clean.
		finish()
		conn.SetReadDeadline(time.Time{}) //nolint:errcheck // pooling best-effort
		p.put(conn)
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, cerr, false
		}
		if sinkErr != nil {
			return 0, nil, sinkErr, false
		}
		return respType, payload, nil, false
	}
}

// Close releases the pool. In-flight requests finish on their checked-out
// connections, which are then discarded.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	var first error
	for _, conn := range p.idle {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.idle = nil
	return first
}
