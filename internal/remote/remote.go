// Package remote implements the client side of the internal/wire protocol:
// a RemoteCluster is one connection to a seabed-server daemon, through
// which the trusted proxy drives an untrusted engine in another process or
// on another machine (§4). The fleet coordinator (internal/fleet), the
// proxy's one networked backend, composes one RemoteCluster — and therefore
// one independent pool — per daemon and addresses each daemon's tables by
// ref through RunRequest; seabed.DialCluster is the fleet of one.
//
// A RemoteCluster composes a Pool of TCP connections. Every request checks
// a connection out for one request/response exchange, so concurrent
// queries fan out over parallel connections instead of queueing behind one
// socket. Cancellation crosses the wire: when a request's context dies, the
// pool fires a protocol Cancel frame at the daemon and returns promptly,
// draining the abandoned exchange in the background of the same call.
package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// RemoteCluster is one daemon connection speaking the wire protocol over
// TCP. Its ClusterBackend half (refs, Run, RunStream) has one non-test
// caller, the remote.run rung of benchmark/ladder.go, and goes with it.
type RemoteCluster struct {
	pool *Pool

	// refs maps each server-side ref to the table last registered under it
	// (re-registering replaces it), so plans (which carry pointers) can be
	// rewritten to reference frames.
	refMu sync.RWMutex
	refs  map[string]*store.Table
}

// Dial connects to a seabed-server, performs the version handshake, and
// learns the server's worker count.
func Dial(addr string) (*RemoteCluster, error) {
	pool, err := DialPool(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteCluster{pool: pool, refs: make(map[string]*store.Table)}, nil
}

// Workers implements ClusterBackend with the server's worker count.
func (r *RemoteCluster) Workers() int { return r.pool.Workers() }

// Shard returns the shard identity the server declared at handshake (its
// -shard i/n flag); count is 0 for a server that declared none. The fleet
// coordinator uses it to verify its address list against the fleet's actual
// layout.
func (r *RemoteCluster) Shard() (index, count int) { return r.pool.Shard() }

// RegisterTable implements ClusterBackend: it ships the table to the server
// and records the pointer→ref binding used to encode later plans.
func (r *RemoteCluster) RegisterTable(ctx context.Context, ref string, t *store.Table) error {
	payload, err := wire.EncodeRegister(ref, t)
	if err != nil {
		return err
	}
	respType, _, err := r.pool.RoundTrip(ctx, wire.MsgRegister, payload)
	if err != nil {
		return err
	}
	if respType != wire.MsgOK {
		return fmt.Errorf("remote: register %q: unexpected %v response", ref, respType)
	}
	r.refMu.Lock()
	r.refs[ref] = t
	r.refMu.Unlock()
	return nil
}

// AppendTable implements ClusterBackend: only the batch crosses the wire;
// the server appends it (copy-on-write) to its copy of the table.
func (r *RemoteCluster) AppendTable(ctx context.Context, ref string, batch *store.Table) error {
	payload, err := wire.EncodeAppend(ref, batch)
	if err != nil {
		return err
	}
	respType, _, err := r.pool.RoundTrip(ctx, wire.MsgAppend, payload)
	if err != nil {
		return err
	}
	if respType != wire.MsgOK {
		return fmt.Errorf("remote: append %q: unexpected %v response", ref, respType)
	}
	return nil
}

// refOf resolves a plan's table pointer to its server-side ref.
func (r *RemoteCluster) refOf(t *store.Table) (string, error) {
	r.refMu.RLock()
	defer r.refMu.RUnlock()
	for ref, reg := range r.refs {
		if reg == t {
			return ref, nil
		}
	}
	return "", fmt.Errorf("remote: table %q was never registered with this cluster (call RegisterTable or Proxy.SyncTables)", t.Name)
}

// RunRequest executes a ref-addressed plan request on the server and returns
// the decoded result. The request's plan must carry nil Table/Join.Right
// pointers — tables travel by ref — and is only read, never written, so one
// request may run on several daemons at once. A result frame whose
// identifier lists are in any codec but the plan's is refused with a
// *CodecMismatchError. It is the building block the fleet coordinator uses
// to address one range's rows without any pointer bookkeeping on the
// endpoint.
//
// Scan rows arrive as columnar chunk frames: with a non-nil sink each
// decoded batch is handed over as it lands (the result's Scan stays empty);
// otherwise the batches are collected into the result, reproducing the
// materialized behavior. Canceling ctx fires a Cancel frame at the daemon
// and returns ctx.Err() promptly.
func (r *RemoteCluster) RunRequest(ctx context.Context, req *wire.PlanRequest, sink engine.ScanSink) (*engine.Result, error) {
	// Trace propagation: stamp the query's trace ID into the plan frame and
	// wrap the exchange in an rpc span; the daemon's span breakdown from the
	// result frame is grafted under it.
	var rpc *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		req.TraceID = parent.TraceID()
		rpc = parent.StartChild("rpc")
		rpc.SetAttr("addr", r.pool.Addr())
		defer rpc.End()
	}
	payload, err := wire.EncodePlan(req, wire.Version)
	if err != nil {
		return nil, err
	}
	var collected []engine.ScanRow
	onChunk := func(p []byte) error {
		rows, err := wire.DecodeScanChunk(p, wire.Version)
		if err != nil {
			return err
		}
		if sink != nil {
			return sink(rows)
		}
		collected = append(collected, rows...)
		return nil
	}
	respType, resp, err := r.pool.Exchange(ctx, wire.MsgRun, payload, onChunk)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgResult {
		return nil, fmt.Errorf("remote: run: unexpected %v response", respType)
	}
	codecName, res, spans, err := wire.DecodeResult(resp, wire.Version)
	if err != nil {
		return nil, err
	}
	if rpc != nil && len(spans) > 0 {
		rpc.AttachFlat(spans)
	}
	// Scan rows arrive only in chunk frames: a materialized scan is the
	// chunks collected.
	res.Scan = collected
	if want := req.Plan.EffectiveCodec().Name(); codecName != want {
		return nil, &CodecMismatchError{Plan: want, Frame: codecName}
	}
	return res, nil
}

// CodecMismatchError is a result frame whose identifier lists are encoded
// with a codec other than the plan's: a daemon that broke protocol, whose
// lists the proxy would decode wrongly.
type CodecMismatchError struct {
	// Plan and Frame name the plan's codec and the one the frame declared.
	Plan, Frame string
}

// Error implements error.
func (e *CodecMismatchError) Error() string {
	return fmt.Sprintf("remote: result frame's identifier lists are %q, the plan's codec is %q", e.Frame, e.Plan)
}

// runPlan rewrites a pointer-carrying plan into a ref-addressed request and
// executes it via RunRequest.
func (r *RemoteCluster) runPlan(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	if pl.Table == nil {
		return nil, errors.New("engine: plan has no table")
	}
	req := wire.PlanRequest{}
	var err error
	if req.TableRef, err = r.refOf(pl.Table); err != nil {
		return nil, err
	}
	if pl.Join != nil {
		if req.JoinRef, err = r.refOf(pl.Join.Right); err != nil {
			return nil, err
		}
	}
	// Strip the table pointers for transit without disturbing the caller's
	// plan: the request struct carries a shallow copy.
	tx := *pl
	tx.Table = nil
	if pl.Join != nil {
		join := *pl.Join
		join.Right = nil
		tx.Join = &join
	}
	req.Plan = &tx

	return r.RunRequest(ctx, &req, sink)
}

// Run implements ClusterBackend: the plan is rewritten to reference tables
// by ref, executed on the server, and the decoded result returned.
func (r *RemoteCluster) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	return r.runPlan(ctx, pl, nil)
}

// RunStream implements ClusterBackend: scan rows are delivered to sink chunk
// by chunk as their frames arrive off the socket, so a large scan never
// materializes on the client.
func (r *RemoteCluster) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	return r.runPlan(ctx, pl, sink)
}

// Addr returns the server address this cluster dials.
func (r *RemoteCluster) Addr() string { return r.pool.Addr() }

// Close releases the connection pool. In-flight requests finish on their
// checked-out connections, which are then discarded.
func (r *RemoteCluster) Close() error { return r.pool.Close() }
