package client

import (
	"context"

	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// ClusterBackend abstracts the untrusted engine the proxy drives. The
// in-process *engine.Cluster satisfies it directly; *remote.RemoteCluster
// satisfies it across a TCP connection to a seabed-server; *fleet.Cluster
// satisfies it across N seabed-servers, range-partitioning tables by row
// identifier (each range on R replicas) and scatter-gathering queries. The
// same proxy code therefore serves the paper's single-machine evaluation
// setup, a real client/server deployment, and a horizontally sharded one
// (§4, §4.5).
//
// Every request-shaped method takes a context and honors its cancellation
// and deadline: the in-process engine aborts its worker pool, the remote
// backends send a wire-protocol Cancel frame to their daemons and return
// without waiting for the abandoned work.
type ClusterBackend interface {
	// Workers returns the cluster's worker count. The proxy uses it to size
	// uploads and to drive the group-inflation heuristic (§4.5).
	Workers() int
	// RegisterTable makes an encrypted physical table addressable by ref on
	// the engine. The proxy calls it after every Upload; re-registering a
	// ref replaces its table. The in-process engine resolves tables by
	// pointer and treats this as a no-op; a remote engine ships the table's
	// bytes to the server; a sharded engine range-partitions the table by
	// row identifier and ships each daemon only its slice.
	RegisterTable(ctx context.Context, ref string, t *store.Table) error
	// AppendTable extends a registered table with a batch of new rows whose
	// identifiers continue the table's contiguously (§4.1: uploads are "a
	// continuing process"). Only the batch crosses to a remote engine (a
	// sharded engine routes each daemon its identifier slice of the batch);
	// the in-process engine shares the proxy's table pointer and treats this
	// as a no-op.
	AppendTable(ctx context.Context, ref string, batch *store.Table) error
	// Run executes a physical plan and returns its result. A canceled
	// context makes Run return ctx.Err() promptly, abandoning the
	// server-side work as best the transport allows.
	Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error)
	// RunStream executes a scan plan like Run but delivers the matching rows
	// to sink in batches instead of materializing them in the result, so a
	// large scan is never resident in one buffer on the client. For plans
	// without a projection (or a nil sink) it behaves exactly like Run. A
	// sink error aborts the run and is returned as-is. A fleet runs each
	// range through the one attempt loop Run uses, visiting ranges in range
	// order: a stream is never hedged, and a range that has delivered rows
	// does not fail over (its error fails the query).
	RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error)
}

// TableRef names a physical table on a cluster backend: the logical table
// name qualified by its encryption mode, e.g. "sales@Seabed". One logical
// table is uploaded once per mode, and each upload is a distinct physical
// table on the engine.
func TableRef(table string, mode translate.Mode) string {
	return table + "@" + mode.String()
}
