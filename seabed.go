// Package seabed is a from-scratch Go implementation of Seabed (OSDI 2016):
// big-data analytics over encrypted datasets.
//
// Seabed lets an analyst run OLAP-style SQL over data that stays encrypted
// on an untrusted server. Its core primitive is ASHE, an additively
// symmetric homomorphic encryption scheme three orders of magnitude faster
// than Paillier, paired with SPLASHE, a splayed encoding that defeats
// frequency attacks on deterministically encrypted dimensions.
//
// The typical flow mirrors the paper's three client requests (§4.1). Every
// request takes a context.Context, so queries can be canceled mid-flight or
// bounded by a deadline, and options configure each query:
//
//	ctx := context.Background()
//	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 16})
//	proxy, _ := seabed.NewProxy(masterSecret, cluster)
//
//	// 1. Create Plan: plaintext schema + sample queries → encrypted schema.
//	proxy.CreatePlan(schema, samples, seabed.PlannerOptions{})
//
//	// 2. Upload Data: plaintext rows → encrypted columnar tables.
//	proxy.Upload(ctx, "sales", data, seabed.ModeSeabed)
//
//	// 3. Query Data: unmodified SQL → decrypted rows + latency breakdown.
//	res, _ := proxy.Query(ctx, "SELECT SUM(revenue) FROM sales WHERE country = 'CA'",
//	    seabed.WithTimeout(30*time.Second))
//	rows, _ := res.All()
//
// Canceling ctx aborts the query at every layer — the in-process worker
// pool, the wire-protocol exchange with a seabed-server, a shard scatter —
// and Query returns ctx.Err() promptly. Large scans can stream instead of
// materializing:
//
//	res, _ := proxy.Query(ctx, "SELECT revenue FROM sales WHERE day > 180",
//	    seabed.WithStreaming())
//	for row, err := range res.Rows() { // decrypts chunk by chunk
//	    ...
//	}
//
// The package re-exports the system's building blocks — the ASHE, SPLASHE,
// DET, ORE and Paillier schemes, the columnar store, the Spark-like engine,
// the planner and the query translator — so downstream users can compose
// them directly; see the examples directory.
package seabed

import (
	"time"

	"seabed/internal/client"
	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/fleet"
	"seabed/internal/idlist"
	"seabed/internal/obs"
	"seabed/internal/planner"
	"seabed/internal/remote"
	"seabed/internal/schema"
	"seabed/internal/server"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// System types.
type (
	// Proxy is the trusted client-side proxy: planner, encryption module,
	// query translator front-end, and decryption module (§4).
	Proxy = client.Proxy
	// KeyRing derives every per-column key from one master secret.
	KeyRing = client.KeyRing
	// Cluster is the untrusted server: a Spark-like engine over partitioned
	// columnar tables (§4.5).
	Cluster = engine.Cluster
	// ClusterConfig sizes the cluster: reducer buckets (Workers) and task
	// goroutines (RealParallelism).
	ClusterConfig = engine.Config
	// ClusterBackend abstracts the engine the proxy drives: an in-process
	// *Cluster or a *RemoteCluster reaching a seabed-server over TCP.
	ClusterBackend = client.ClusterBackend
	// RemoteCluster is a ClusterBackend speaking the wire protocol to a
	// seabed-server daemon.
	RemoteCluster = remote.RemoteCluster
	// FleetCluster is a ClusterBackend that range-partitions tables across N
	// seabed-server daemons with R-way replication: queries fail over to a
	// live replica when a daemon dies, stragglers are hedged to a second
	// replica past a completion quantile, and a dead daemon heals from its
	// neighbors over the wire's segment-shipping frames.
	FleetCluster = fleet.Cluster
	// FleetOptions configures DialFleet: replica count, hedge quantile, and
	// the epoch file that makes the coordinator's placement durable.
	FleetOptions = fleet.Options
	// FleetStats is a fleet's health and mitigation counters
	// (FleetCluster.Stats).
	FleetStats = fleet.Stats
	// Server hosts a Cluster behind a TCP listener (cmd/seabed-server wraps
	// it; embed it to serve from your own process).
	Server = server.Server
	// DurableStore is the disk-backed table store a restartable server
	// mounts (cmd/seabed-server's -data-dir): segment files + write-ahead
	// log + crash recovery. Attach one with Server.UseDurable.
	DurableStore = durable.Store
	// DurableOptions configures OpenDurableStore.
	DurableOptions = durable.Options
	// QueryOption tunes one query execution (see the With… options).
	QueryOption = client.QueryOption
	// QueryResult is a decrypted result with its latency breakdown. Rows
	// yields the decrypted rows (incrementally for streamed scans); All
	// materializes them; Trace returns the query's span tree.
	QueryResult = client.QueryResult
	// TraceSpan is one span of a query trace: QueryResult.Trace() returns
	// the root, covering parse through decrypt at the proxy, per-range
	// scatter spans ("range k @ daemon d"), and each daemon's
	// queue/map/shuffle/reduce breakdown. TraceSpan.SlowestChild("range ")
	// on the run span names the straggler that dominated a skewed query
	// (§6.2).
	TraceSpan = obs.Span
	// MetricsRegistry is a server's time-series metrics registry
	// (Server.Metrics); WritePrometheus renders the text exposition that
	// seabed-server's -debug-addr /metrics endpoint serves.
	MetricsRegistry = obs.Registry
	// Row is one decrypted result row.
	Row = client.Row
	// Value is one result cell.
	Value = client.Value
	// Schema describes a plaintext table.
	Schema = schema.Table
	// SchemaColumn describes one plaintext column.
	SchemaColumn = schema.Column
	// Plan is the encrypted schema the planner produces.
	Plan = planner.Plan
	// PlannerOptions tunes the planner (§4.2).
	PlannerOptions = planner.Options
	// Mode selects NoEnc, Seabed, or the Paillier baseline.
	Mode = translate.Mode
	// Table is a partitioned columnar table.
	Table = store.Table
	// Column is one column vector.
	Column = store.Column
	// Query is a parsed SQL statement.
	Query = sqlparse.Query
)

// Modes (§6.1's three systems).
const (
	// ModeNoEnc runs queries over unencrypted data.
	ModeNoEnc = translate.NoEnc
	// ModeSeabed runs the paper's system: ASHE + SPLASHE + DET + OPE.
	ModeSeabed = translate.Seabed
	// ModePaillier runs the CryptDB/Monomi-style baseline.
	ModePaillier = translate.Paillier
)

// Column types.
const (
	// Int64 marks integer columns.
	Int64 = schema.Int64
	// String marks string columns.
	String = schema.String
)

// Column kinds for building source tables.
const (
	// U64 columns hold integers.
	U64 = store.U64
	// Bytes columns hold byte strings.
	Bytes = store.Bytes
	// Str columns hold strings.
	Str = store.Str
)

// NewCluster creates the untrusted server with the given configuration.
func NewCluster(cfg ClusterConfig) *Cluster { return engine.NewCluster(cfg) }

// NewServer wraps a cluster in a wire-protocol TCP server; call
// ListenAndServe (or Serve) on the result.
func NewServer(cluster *Cluster) *Server { return server.New(cluster) }

// Fsync policies for OpenDurableStore.
const (
	// FsyncAlways syncs the WAL before every append acknowledgement.
	FsyncAlways = durable.FsyncAlways
	// FsyncBatch amortizes syncs, trading a bounded loss window for
	// memory-speed acknowledgements.
	FsyncBatch = durable.FsyncBatch
)

// OpenDurableStore mounts (creating or recovering) a disk-backed table
// store; attach it to a Server with UseDurable to make the daemon
// restartable.
func OpenDurableStore(opts DurableOptions) (*DurableStore, error) { return durable.Open(opts) }

// DialCluster connects to a running seabed-server and returns a backend
// usable wherever an in-process *Cluster is: pass it to NewProxy to run the
// whole Create Plan / Upload Data / Query Data flow against a remote engine.
func DialCluster(addr string) (*RemoteCluster, error) { return remote.Dial(addr) }

// DialShardedCluster connects to N running seabed-server daemons and returns
// a sharded backend — the fleet at one replica per range: uploads
// range-partition across the daemons by row identifier, queries scatter to
// every range concurrently, and partial aggregates merge at the proxy (ASHE
// bodies sum, identifier lists merge, Paillier ciphertexts multiply, group-by
// partials reduce by key).
func DialShardedCluster(addrs ...string) (*FleetCluster, error) {
	return fleet.Dial(addrs, fleet.Options{Replicas: 1})
}

// DialFleet connects to N running seabed-server daemons and returns a
// replicated fleet backend: every identifier range lives on
// FleetOptions.Replicas daemons (chained declustering), queries fail over
// and hedge across replicas, and FleetCluster.Heal rebuilds a dead daemon
// from its neighbors without re-uploading. See the internal/fleet package
// comment for the full model.
func DialFleet(addrs []string, opts FleetOptions) (*FleetCluster, error) {
	return fleet.Dial(addrs, opts)
}

// NewProxy creates the trusted proxy with a master secret (≥ 16 bytes).
func NewProxy(masterSecret []byte, cluster ClusterBackend) (*Proxy, error) {
	return client.NewProxy(masterSecret, cluster)
}

// Query options -----------------------------------------------------------

// WithMode selects the encryption mode a query runs under: ModeSeabed (the
// default), ModeNoEnc, or ModePaillier. The table must have been uploaded
// under that mode.
func WithMode(m Mode) QueryOption { return client.WithMode(m) }

// WithTimeout bounds a query's end-to-end execution; past the deadline every
// layer is canceled and the query returns context.DeadlineExceeded. It
// composes with any deadline already on the caller's context (the earlier
// one wins).
func WithTimeout(d time.Duration) QueryOption { return client.WithTimeout(d) }

// WithExpectedGroups feeds the group-inflation heuristic (§4.5) the expected
// number of distinct groups.
func WithExpectedGroups(n int) QueryOption { return client.WithExpectedGroups(n) }

// WithoutInflation turns the group-inflation optimization off.
func WithoutInflation() QueryOption { return client.WithoutInflation() }

// WithForceInflate overrides the computed group-inflation factor.
func WithForceInflate(n int) QueryOption { return client.WithForceInflate(n) }

// WithSelectivity appends the §6.1 random-selection filter: each row is
// chosen independently with probability prob in (0, 1), deterministically
// from seed.
func WithSelectivity(prob float64, seed uint64) QueryOption {
	return client.WithSelectivity(prob, seed)
}

// WithCodec overrides the identifier-list codec (the Figure 8 sweep).
func WithCodec(c idlist.Codec) QueryOption { return client.WithCodec(c) }

// WithServerOnly skips client-side decryption, matching experiments that
// measure only server latency (§6.7).
func WithServerOnly() QueryOption { return client.WithServerOnly() }

// WithStreaming makes a scan query stream: QueryResult.Rows yields rows as
// result chunks arrive, decrypting incrementally instead of materializing
// the whole scan.
func WithStreaming() QueryOption { return client.WithStreaming() }

// BuildTable assembles a plaintext source table from full-length columns.
func BuildTable(name string, cols []Column, parts int) (*Table, error) {
	return store.Build(name, cols, parts)
}

// ParseSQL parses a statement in Seabed's SQL subset (§4.4).
func ParseSQL(src string) (*Query, error) { return sqlparse.Parse(src) }
