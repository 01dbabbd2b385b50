package client

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/paillier"
	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// Proxy is Seabed's trusted client-side proxy (§4.1): it plans schemas,
// encrypts uploads, translates queries, talks to the (untrusted) engine, and
// decrypts results. Users interact with the proxy exactly as they would with
// a plain Spark SQL endpoint — including canceling a runaway query or
// bounding one with a deadline, via the context every request takes.
type Proxy struct {
	ring    *KeyRing
	cluster ClusterBackend
	// Parts is the partition count for uploads (defaults to 4× workers).
	Parts int

	// SlowQueryThreshold, when positive, makes the proxy log any query whose
	// end-to-end trace runs at least this long. The log line carries the
	// trace ID and the rendered span tree, so a straggling shard (§6.2 skew)
	// is visible without re-running the query under instrumentation.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query reports; nil uses slog.Default().
	SlowQueryLog *slog.Logger
	// TraceSink, when non-nil, receives every finished query trace. Hooks
	// like seabed-bench's -trace flag use it to keep the slowest trace of an
	// experiment without touching the query path.
	TraceSink func(*obs.Span)

	// tables is the guarded table registry, shared — as one pointer, lock
	// included — with every WithCluster-derived proxy, so concurrent use of
	// the original and derived proxies serializes on the same mutex.
	tables *tableSet

	// queries is the proxy-side live-query registry + trace flight
	// recorder: every Query registers on start (killable through
	// Queries().Kill or the debug plane) and records its trace on finish.
	// Shared with WithCluster-derived proxies, like tables.
	queries *obs.QueryLog
}

// tableSet couples the proxy's table registry with the mutex that guards it.
type tableSet struct {
	mu sync.Mutex
	m  map[string]*tableEntry
}

type tableEntry struct {
	plan  *planner.Plan
	plain *store.Table
	enc   map[translate.Mode]*store.Table
}

// NewProxy creates a proxy bound to a cluster backend — the in-process
// *engine.Cluster or a *fleet.Cluster reaching one or more daemons.
func NewProxy(master []byte, cluster ClusterBackend) (*Proxy, error) {
	ring, err := NewKeyRing(master)
	if err != nil {
		return nil, err
	}
	return &Proxy{
		ring:    ring,
		cluster: cluster,
		tables:  &tableSet{m: make(map[string]*tableEntry)},
		queries: obs.NewQueryLog(0),
	}, nil
}

// Ring exposes the proxy's key ring (it stays inside the trusted domain).
func (p *Proxy) Ring() *KeyRing { return p.ring }

// Queries exposes the proxy's live-query registry + flight recorder: active
// runs (killable by trace ID), the last N completed traces, and the JSON
// debug handlers (obs.QueryLog.ServeQueries / ServeKill) an embedding
// service mounts on its own debug listener.
func (p *Proxy) Queries() *obs.QueryLog { return p.queries }

// CreatePlan runs the planner over a plaintext schema and sample query set
// (the "Create Plan" request of §4.1).
func (p *Proxy) CreatePlan(tbl *schema.Table, sampleSQL []string, opts planner.Options) (*planner.Plan, error) {
	samples := make([]*sqlparse.Query, 0, len(sampleSQL))
	for _, src := range sampleSQL {
		q, err := sqlparse.Parse(src)
		if err != nil {
			return nil, err
		}
		samples = append(samples, q)
	}
	plan, err := planner.New(tbl, samples, opts)
	if err != nil {
		return nil, err
	}
	p.tables.mu.Lock()
	defer p.tables.mu.Unlock()
	p.tables.m[tbl.Name] = &tableEntry{plan: plan, enc: make(map[translate.Mode]*store.Table)}
	return plan, nil
}

// Upload encrypts plaintext data into the physical tables for the given
// modes (the "Upload Data" request of §4.1). Seabed deployments upload only
// translate.Seabed; the evaluation also materializes NoEnc and Paillier
// baselines. Canceling the context abandons the upload between modes and
// mid-transfer on remote backends.
func (p *Proxy) Upload(ctx context.Context, table string, src *store.Table, modes ...translate.Mode) error {
	p.tables.mu.Lock()
	entry := p.tables.m[table]
	p.tables.mu.Unlock()
	if entry == nil {
		return fmt.Errorf("client: no plan for table %q; call CreatePlan first", table)
	}
	parts := p.Parts
	if parts <= 0 {
		parts = 4 * p.cluster.Workers()
	}
	for _, mode := range modes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if mode == translate.Paillier {
			if err := p.ring.EnsurePaillier(paillier.DefaultBits); err != nil {
				return err
			}
		}
		enc, err := Encrypt(entry.plan, p.ring, src, mode, parts)
		if err != nil {
			return err
		}
		p.tables.mu.Lock()
		entry.enc[mode] = enc
		if mode == translate.NoEnc {
			entry.plain = enc
		}
		p.tables.mu.Unlock()
		if err := p.cluster.RegisterTable(ctx, TableRef(table, mode), enc); err != nil {
			return fmt.Errorf("client: register %q on cluster: %v", TableRef(table, mode), err)
		}
	}
	return nil
}

// Append encrypts a batch of new rows and appends it to the already-uploaded
// physical tables, continuing the global row identifiers (§4.1: uploads are
// "a continuing process; database insertions are handled in the same way").
//
// Enhanced SPLASHE dimensions balance each batch independently; if a batch's
// value distribution has drifted far from the planned one, balancing can run
// out of dummy rows and Append returns the §3.5 error — re-plan with fresh
// frequency estimates in that case.
func (p *Proxy) Append(ctx context.Context, table string, batch *store.Table, modes ...translate.Mode) error {
	p.tables.mu.Lock()
	entry := p.tables.m[table]
	p.tables.mu.Unlock()
	if entry == nil {
		return fmt.Errorf("client: no plan for table %q; call CreatePlan first", table)
	}
	for _, mode := range modes {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.tables.mu.Lock()
		existing := entry.enc[mode]
		p.tables.mu.Unlock()
		if existing == nil {
			return fmt.Errorf("client: table %q has no %v upload to append to", table, mode)
		}
		enc, err := EncryptFrom(entry.plan, p.ring, batch, mode, 1, existing.EndID()+1)
		if err != nil {
			return fmt.Errorf("client: append to %q: %v", table, err)
		}
		// Ship only the batch to the cluster (remote backends append it to
		// their copy) before mutating local state: if the ship fails, the
		// local table is unchanged and a retried Append re-encrypts from the
		// same row identifier, keeping both sides in step.
		if err := p.cluster.AppendTable(ctx, TableRef(table, mode), enc); err != nil {
			return fmt.Errorf("client: append %q on cluster: %v", TableRef(table, mode), err)
		}
		p.tables.mu.Lock()
		err = existing.AppendTable(enc)
		p.tables.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncTables registers every uploaded physical table with the proxy's
// current cluster backend. It is what makes WithCluster work against a
// remote backend: the tables were encrypted and registered against the
// original backend, and the new one has never seen them.
func (p *Proxy) SyncTables(ctx context.Context) error {
	p.tables.mu.Lock()
	type reg struct {
		ref string
		t   *store.Table
	}
	var regs []reg
	for name, entry := range p.tables.m {
		for mode, t := range entry.enc {
			regs = append(regs, reg{ref: TableRef(name, mode), t: t})
		}
	}
	p.tables.mu.Unlock()
	for _, r := range regs {
		if err := p.cluster.RegisterTable(ctx, r.ref, r.t); err != nil {
			return fmt.Errorf("client: register %q on cluster: %v", r.ref, err)
		}
	}
	return nil
}

// Plan implements translate.Catalog.
func (p *Proxy) Plan(table string) (*planner.Plan, error) {
	p.tables.mu.Lock()
	defer p.tables.mu.Unlock()
	entry := p.tables.m[table]
	if entry == nil {
		return nil, fmt.Errorf("client: unknown table %q", table)
	}
	return entry.plan, nil
}

// Table implements translate.Catalog.
func (p *Proxy) Table(table string, mode translate.Mode) (*store.Table, error) {
	p.tables.mu.Lock()
	defer p.tables.mu.Unlock()
	entry := p.tables.m[table]
	if entry == nil {
		return nil, fmt.Errorf("client: unknown table %q", table)
	}
	t := entry.enc[mode]
	if t == nil {
		return nil, fmt.Errorf("client: table %q has no %v upload", table, mode)
	}
	return t, nil
}

// Query parses, translates, executes, and decrypts a SQL query (the "Query
// Data" request of §4.1). The context governs the whole execution: cancel it
// and every layer — the in-process worker pool, the wire exchange, a shard
// scatter — aborts, and Query returns ctx.Err(). Options select the mode and
// tune the run; the default is the paper's system (translate.Seabed).
func (p *Proxy) Query(ctx context.Context, sql string, opts ...QueryOption) (*QueryResult, error) {
	root := obs.NewTrace("query")
	parse := root.StartChild("parse")
	stmt, err := sqlparse.ParseStatement(sql)
	parse.End()
	if err != nil {
		return nil, err
	}
	if stmt.Explain {
		return p.explainQuery(ctx, root, sql, stmt, opts...)
	}
	return p.runQuery(ctx, root, sql, stmt.Query, opts...)
}

// runQuery executes a parsed statement under an open query trace. The trace
// root spans parse (when Query minted it) through decrypt; it is finished —
// ended, offered to TraceSink, slow-query-logged, and recorded by the
// flight recorder — when the result is complete: at return for materialized
// results, at drain for streams. sql is the registry fingerprint.
func (p *Proxy) runQuery(ctx context.Context, root *obs.Span, sql string, q *sqlparse.Query, opts ...QueryOption) (qr *QueryResult, err error) {
	o := applyOptions(opts)
	// kill is the per-query cancel the live-query registry holds: the kill
	// endpoint cancels exactly this context, and every layer below — worker
	// pool, wire exchange, shard scatter — aborts through it.
	ctx, kill := context.WithCancel(ctx)
	cancel := kill
	if o.timeout != 0 {
		// A zero timeout means "no timeout"; an explicitly negative one is an
		// already-expired deadline and fails fast, as with net/http.
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, o.timeout)
		cancel = func() { tcancel(); kill() }
	}
	p.queries.SetSlowThreshold(p.SlowQueryThreshold)
	aq := p.queries.Start(root.TraceID(), sql, kill)
	trSpan := root.StartChild("translate")
	tr, err := translate.Translate(q, p, p.ring, o.mode, translate.Options{
		Workers:          p.cluster.Workers(),
		ExpectedGroups:   o.expectedGroups,
		DisableInflation: o.disableInflation,
	})
	trSpan.End()
	if err != nil {
		cancel()
		aq.Finish(err, "")
		return nil, err
	}
	if o.selectivity > 0 && o.selectivity < 1 {
		tr.Server.Filters = append(tr.Server.Filters, engine.Filter{
			Kind: engine.FilterRandom, Prob: o.selectivity, Seed: o.selSeed,
		})
	}
	if o.codec != nil {
		tr.Server.Codec = o.codec
	}
	if o.forceInflate > 1 && tr.Server.GroupBy != nil {
		tr.Server.GroupBy.Inflate = o.forceInflate
		tr.Client.Inflated = true
	}

	// Streaming scan: hand the plan to the backend's streaming path and
	// return immediately; rows decrypt incrementally as Rows is consumed.
	if o.stream && len(tr.Client.ScanCols) > 0 && !o.serverOnly {
		return p.streamQuery(ctx, cancel, aq, tr, root), nil
	}
	defer cancel()
	var finMetrics *engine.Metrics
	defer func() {
		p.finishTrace(root, finMetrics)
		if qr != nil {
			qr.TotalTime = root.Duration()
		}
		aq.Finish(err, root.String())
	}()

	runSpan := root.StartChild("run")
	res, err := p.cluster.Run(obs.ContextWithSpan(ctx, runSpan), tr.Server)
	runSpan.End()
	if err != nil {
		return nil, err
	}
	finMetrics = &res.Metrics
	if o.serverOnly {
		return &QueryResult{Metrics: res.Metrics, ServerTime: runSpan.Duration(), trace: root}, nil
	}
	decSpan := root.StartChild("decrypt")
	dec, err := Decrypt(tr, res, p.ring)
	decSpan.End()
	if err != nil {
		return nil, err
	}
	aq.SetRows(uint64(len(dec.Rows)))
	return &QueryResult{
		rows:       dec.Rows,
		Metrics:    dec.Metrics,
		PRFEvals:   dec.PRFEvals,
		ServerTime: runSpan.Duration(),
		ClientTime: dec.ClientTime,
		trace:      root,
	}, nil
}

// finishTrace closes a query's trace root and delivers it: to TraceSink when
// set, and to the slow-query log when the query ran past SlowQueryThreshold.
// m, when non-nil, enriches the slow-query record with the run's metrics
// (first-chunk latency, rows scanned/selected); the slowest shard under the
// run span is named so a skewed query points at its straggler from the log
// line alone.
func (p *Proxy) finishTrace(root *obs.Span, m *engine.Metrics) {
	root.End()
	if p.TraceSink != nil {
		p.TraceSink(root)
	}
	if p.SlowQueryThreshold > 0 && root.Duration() >= p.SlowQueryThreshold {
		lg := p.SlowQueryLog
		if lg == nil {
			lg = slog.Default()
		}
		args := []any{
			"trace_id", fmt.Sprintf("%016x", root.TraceID()),
			"duration", root.Duration(),
			"threshold", p.SlowQueryThreshold,
		}
		if m != nil {
			args = append(args,
				"first_chunk", m.FirstChunk,
				"rows_scanned", m.RowsScanned,
				"rows_selected", m.RowsSelected)
		}
		if run := root.FindSpan("run"); run != nil {
			// The fleet lays one "range k @ daemon d" span per scatter
			// attempt under run.
			if slowest := run.SlowestChild("range "); slowest != nil {
				args = append(args, "slowest_shard", slowest.Name())
			}
		}
		args = append(args, "trace", root.String())
		lg.Warn("slow query", args...)
	}
}

// WithCluster returns a proxy sharing this proxy's key ring and uploaded
// tables but executing against a different cluster backend — the Figure 7
// worker sweep rebinds one dataset across cluster sizes this way. The table
// registry is shared with its lock, so the original and derived proxies are
// safe to use concurrently. When the new backend is remote, follow up with
// SyncTables to ship the tables to it.
func (p *Proxy) WithCluster(cluster ClusterBackend) *Proxy {
	return &Proxy{
		ring: p.ring, cluster: cluster, Parts: p.Parts,
		SlowQueryThreshold: p.SlowQueryThreshold, SlowQueryLog: p.SlowQueryLog,
		TraceSink: p.TraceSink,
		tables:    p.tables,
		queries:   p.queries,
	}
}

// QueryResult couples a query's decrypted rows with its measured latency
// breakdown (§6.2 reports server and client shares). For a streamed query the
// breakdown, Metrics, and PRFEvals are populated only once Rows has been
// drained.
type QueryResult struct {
	// ServerTime is the duration of the trace's run span: the backend's whole
	// answer as the proxy waited for it, scatter, rpc and merge included.
	ServerTime time.Duration
	// ClientTime is the measured decryption and post-processing (§4.6). A
	// streamed scan decrypts while it runs, so there ClientTime is the drain
	// and overlaps ServerTime.
	ClientTime time.Duration
	// TotalTime is the duration of the trace's root span, parse to decrypt.
	TotalTime time.Duration
	// PRFEvals counts the PRF values the decryption computed, the statistic
	// §6.6 reports: two per identifier range decrypted pointwise, and every
	// value in a pad's span (ashe.Pad.Evals).
	PRFEvals uint64
	// Metrics echoes the server-side metrics.
	Metrics engine.Metrics

	rows   []Row
	stream *rowStream
	trace  *obs.Span
}

// Trace returns the query's span tree: parse/translate/run/decrypt at the
// proxy, one "range k @ daemon d" child per scatter attempt under run, and
// each daemon's own breakdown (queue wait, map, shuffle, reduce) grafted
// beneath its rpc span. Trace().FindSpan("run").SlowestChild("range ") names
// the straggler that dominated a skewed query (§6.2). For a streamed query
// the tree is complete only once Rows has been drained; it is nil only for
// results that never ran a query trace (zero-value QueryResults).
func (r *QueryResult) Trace() *obs.Span { return r.trace }
