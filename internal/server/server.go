// Package server hosts an engine.Cluster behind a TCP listener speaking the
// internal/wire protocol, turning the untrusted engine into a standalone
// daemon (cmd/seabed-server) the trusted proxy reaches over the network —
// the deployment split of the paper's §4: the proxy and its keys stay on the
// client side, the server only ever sees ciphertexts, physical plans, and
// encrypted results.
//
// Each accepted connection is served by its own goroutine; requests on one
// connection are processed in order, and clients that want parallelism open
// multiple connections (internal/remote pools them). While a plan executes,
// the connection keeps reading: a MsgCancel frame aborts the in-flight run
// through its context, scan results stream back as MsgResultChunk frames,
// and a client that disconnects mid-query cancels its run implicitly. The
// table registry is shared across connections and guarded for concurrent
// registration and plan execution.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// Server owns a cluster, a table registry, and a listener.
type Server struct {
	cluster *engine.Cluster
	// Log, when non-nil, receives structured connection events and
	// request-level failures; run-related records carry the query's trace_id.
	// Set it before Serve.
	Log *slog.Logger
	// ShardIndex/ShardCount declare this daemon's identity in a sharded
	// deployment (the -shard i/n flag); they cross in the Welcome frame so
	// clients can verify their address list matches the fleet's layout at
	// connect time. ShardCount 0 declares none. Set them before Serve.
	ShardIndex, ShardCount int

	mu     sync.RWMutex
	tables map[string]*store.Table

	// tableMu serializes table mutations (registers and appends) with each
	// other, keeping their read-validate-persist-swap sequences atomic
	// without holding the registry lock across a WAL fsync — queries keep
	// resolving tables while an append waits on the disk.
	tableMu sync.Mutex
	// durable, when non-nil, persists the registry: registers flush
	// segments and appends journal to the WAL before they are acknowledged.
	durable  *durable.Store
	recovery durable.RecoveryStats

	lnMu   sync.Mutex
	ln     net.Listener
	active map[net.Conn]struct{}
	conns  sync.WaitGroup
	// quit, when closed, tells every connection to cancel its in-flight run
	// and exit after its current response — the graceful half of Shutdown.
	// Recreated by Serve so a Closed server can serve again.
	quit chan struct{}
	// pendingStop records a Close/Shutdown that arrived before Serve
	// registered its listener; the late-arriving Serve consumes it and
	// returns immediately instead of accepting forever. stopped tracks
	// whether a stop already took effect since the last Serve, so a
	// redundant Close after Shutdown (the usual deferred-cleanup pattern)
	// does not poison a later, intentional re-Serve.
	pendingStop bool
	stopped     bool

	// counters behind Stats (the /stats endpoint, the SIGUSR1 dump, and the
	// shard balance assertions of the loopback tests).
	connsTotal atomic.Uint64
	registers  atomic.Uint64
	appends    atomic.Uint64
	runs       atomic.Uint64
	runsActive atomic.Int64
	canceled   atomic.Uint64
	reqErrors  atomic.Uint64

	// rowsScanned totals input rows across completed runs
	// (seabed_query_rows_scanned_total); queries is the live-query registry
	// + trace flight recorder behind /debug/queries.
	rowsScanned atomic.Uint64
	queries     *obs.QueryLog
	// groupRouted totals the rows completed group-bys bucketed by key hash
	// for their reducers (engine.OpStats.GroupRouted), which no result frame
	// carries.
	groupRouted atomic.Uint64

	// replication counters: runs the fleet coordinator marked as hedges or
	// failovers, and segment bytes shipped to or pulled from peer daemons.
	hedgedRuns   atomic.Uint64
	failovers    atomic.Uint64
	replicaFetch atomic.Uint64

	// repMu guards repStats, the per-table replication counters behind the
	// replica-health section of Stats.
	repMu    sync.Mutex
	repStats map[string]*repStat

	// obs: the server's metrics registry (one per Server so in-process
	// multi-daemon tests don't collide) and the hot-path instruments. The
	// registry also serves /metrics through DebugHandler.
	obsReg     *obs.Registry
	reqSeconds map[wire.MsgType]*obs.Histogram
	firstChunk *obs.Histogram
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
}

// TableStat describes one registered table for monitoring.
type TableStat struct {
	Ref   string `json:"ref"`
	Rows  uint64 `json:"rows"`
	Parts int    `json:"parts"`
	// Bytes is the table's estimated resident memory.
	Bytes uint64 `json:"bytes"`
	// HedgedRuns and FailoverRuns count runs the fleet coordinator re-issued
	// to this daemon for the table (speculative hedges and replica
	// failovers); ShippedBytes and PulledBytes count segment bytes served to
	// and pulled from peer daemons for it. Together they are the table's
	// replica health as seen from this daemon.
	HedgedRuns   uint64 `json:"hedged_runs"`
	FailoverRuns uint64 `json:"failover_runs"`
	ShippedBytes uint64 `json:"shipped_bytes"`
	PulledBytes  uint64 `json:"pulled_bytes"`
}

// repStat is one table's live replication counters.
type repStat struct {
	hedged, failovers, shippedBytes, pulledBytes atomic.Uint64
}

// repStat resolves (allocating on first touch) ref's replication counters.
func (s *Server) repStat(ref string) *repStat {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	st := s.repStats[ref]
	if st == nil {
		st = &repStat{}
		s.repStats[ref] = st
	}
	return st
}

// Stats is a point-in-time snapshot of a server's activity: connection and
// per-request counters plus the size of every registered table. A sharded
// deployment compares Rows across daemons to check shard balance; the
// cancellation tests watch RunsActive fall back to zero after a mid-query
// cancel to prove the slot was freed. The json tags are the snapshot's one
// encoding — the debug listener's /stats, the SIGUSR1 dump and the fleet
// health rollup all use it — so renaming one breaks dashboards.
type Stats struct {
	ConnsTotal  uint64 `json:"conns_total"`
	ConnsActive int    `json:"conns_active"`
	Registers   uint64 `json:"registers"`
	Appends     uint64 `json:"appends"`
	Runs        uint64 `json:"runs"`
	// RunsActive counts plans executing right now.
	RunsActive int `json:"runs_active"`
	// Canceled counts runs aborted by a Cancel frame, a client disconnect,
	// or server shutdown.
	Canceled uint64 `json:"canceled"`
	Errors   uint64 `json:"errors"`
	// HedgedRuns and Failovers count runs the fleet coordinator marked as
	// speculative hedges and replica failovers; ReplicaFetchBytes counts
	// segment bytes shipped to or pulled from peer daemons.
	HedgedRuns        uint64 `json:"hedged_runs"`
	Failovers         uint64 `json:"failovers"`
	ReplicaFetchBytes uint64 `json:"replica_fetch_bytes"`
	// TableCount and ResidentBytes size the registry: how many tables are
	// live and their estimated in-memory footprint (Table 5's "memory
	// size", summed).
	TableCount    int    `json:"table_count"`
	ResidentBytes uint64 `json:"resident_bytes"`
	// PlanCacheHits/Misses report the engine's compiled-plan cache: a proxy
	// issuing repeated query shapes should see the hit counter climb.
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	// GroupRoutedRows counts the rows completed group-bys routed to their
	// reducers by key hash instead of grouping them per map task: a wide
	// group-by whose last run found about one row per group per task.
	GroupRoutedRows uint64 `json:"group_routed_rows"`
	// Recovery reports what the durable store rebuilt at boot (zero without
	// a -data-dir).
	Recovery durable.RecoveryStats `json:"recovery"`
	// Residency reports the mapped-segment budget: bytes currently faulted
	// in from mapped segments, the -max-resident watermark, and fault and
	// eviction counters (zero without a -data-dir).
	Residency store.ResidencyStats `json:"residency"`
	Tables    []TableStat          `json:"tables"`
}

// Stats returns a snapshot of the server's counters and table registry,
// with tables sorted by ref.
func (s *Server) Stats() Stats {
	st := Stats{
		ConnsTotal: s.connsTotal.Load(),
		Registers:  s.registers.Load(),
		Appends:    s.appends.Load(),
		Runs:       s.runs.Load(),
		RunsActive: int(s.runsActive.Load()),
		Canceled:   s.canceled.Load(),
		Errors:     s.reqErrors.Load(),

		GroupRoutedRows: s.groupRouted.Load(),

		HedgedRuns:        s.hedgedRuns.Load(),
		Failovers:         s.failovers.Load(),
		ReplicaFetchBytes: s.replicaFetch.Load(),
	}
	s.lnMu.Lock()
	st.ConnsActive = len(s.active)
	s.lnMu.Unlock()
	st.PlanCacheHits, st.PlanCacheMisses = s.cluster.PlanCacheStats()
	st.Recovery = s.recovery
	if s.durable != nil {
		st.Residency = s.durable.Residency().Stats()
	}
	rep := make(map[string]*repStat)
	s.repMu.Lock()
	for ref, r := range s.repStats {
		rep[ref] = r
	}
	s.repMu.Unlock()
	s.mu.RLock()
	st.Tables = make([]TableStat, 0, len(s.tables))
	for ref, t := range s.tables {
		bytes := t.MemBytes()
		ts := TableStat{Ref: ref, Rows: t.NumRows(), Parts: len(t.Parts), Bytes: bytes}
		if r := rep[ref]; r != nil {
			ts.HedgedRuns = r.hedged.Load()
			ts.FailoverRuns = r.failovers.Load()
			ts.ShippedBytes = r.shippedBytes.Load()
			ts.PulledBytes = r.pulledBytes.Load()
		}
		st.Tables = append(st.Tables, ts)
		st.ResidentBytes += bytes
	}
	s.mu.RUnlock()
	st.TableCount = len(st.Tables)
	sort.Slice(st.Tables, func(a, b int) bool { return st.Tables[a].Ref < st.Tables[b].Ref })
	return st
}

// New returns a server executing plans on the given cluster.
func New(cluster *engine.Cluster) *Server {
	s := &Server{
		cluster:  cluster,
		tables:   make(map[string]*store.Table),
		active:   make(map[net.Conn]struct{}),
		repStats: make(map[string]*repStat),
		queries:  obs.NewQueryLog(0),
	}
	s.initMetrics()
	return s
}

// Queries returns the daemon's live-query registry + flight recorder (the
// store behind /debug/queries and /debug/queries/kill).
func (s *Server) Queries() *obs.QueryLog { return s.queries }

// initMetrics registers the server's instruments. Hot-path series (request
// latency, bytes) are real instruments; counters the Stats snapshot already
// tracks are mirrored as functions so the two views can never disagree.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.obsReg = r
	s.reqSeconds = make(map[wire.MsgType]*obs.Histogram)
	for _, t := range []wire.MsgType{wire.MsgRegister, wire.MsgAppend, wire.MsgRun} {
		s.reqSeconds[t] = r.Histogram("seabed_request_seconds",
			"Request latency from frame arrival to response written, by message type.",
			nil, obs.Labels{"type": t.String()})
	}
	s.firstChunk = r.Histogram("seabed_first_chunk_seconds",
		"Latency from run start to the first streamed scan rows reaching the sink.",
		nil, nil)
	s.bytesIn = r.Counter("seabed_bytes_in_total", "Bytes received, frame headers included.", nil)
	s.bytesOut = r.Counter("seabed_bytes_out_total", "Bytes sent, frame headers included.", nil)

	cf := func(name, help string, labels obs.Labels, c *atomic.Uint64) {
		r.CounterFunc(name, help, labels, func() float64 { return float64(c.Load()) })
	}
	cf("seabed_conns_total", "Connections accepted.", nil, &s.connsTotal)
	cf("seabed_requests_total", "Requests received, by message type.", obs.Labels{"type": "register"}, &s.registers)
	cf("seabed_requests_total", "Requests received, by message type.", obs.Labels{"type": "append"}, &s.appends)
	cf("seabed_requests_total", "Requests received, by message type.", obs.Labels{"type": "run"}, &s.runs)
	cf("seabed_runs_canceled_total", "Runs aborted by cancel, disconnect, or shutdown.", nil, &s.canceled)
	cf("seabed_request_errors_total", "Requests answered with an error frame.", nil, &s.reqErrors)
	cf("seabed_hedged_runs_total", "Runs the fleet coordinator re-issued speculatively to this replica.", nil, &s.hedgedRuns)
	cf("seabed_failovers_total", "Runs re-issued to this replica after another replica failed.", nil, &s.failovers)
	cf("seabed_replica_fetch_bytes_total", "Segment bytes shipped to or pulled from peer daemons.", nil, &s.replicaFetch)
	r.GaugeFunc("seabed_conns_active", "Connections open right now.", nil, func() float64 {
		s.lnMu.Lock()
		defer s.lnMu.Unlock()
		return float64(len(s.active))
	})
	r.GaugeFunc("seabed_runs_active", "Plans executing right now.", nil, func() float64 {
		return float64(s.runsActive.Load())
	})
	cf("seabed_query_rows_scanned_total", "Input rows scanned by completed runs.", nil, &s.rowsScanned)
	r.GaugeFunc("seabed_active_queries", "Queries registered in flight right now.", nil, func() float64 {
		return float64(s.queries.ActiveCount())
	})
	r.GaugeFunc("seabed_flight_recorder_traces", "Completed query traces retained by the flight recorder.", nil, func() float64 {
		return float64(s.queries.RecordedCount())
	})
	r.CounterFunc("seabed_plan_cache_hits_total", "Compiled-plan cache hits.", nil, func() float64 {
		h, _ := s.cluster.PlanCacheStats()
		return float64(h)
	})
	r.CounterFunc("seabed_plan_cache_misses_total", "Compiled-plan cache misses.", nil, func() float64 {
		_, m := s.cluster.PlanCacheStats()
		return float64(m)
	})
	r.GaugeFunc("seabed_tables", "Registered tables.", nil, func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.tables))
	})
	r.GaugeFunc("seabed_resident_bytes", "Estimated resident memory of all registered tables.", nil, func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var b uint64
		for _, t := range s.tables {
			b += t.MemBytes()
		}
		return float64(b)
	})
	obs.RegisterRuntime(r)
}

// Metrics returns the server's metrics registry. Embedders can register
// their own instruments on it; durable stores attach their WAL latency
// histograms through durable.Options.Metrics.
func (s *Server) Metrics() *obs.Registry { return s.obsReg }

// UseDurable backs the server's registry with a disk store: the tables d
// recovered at Open load into the registry, later registers flush as
// segments, and appends journal to the write-ahead log before they are
// acknowledged. Call it before Serve; the server does not close d (the
// owner does, after the server has drained).
func (s *Server) UseDurable(d *durable.Store) {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	s.mu.Lock()
	for ref, t := range d.Tables() {
		s.tables[ref] = t
	}
	s.mu.Unlock()
	s.durable = d
	s.recovery = d.Recovery()

	// Recovery cost is a one-shot fact; export it as gauges so a scrape after
	// boot shows what the restart paid (ROADMAP: recovery cost visibility).
	rec := s.recovery
	s.obsReg.Gauge("seabed_recovery_duration_seconds", "Wall-clock cost of the boot-time recovery replay.", nil).Set(rec.Duration.Seconds())
	s.obsReg.Gauge("seabed_recovery_bytes", "Bytes of table data rebuilt at boot.", nil).Set(float64(rec.Bytes))
	s.obsReg.Gauge("seabed_recovery_wal_records", "WAL records replayed at boot.", nil).Set(float64(rec.WALRecords))
	s.obsReg.Gauge("seabed_recovery_tables", "Tables recovered at boot.", nil).Set(float64(rec.Tables))
	s.obsReg.Gauge("seabed_recovery_mapped_bytes", "Bytes of segment data mmap'd (not read) at boot.", nil).Set(float64(rec.MappedBytes))

	// Residency moves while the server runs (columns fault in per query and
	// evict under -max-resident), so these read live from the store's
	// residency manager at scrape time rather than snapshotting once.
	res := d.Residency()
	s.obsReg.GaugeFunc("seabed_resident_budget_bytes", "Configured -max-resident budget for faulted column data (0 = unlimited).", nil, func() float64 {
		return float64(res.Stats().BudgetBytes)
	})
	s.obsReg.GaugeFunc("seabed_view_resident_bytes", "Column bytes currently faulted into memory from mapped segments.", nil, func() float64 {
		return float64(res.Stats().ResidentBytes)
	})
	s.obsReg.CounterFunc("seabed_column_faults_total", "Columns faulted in from mapped segments.", nil, func() float64 {
		return float64(res.Stats().ColumnFaults)
	})
	s.obsReg.CounterFunc("seabed_partition_evictions_total", "Partitions evicted to stay under the residency budget.", nil, func() float64 {
		return float64(res.Stats().Evictions)
	})
}

// RegisterTable adds or replaces a table in the registry from its image
// (store.AppendImage), decoded once — durably first, when a durable store is
// attached, which writes img itself as the segment. The registry's table
// aliases img, which the caller must leave alone. The wire path uses it for
// MsgRegister frames; embedders can call it directly to preload tables.
func (s *Server) RegisterTable(ref string, img []byte) error {
	if ref == "" {
		return errors.New("server: empty table ref")
	}
	t, err := store.DecodeImage(img)
	if err != nil {
		return fmt.Errorf("server: register %q: %w", ref, err)
	}
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if s.durable != nil {
		if err := s.durable.CommitImage(ref, img); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.tables[ref] = t
	s.mu.Unlock()
	s.log("table registered", "ref", ref, "rows", t.NumRows(), "parts", len(t.Parts))
	return nil
}

// lookup resolves a ref to its table.
func (s *Server) lookup(ref string) (*store.Table, error) {
	s.mu.RLock()
	t := s.tables[ref]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("server: unknown table ref %q (register it first)", ref)
	}
	return t, nil
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close or Shutdown. It returns nil
// after a clean stop and the accept error otherwise. Close detaches the
// listener from the server before closing it, so "is this accept failure a
// clean shutdown" is answered by whether s.ln still points at ln — not by a
// flag Close could reset before this goroutine gets to look at it.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.pendingStop {
		s.pendingStop = false
		s.lnMu.Unlock()
		ln.Close() //nolint:errcheck // refusing to serve a stopped server
		return nil
	}
	s.ln = ln
	s.stopped = false
	if s.quit == nil {
		s.quit = make(chan struct{})
	}
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lnMu.Lock()
			detached := s.ln != ln
			s.lnMu.Unlock()
			if detached {
				return nil
			}
			return err
		}
		s.lnMu.Lock()
		if s.ln != ln { // Close raced the accept; next Accept returns its error
			s.lnMu.Unlock()
			conn.Close()
			continue
		}
		quit := s.quit
		s.active[conn] = struct{}{}
		s.conns.Add(1)
		s.connsTotal.Add(1)
		s.lnMu.Unlock()
		go func() {
			defer func() {
				s.lnMu.Lock()
				delete(s.active, conn)
				s.lnMu.Unlock()
				s.conns.Done()
			}()
			s.serveConn(conn, quit)
		}()
	}
}

// detach stops accepting new connections and signals every connection to
// wind down: the listener is detached and closed, and the quit channel —
// which cancels in-flight runs — is closed. It is the shared first half of
// Close and Shutdown.
func (s *Server) detach() error {
	s.lnMu.Lock()
	ln := s.ln
	s.ln = nil
	if ln == nil && !s.stopped {
		// Stop requested before Serve registered (or with no Serve at all):
		// leave a note for the late-arriving Serve to consume. A stop that
		// already took effect (ln detached earlier) sets nothing, so a
		// redundant Close after Shutdown cannot poison the next Serve.
		s.pendingStop = true
	}
	s.stopped = true
	if s.quit != nil {
		close(s.quit)
		s.quit = nil
	}
	s.lnMu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// Close stops accepting connections, cancels in-flight queries, closes every
// open connection (clients keep idle pooled connections open indefinitely,
// so there is nothing to drain — an in-flight request sees its socket
// close), and waits for the connection goroutines to exit. Registered tables
// survive Close; a new Serve continues with the same registry.
func (s *Server) Close() error {
	err := s.detach()
	s.lnMu.Lock()
	for conn := range s.active {
		conn.Close() //nolint:errcheck // racing the handler's own close
	}
	s.lnMu.Unlock()
	s.conns.Wait()
	return err
}

// Shutdown stops the server gracefully: it stops accepting connections,
// cancels every in-flight query through its context (the client receives the
// canceled run's error response before its connection closes), and waits for
// the connection goroutines to drain. If ctx expires first the remaining
// connections are closed Close-style and ctx.Err() is returned; a clean
// drain returns nil. Registered tables survive, as with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.detach()
	done := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.lnMu.Lock()
		for conn := range s.active {
			conn.Close() //nolint:errcheck // racing the handler's own close
		}
		s.lnMu.Unlock()
		<-done
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) log(msg string, args ...any) {
	if s.Log != nil {
		s.Log.Info(msg, args...)
	}
}

func (s *Server) logErr(msg string, args ...any) {
	if s.Log != nil {
		s.Log.Warn(msg, args...)
	}
}

// frame is one decoded wire frame in flight from the connection reader to
// the request loop. at is the read timestamp: the gap to request processing
// is the queue-wait span on a traced run.
type frame struct {
	t       wire.MsgType
	payload []byte
	at      time.Time
}

// serveConn runs one connection: handshake, then a request/response loop fed
// by a dedicated reader goroutine, so Cancel frames are seen while a plan
// executes. Protocol-level failures (bad frames, wrong version, any
// non-Cancel frame while a run is in flight) drop the connection;
// request-level failures (unknown ref, plan errors) answer MsgError and keep
// it open.
func (s *Server) serveConn(conn net.Conn, quit <-chan struct{}) {
	defer conn.Close()
	peer := conn.RemoteAddr()

	t, payload, err := wire.ReadFrame(conn)
	if err != nil {
		s.logErr("handshake read failed", "peer", peer, "err", err)
		return
	}
	if t != wire.MsgHello {
		s.logErr("handshake expected hello", "peer", peer, "got", t.String())
		return
	}
	version, err := wire.DecodeHello(payload)
	if err != nil {
		s.logErr("handshake decode failed", "peer", peer, "err", err)
		return
	}
	// There is one protocol version; a client naming any other is told which.
	if version != wire.Version {
		wire.WriteFrame(conn, wire.MsgError, //nolint:errcheck // closing anyway
			wire.EncodeError(fmt.Sprintf("server: protocol version %d, want %d", version, wire.Version)))
		s.logErr("handshake version rejected", "peer", peer, "client_version", version, "want_version", wire.Version)
		return
	}
	if err := wire.WriteFrame(conn, wire.MsgWelcome, wire.EncodeWelcome(wire.Version, s.cluster.Workers(), s.ShardIndex, s.ShardCount)); err != nil {
		s.logErr("handshake write failed", "peer", peer, "err", err)
		return
	}
	s.log("client connected", "peer", peer, "proto", wire.Version)

	// The reader goroutine owns the connection's read side for the rest of
	// its life. It stops when the connection errors (including our deferred
	// Close) or when serveConn stops consuming (connDone).
	frames := make(chan frame)
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		defer close(frames)
		for {
			t, payload, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			s.bytesIn.Add(uint64(len(payload)) + 5)
			select {
			case frames <- frame{t, payload, time.Now()}:
			case <-connDone:
				return
			}
		}
	}()

	for {
		select {
		case <-quit:
			s.log("closing connection (shutdown)", "peer", peer)
			return
		case f, ok := <-frames:
			if !ok {
				s.log("client disconnected", "peer", peer)
				return
			}
			var respType wire.MsgType
			var resp []byte
			keep := true
			switch f.t {
			case wire.MsgRegister:
				s.registers.Add(1)
				respType, resp = s.handleRegister(f.payload)
			case wire.MsgAppend:
				s.appends.Add(1)
				respType, resp = s.handleAppend(f.payload)
			case wire.MsgSegmentList:
				respType, resp = s.handleSegmentList(f.payload)
			case wire.MsgSegmentFetch:
				respType, resp = s.handleSegmentFetch(conn, f.payload)
			case wire.MsgCancel:
				// Nothing in flight: the Cancel crossed our response on the
				// wire. Cancels are never answered, so ignoring it keeps the
				// connection's request/response accounting intact.
				continue
			case wire.MsgRun:
				// keep == false (shutdown, disconnect, protocol violation)
				// still delivers the run's terminal frame below — a client
				// canceled by shutdown learns its query's fate — and then
				// drops the connection.
				respType, resp, keep = s.serveRun(conn, quit, frames, f)
			default:
				respType = wire.MsgError
				resp = wire.EncodeError(fmt.Sprintf("server: unexpected %v frame", f.t))
			}
			if respType == wire.MsgError {
				s.reqErrors.Add(1)
				s.logErr("request failed", "peer", peer, "type", f.t.String(), "err", wire.DecodeError(resp))
			}
			// Account before the write: a client that has read its reply
			// must find its request counted when it scrapes /metrics.
			s.bytesOut.Add(uint64(len(resp)) + 5)
			if h := s.reqSeconds[f.t]; h != nil {
				h.ObserveDuration(time.Since(f.at))
			}
			if err := wire.WriteFrame(conn, respType, resp); err != nil {
				s.logErr("response write failed", "peer", peer, "err", err)
				return
			}
			if !keep {
				s.log("closing connection mid-run", "peer", peer)
				return
			}
		}
	}
}

// serveRun executes one MsgRun with cancellation support: the plan runs in
// its own goroutine (writing scan chunks straight to conn) while this loop
// watches for a Cancel frame, a client disconnect, or server shutdown — each
// cancels the run's context. It returns the terminal response frame and
// whether the connection should keep serving; ok == false also covers
// protocol violations (a non-Cancel frame while the run is in flight).
func (s *Server) serveRun(conn net.Conn, quit <-chan struct{}, frames <-chan frame, f frame) (wire.MsgType, []byte, bool) {
	s.runs.Add(1)
	s.runsActive.Add(1)
	defer s.runsActive.Add(-1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runDone struct {
		respType wire.MsgType
		resp     []byte
	}
	done := make(chan runDone, 1)
	go func() {
		respType, resp := s.executeRun(ctx, cancel, conn, f)
		done <- runDone{respType, resp}
	}()

	keep := true
	for {
		select {
		case r := <-done:
			if ctx.Err() != nil {
				s.canceled.Add(1)
			}
			return r.respType, r.resp, keep
		case <-quit:
			// Shutdown: cancel the run but still deliver its terminal frame,
			// then let the caller close the connection. Nil the channel so the
			// closed case doesn't spin while the run drains.
			cancel()
			keep = false
			quit = nil
		case f, ok := <-frames:
			if !ok {
				// Client vanished mid-query: abandon the work. The terminal
				// frame write will fail harmlessly.
				cancel()
				keep = false
				frames = nil
				continue
			}
			if f.t == wire.MsgCancel {
				cancel()
				continue
			}
			// Pipelining into an in-flight run is a protocol violation from a
			// client this server cannot trust: abandon the run and the
			// connection.
			s.logErr("unexpected frame while a run is in flight", "peer", conn.RemoteAddr(), "type", f.t.String())
			cancel()
			keep = false
		}
	}
}

func (s *Server) handleRegister(payload []byte) (wire.MsgType, []byte) {
	ref, img, err := wire.DecodeRegister(payload)
	if err == nil {
		err = s.RegisterTable(ref, img)
	}
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	return wire.MsgOK, nil
}

func (s *Server) handleAppend(payload []byte) (wire.MsgType, []byte) {
	ref, img, err := wire.DecodeAppend(payload)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	batch, err := store.DecodeImage(img)
	if err != nil {
		return wire.MsgError, wire.EncodeError(fmt.Sprintf("server: append to %q: %v", ref, err))
	}
	// tableMu makes the read-validate-journal-swap sequence atomic against
	// other registry mutations without holding the registry lock across the
	// durable journal's fsync: queries keep resolving tables while the disk
	// writes.
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	s.mu.RLock()
	cur := s.tables[ref]
	s.mu.RUnlock()
	if cur == nil {
		return wire.MsgError, wire.EncodeError(fmt.Sprintf("server: unknown table ref %q (register it first)", ref))
	}
	// Idempotent replay: a client whose connection died after the append was
	// applied but before the MsgOK arrived retries the same batch. A batch
	// whose identifiers all exist in the table already was applied —
	// acknowledge without re-applying (encryption is deterministic per row
	// identifier, so the retried batch is the byte-identical one already
	// stored). Checking identifier coverage, not row counts, keeps the check
	// correct for shard tables, whose identifier sequences carry gaps — and
	// a batch falling inside such a gap (identifiers this shard never held)
	// is NOT a replay; it falls through and fails the append check below.
	// Replay detection also covers the durable crash window where a batch
	// was journaled and recovered but its acknowledgement was lost: the
	// retried batch is acked without re-journaling.
	if batch.NumRows() > 0 && cur.Covers(batch.Parts[0].StartID, batch.EndID()) {
		s.log("append replayed", "ref", ref, "from", batch.Parts[0].StartID, "to", batch.EndID())
		return wire.MsgOK, nil
	}
	grown, err := cur.WithAppended(batch)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	// Journal before acknowledging: under fsync=always the MsgOK below
	// promises the batch survives a crash, so the WAL record must be
	// durable first. A journal failure leaves the in-memory table unchanged
	// and the client sees the error.
	if s.durable != nil {
		if err := s.durable.JournalImage(ref, img); err != nil {
			return wire.MsgError, wire.EncodeError(err.Error())
		}
	}
	// Copy-on-write swap: queries in flight keep reading the table they
	// resolved; the grown table replaces it atomically.
	s.mu.Lock()
	s.tables[ref] = grown
	s.mu.Unlock()
	s.log("rows appended", "ref", ref, "rows", batch.NumRows(), "total", grown.NumRows())
	return wire.MsgOK, nil
}

// executeRun decodes and runs one plan, writing scan rows to conn as
// MsgResultChunk frames as the engine produces them, and returns the
// terminal response frame. A run whose plan carries a trace ID builds its
// span breakdown — queue wait, then the engine's stage spans, all inside a
// root that starts when the frame left the socket — and ships it
// in the result frame. cancel is the run's own cancel func,
// registered with the live-query registry so /debug/queries/kill reaches
// the same context MsgCancel does.
func (s *Server) executeRun(ctx context.Context, cancel context.CancelFunc, conn net.Conn, f frame) (mt wire.MsgType, payload []byte) {
	req, err := wire.DecodePlan(f.payload)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}

	// Register with the introspection plane for the whole run. The daemon
	// never sees SQL, so the fingerprint is a compact plan summary; the
	// terminal error (if any) is recovered from the response frame so every
	// return path below records correctly.
	aq := s.queries.Start(req.TraceID, planFingerprint(req), cancel)
	var recTrace string
	defer func() {
		var ferr error
		if mt == wire.MsgError {
			ferr = errors.New(wire.DecodeError(payload))
		}
		aq.Finish(ferr, recTrace)
	}()

	// Replica-coordination accounting.
	if req.Hedge {
		s.hedgedRuns.Add(1)
		s.repStat(req.TableRef).hedged.Add(1)
	}
	if req.Failover {
		s.failovers.Add(1)
		s.repStat(req.TableRef).failovers.Add(1)
	}

	// The daemon-side trace root. Queue wait — the gap between the frame
	// leaving the socket and the run starting — is the paper's §6.2 signal
	// for an overloaded daemon, distinct from a slow one.
	var root *obs.Span
	if req.TraceID != 0 {
		root = obs.NewTraceWithID("daemon", req.TraceID, f.at)
		root.SetAttr("trace", fmt.Sprintf("%016x", req.TraceID))
		if s.ShardCount > 0 {
			root.SetAttr("shard", fmt.Sprintf("%d/%d", s.ShardIndex, s.ShardCount))
		}
		root.AddSpan("queue", f.at, time.Since(f.at))
		ctx = obs.ContextWithSpan(ctx, root)
		s.log("run started", "trace_id", fmt.Sprintf("%016x", req.TraceID), "table", req.TableRef)
	}

	pl := req.Plan
	pl.Table, err = s.lookup(req.TableRef)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	if pl.Join != nil {
		pl.Join.Right, err = s.lookup(req.JoinRef)
		if err != nil {
			return wire.MsgError, wire.EncodeError(err.Error())
		}
	}
	// Scan plans stream: each batch crosses as its own frame, so the client
	// decrypts incrementally and a canceled query stops mid-stream instead
	// of after one giant materialized frame. Each batch leaves as column
	// extents appended into one reused buffer — the executor's arenas reach
	// the wire without a row-major re-encode and without per-row allocations.
	var sink engine.ScanSink
	if len(pl.Project) > 0 {
		kinds, err := engine.ProjectKinds(pl)
		if err != nil {
			return wire.MsgError, wire.EncodeError(err.Error())
		}
		var chunkBuf []byte
		sink = func(rows []engine.ScanRow) error {
			var err error
			chunkBuf, err = wire.AppendScanChunk(chunkBuf[:0], rows, kinds)
			if err != nil {
				return err
			}
			if err := wire.WriteFrame(conn, wire.MsgResultChunk, chunkBuf); err != nil {
				return err
			}
			s.bytesOut.Add(uint64(len(chunkBuf)) + 5)
			aq.AddRows(uint64(len(rows)))
			return nil
		}
	}
	res, err := s.cluster.RunStream(ctx, pl, sink)
	if err != nil {
		if ctx.Err() != nil {
			return wire.MsgError, wire.EncodeError("server: query canceled")
		}
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	s.rowsScanned.Add(res.Metrics.RowsScanned)
	s.groupRouted.Add(res.Metrics.Ops.GroupRouted)
	if len(pl.Project) == 0 {
		aq.SetRows(uint64(res.Cols.Len()))
	}
	if res.Metrics.FirstChunk > 0 {
		s.firstChunk.ObserveDuration(res.Metrics.FirstChunk)
		if root != nil {
			root.SetAttr("first_chunk", res.Metrics.FirstChunk.String())
		}
	}
	// The frame names the codec the run encoded identifier lists with; the
	// client refuses one that is not its plan's.
	codecName := pl.EffectiveCodec().Name()
	var spans []obs.FlatSpan
	if root != nil {
		root.End()
		spans = obs.Flatten(root)
		recTrace = root.String()
	}
	resp, err := wire.EncodeResult(codecName, res, spans, wire.Version)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	return wire.MsgResult, resp
}

// planFingerprint summarizes a plan request for the live-query registry: the
// daemon holds only ciphertext plans, so this is the untrusted side's analog
// of the proxy's SQL fingerprint.
func planFingerprint(req *wire.PlanRequest) string {
	pl := req.Plan
	mode := "agg"
	switch {
	case len(pl.Project) > 0:
		mode = "scan"
	case pl.GroupBy != nil:
		mode = "group"
	}
	fp := mode + " " + req.TableRef
	if pl.Join != nil {
		fp += " join " + req.JoinRef
	}
	if pl.Partial {
		fp += fmt.Sprintf(" [%d-%d]", pl.Range.Lo, pl.Range.Hi)
	}
	return fp
}
