// Command seabed-server runs Seabed's untrusted engine as a standalone
// daemon: an engine.Cluster behind a TCP listener speaking the
// internal/wire protocol. The trusted proxy (internal/client) connects via
// the fleet coordinator (internal/fleet; one daemon is a fleet of one),
// uploads encrypted tables, and submits physical plans —
// the server never sees a key or a plaintext row (§4).
//
// Usage:
//
//	seabed-server -addr :7687 -workers 16
//
// then, from the client side:
//
//	seabed-demo -addr localhost:7687
//
// With -data-dir the daemon is durable and restartable: uploads flush to
// checksummed segment files, appends journal to a write-ahead log before
// they are acknowledged (-fsync selects the policy), and a restart over the
// same directory recovers every table — including after a crash, which at
// worst costs a torn, unacknowledged WAL tail:
//
//	seabed-server -addr :7687 -data-dir /var/lib/seabed -fsync always
//
// Recovery maps segment files instead of reading them: columns fault into
// memory per query, and -max-resident caps how much faulted column data
// stays resident (least-recently-pinned partitions evict back to their
// mapping), so a daemon can serve tables larger than RAM:
//
//	seabed-server -addr :7687 -data-dir /var/lib/seabed -max-resident 256MiB
//
// A sharded deployment runs one daemon per shard, each declaring its
// identity, and the client scatter-gathers across all of them:
//
//	seabed-server -addr :7687 -shard 0/3 &
//	seabed-server -addr :7688 -shard 1/3 &
//	seabed-server -addr :7689 -shard 2/3 &
//	seabed-demo -addr localhost:7687,localhost:7688,localhost:7689
//
// Adding -replicas on the client turns the same daemons into a replicated
// fleet: each identifier range is registered on R daemons (chained
// declustering), queries fail over to a live replica when a daemon dies,
// stragglers are hedged to a second replica past the -hedge quantile, and a
// daemon restarted on an empty disk heals by pulling its tables directly
// from its neighbors over the protocol's segment-shipping frames (no proxy
// re-upload — the /stats and /metrics planes count the shipped bytes):
//
//	seabed-demo -addr localhost:7687,localhost:7688,localhost:7689 -replicas 2 -hedge 0.9
//
// On SIGUSR1 the daemon writes its stats snapshot to stderr as one JSON
// line — `kill -USR1 $(pidof seabed-server)` shows whether shards stayed
// balanced.
//
// With -debug-addr the daemon serves its debug plane over HTTP on a second
// listener: /metrics (Prometheus text exposition of request, WAL, and
// recovery latency series), /stats (the SIGUSR1 snapshot as JSON), and
// /debug/pprof/ (the standard Go profiles):
//
//	seabed-server -addr :7687 -debug-addr :7697
//	curl -s localhost:7697/metrics | grep seabed_request_seconds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/server"
)

// parseByteSize parses a -max-resident value: a plain byte count or a
// number with a binary/decimal suffix (64MiB, 2GB, 512k). Case-insensitive;
// an empty string means 0 (unlimited).
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
		{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9}, {"tb", 1e12},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
		{"b", 1},
	}
	lower := strings.ToLower(s)
	mult := int64(1)
	num := lower
	for _, u := range units {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(strings.TrimSuffix(lower, u.suffix))
			break
		}
	}
	n, err := strconv.ParseFloat(num, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("byte size %q: want a count like 67108864, 64MiB, or 2GB", s)
	}
	return int64(n * float64(mult)), nil
}

// parseShard validates an "i/n" shard identity.
func parseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		var err1, err2 error
		i, err1 = strconv.Atoi(is)
		n, err2 = strconv.Atoi(ns)
		ok = err1 == nil && err2 == nil
	}
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q: want i/n, e.g. 0/3", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q: shard index must be in [0, %d)", s, n)
	}
	return i, n, nil
}

func main() {
	addr := flag.String("addr", ":7687", "TCP listen address")
	workers := flag.Int("workers", engine.DefaultWorkers, "reducer buckets per group-by; also what group inflation aims at and a quarter of the proxy's default partition count")
	parallelism := flag.Int("parallelism", 0, "bound on real task goroutines (0 = NumCPU)")
	seed := flag.Uint64("seed", 0, "seed for group inflation")
	shard := flag.String("shard", "", "shard identity i/n in a sharded deployment (e.g. 0/3)")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listener (/metrics exposition, /stats JSON, /debug/pprof/); empty = disabled")
	quiet := flag.Bool("quiet", false, "suppress per-connection logging")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before connections are force-closed")
	dataDir := flag.String("data-dir", "", "durable table storage directory (WAL + segment files); empty = in-memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always (ack after fsync) or batch (bounded loss window)")
	maxResident := flag.String("max-resident", "", "budget for column data faulted in from mapped segments (e.g. 64MiB, 2GB); empty or 0 = unlimited")
	flag.Parse()

	shardIdx, shardCount, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seabed-server:", err)
		os.Exit(2)
	}
	fsyncPolicy, err := durable.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seabed-server:", err)
		os.Exit(2)
	}
	maxResidentBytes, err := parseByteSize(*maxResident)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seabed-server: -max-resident:", err)
		os.Exit(2)
	}
	label := "seabed-server"
	if shardCount > 1 {
		label = fmt.Sprintf("seabed-server[%d/%d]", shardIdx, shardCount)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("daemon", label)

	cluster := engine.NewCluster(engine.Config{
		Workers:         *workers,
		RealParallelism: *parallelism,
		Seed:            *seed,
	})
	srv := server.New(cluster)
	if shardCount > 1 {
		srv.ShardIndex, srv.ShardCount = shardIdx, shardCount
	}
	if !*quiet {
		srv.Log = logger
	}
	var dstore *durable.Store
	if *dataDir != "" {
		opts := durable.Options{Dir: *dataDir, Fsync: fsyncPolicy, Metrics: srv.Metrics(), MaxResidentBytes: maxResidentBytes}
		if !*quiet {
			opts.Log = logger.With("subsys", "durable")
		}
		dstore, err = durable.Open(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, label+":", err)
			os.Exit(1)
		}
		srv.UseDurable(dstore)
		r := dstore.Recovery()
		logger.Info("recovered data-dir",
			"dir", *dataDir, "fsync", fsyncPolicy.String(),
			"tables", r.Tables, "segments", r.Segments,
			"wal_records", r.WALRecords, "torn_tails", r.TornTails,
			"bytes", r.Bytes, "mapped_bytes", r.MappedBytes, "duration", r.Duration)
	}
	watchStats(srv, logger)
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, label+":", err)
			os.Exit(1)
		}
		logger.Info("debug listener up", "debug_addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, srv.DebugHandler()); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting, cancels
	// in-flight queries through the context plumbing (each canceled client
	// gets its terminal error response), and drains connections within the
	// -drain budget; a second signal force-closes immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		s := <-sig
		logger.Info("draining", "signal", s.String(), "budget", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		go func() {
			<-sig
			logger.Warn("second signal: force-closing")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete; connections force-closed", "err", err)
		}
		close(closed)
	}()

	logger.Info("listening", "addr", *addr, "workers", *workers)
	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintln(os.Stderr, label+":", err)
		os.Exit(1)
	}
	// Serve returns once the listener closes; wait for Shutdown to finish
	// draining the connections before exiting 0, then sync and close the
	// durable store — after the drain, so every acknowledged append has
	// been journaled through it.
	<-closed
	if dstore != nil {
		if err := dstore.Close(); err != nil {
			logger.Warn("close durable store", "err", err)
		}
	}
	logger.Info("bye")
}
