// Package fleet implements Seabed's replicated, self-healing cluster: a
// coordinator that satisfies the proxy's ClusterBackend interface over N
// seabed-server daemons with R-way replication, replica failover, hedged
// scatter, and daemon-to-daemon healing over the wire's segment-shipping
// frames. It is the system's one scatter-gather coordinator — the role the
// Spark driver plays across the paper's physical workers (§4.5, Figures 6–7);
// R = 1 is plain sharding without redundancy.
//
// # Placement
//
// Tables are range-partitioned by global row identifier into N contiguous,
// balanced ranges (store.Table.SplitRanges), and each range is registered on
// R daemons under a per-range ref ("sales@Seabed#r2" is the third identifier
// range of sales@Seabed). Replicas are placed by chained declustering: range k lives on daemons k, k+1, …, k+R-1 (mod N), so every
// daemon hosts R ranges, losing any single daemon leaves every range with
// R-1 live replicas, and the failed daemon's query load spreads over R-1
// neighbors instead of doubling on one.
//
// # Queries: failover and hedged scatter
//
// Run scatters one envelope-scoped Partial plan per range, each to the
// range's first live replica, and gathers with engine.Merge. A
// replica that cannot be reached mid-query (dial, transport or protocol
// failure) is marked down and the range's plan is re-issued to its next live
// replica (the failover path), so a daemon crash mid-workload costs a retry,
// not the query. A replica that answers with an error of its own — a bad
// plan, an operator's kill — is healthy: the range may try its next replica,
// but nobody is marked down, and when every replica answered the daemon's
// error is the query's. Separately, once a configured quantile of ranges has
// completed, every straggling range's plan is re-issued to a second replica
// and the first result wins (the hedged scatter, the paper's straggler
// mitigation recast at the replica level): tail latency from one slow daemon
// collapses to roughly the quantile cut.
//
// Every range runs through one attempt loop (runRange), for Run and
// RunStream alike. RunStream visits a scan's ranges in range order, each
// range's chunks flowing to the caller's sink as they arrive. A stream is
// never hedged, and a range fails over only while it has delivered nothing:
// once its rows have reached the sink, a retry would deliver them twice, so
// an error after delivery fails the query. A scan row outside the range its
// daemon was asked to scan is a lie, refused as an *OutOfRangeError naming
// the daemon: the query fails, with no failover and nobody marked down.
//
// # Durable placement and healing
//
// The coordinator's placement — range envelopes per table, replica count,
// daemon addresses — is itself durable: a versioned JSON epoch file,
// committed by atomic rename like the storage engine's MANIFEST. Dial
// without an epoch file adopts the placement from the daemons themselves by
// inventorying their per-range refs over MsgSegmentList. Heal rebuilds a
// dead daemon from its neighbors: each range the daemon should host is
// pulled daemon-to-daemon from a live replica (MsgSegmentFetch), every
// segment checked against its source's listing, without the proxy
// re-uploading anything; the healed daemon returns to service only once its
// envelopes cover the placement's.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"

	"seabed/internal/engine"
	"seabed/internal/remote"
	"seabed/internal/store"
)

// fullSuffix derives the ref under which a join table's whole contents are
// replicated to every daemon: an inner join drops unmatched left rows, so
// every range's sub-query needs the whole right side (Spark's broadcast of
// the smaller relation).
const fullSuffix = "#all"

// rangeRef derives the ref under which range k of a table is registered on
// its replicas.
func rangeRef(ref string, k int) string {
	return fmt.Sprintf("%s#r%d", ref, k)
}

// Options configures a fleet coordinator.
type Options struct {
	// Replicas is R, the number of daemons holding each identifier range.
	// 0 defaults to 2 (the smallest fault-tolerant fleet); 1 is accepted and
	// degenerates to sharding without redundancy.
	Replicas int
	// HedgeQuantile, in (0, 1), arms the hedged scatter: once
	// ceil(HedgeQuantile × ranges) sub-queries have completed, each straggler
	// is re-issued to a second replica and the first result wins. 0 (or any
	// value outside (0, 1)) disables hedging.
	HedgeQuantile float64
	// EpochPath, when non-empty, is the file the coordinator persists its
	// placement to (atomic-rename commit). An existing file is loaded at Dial
	// and must agree with the dialed addresses and replica count.
	EpochPath string
	// Log receives coordinator events (failovers, hedges, heals). Nil
	// silences logging.
	Log *slog.Logger
	// DebugAddrs, when non-empty, lists each daemon's HTTP debug-plane
	// address (the -debug-addr listener), parallel to the dialed addresses.
	// The health rollup (Cluster.Health) then enriches each daemon's entry
	// with its /stats snapshot; empty leaves health wire-probe-only.
	DebugAddrs []string
}

// tableState tracks one replicated table at the coordinator.
type tableState struct {
	// full is the coordinator's snapshot of the whole table, grown
	// copy-on-write as batches append (guarded by Cluster.mu). It is the
	// replication source for join broadcasts. Nil on an adopted fleet until
	// the table is re-registered (Proxy.SyncTables).
	full *store.Table
	// ranges holds each range's identifier envelope [Lo, Hi] (Hi < Lo for a
	// range that has never held a row), index k matching rangeRef(ref, k).
	ranges []engine.IDRange
	// allShipped records that the table's full contents live on every daemon
	// under the #all ref (set by the first join broadcast, persisted in the
	// epoch file, and kept fresh by append-through).
	allShipped bool
	// shipped is the snapshot replicated at the last join broadcast (nil =
	// never, or adopted). Guarded by shipMu.
	shipMu  sync.Mutex
	shipped *store.Table
}

// Cluster is a replicated ClusterBackend over N seabed-server daemons.
type Cluster struct {
	daemons  []*remote.RemoteCluster
	addrs    []string
	replicas int
	hedgeQ   float64
	workers  int
	opts     Options

	// down[i] marks daemon i unavailable: queries route around it, appends
	// and registrations refuse until it is healed.
	down []atomic.Bool

	hedges    atomic.Uint64
	failovers atomic.Uint64

	mu     sync.RWMutex
	refs   map[*store.Table]string
	tables map[string]*tableState
	epoch  uint64
}

// Dial connects to every address and builds a replicated fleet over the
// daemons. Placement comes from the epoch file when Options.EpochPath names
// an existing one, and is otherwise adopted from the daemons' own per-range
// table inventories (segment lists) — a fresh fleet adopts an empty
// placement. Daemons that declare a -shard i/n identity are verified against
// their list position, and a duplicated address is rejected before any dial.
// On any failure the already-dialed daemons are closed.
func Dial(addrs []string, opts Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("fleet: no addresses")
	}
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	if opts.Replicas < 1 || opts.Replicas > len(addrs) {
		return nil, fmt.Errorf("fleet: %d replicas over %d daemons is not a valid placement", opts.Replicas, len(addrs))
	}
	if opts.HedgeQuantile < 0 || opts.HedgeQuantile >= 1 {
		if opts.HedgeQuantile != 0 {
			return nil, fmt.Errorf("fleet: hedge quantile %v outside (0, 1)", opts.HedgeQuantile)
		}
	}
	if n := len(opts.DebugAddrs); n != 0 && n != len(addrs) {
		return nil, fmt.Errorf("fleet: %d debug addresses for %d daemons; list one per daemon (\"\" for none) or none at all", n, len(addrs))
	}
	seen := make(map[string]int, len(addrs))
	for i, addr := range addrs {
		if j, dup := seen[addr]; dup {
			return nil, fmt.Errorf("fleet: address %s listed twice (positions %d and %d): one daemon cannot hold two replicas of a range", addr, j, i)
		}
		seen[addr] = i
	}

	c := &Cluster{
		addrs:    append([]string(nil), addrs...),
		replicas: opts.Replicas,
		hedgeQ:   opts.HedgeQuantile,
		opts:     opts,
		down:     make([]atomic.Bool, len(addrs)),
		refs:     make(map[*store.Table]string),
		tables:   make(map[string]*tableState),
	}
	fail := func(err error) (*Cluster, error) {
		for _, d := range c.daemons {
			d.Close() //nolint:errcheck // already failing
		}
		return nil, err
	}
	for i, addr := range addrs {
		rc, err := remote.Dial(addr)
		if err != nil {
			return fail(err)
		}
		c.daemons = append(c.daemons, rc)
		c.workers += rc.Workers()
		if idx, count := rc.Shard(); count != 0 && (count != len(addrs) || idx != i) {
			return fail(fmt.Errorf("fleet: server %s declares shard %d/%d, but is listed at position %d of %d addresses",
				addr, idx, count, i, len(addrs)))
		}
	}

	loaded, err := c.loadEpoch()
	if err != nil {
		return fail(err)
	}
	if !loaded {
		if err := c.adopt(context.Background()); err != nil {
			return fail(err)
		}
		if err := c.persistEpoch(); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// replicaSet returns the daemon indices hosting range k, primary first
// (chained declustering: k, k+1, …, k+R-1 mod N).
func (c *Cluster) replicaSet(k int) []int {
	set := make([]int, c.replicas)
	for r := range set {
		set[r] = (k + r) % len(c.daemons)
	}
	return set
}

// hostedRanges returns the range indices daemon i hosts (the inverse of
// replicaSet): k such that i ∈ {k, …, k+R-1 mod N}.
func (c *Cluster) hostedRanges(i int) []int {
	var ks []int
	for k := 0; k < len(c.daemons); k++ {
		for _, d := range c.replicaSet(k) {
			if d == i {
				ks = append(ks, k)
				break
			}
		}
	}
	return ks
}

// markDown records daemon i as unavailable; returns true on the transition.
func (c *Cluster) markDown(i int, cause error) bool {
	if c.down[i].CompareAndSwap(false, true) {
		c.logErr("daemon marked down", "daemon", i, "addr", c.addrs[i], "cause", cause)
		return true
	}
	return false
}

// NumDaemons returns the fleet size N.
func (c *Cluster) NumDaemons() int { return len(c.daemons) }

// Replicas returns the replication factor R.
func (c *Cluster) Replicas() int { return c.replicas }

// Workers implements ClusterBackend: under normal operation each range's
// sub-query runs on its distinct primary daemon, so per-query capacity is
// the daemons' summed workers, same as an unreplicated sharded cluster.
func (c *Cluster) Workers() int { return c.workers }

// hedgeTrigger returns how many of n ranges must complete before stragglers
// are hedged, or 0 when hedging is disabled (no quantile, nowhere to hedge,
// or a single range).
func (c *Cluster) hedgeTrigger(n int) int {
	if c.hedgeQ <= 0 || c.hedgeQ >= 1 || c.replicas < 2 || n < 2 {
		return 0
	}
	t := int(math.Ceil(c.hedgeQ * float64(n)))
	if t < 1 {
		t = 1
	}
	if t >= n {
		return 0 // quantile rounds to "all done": nothing left to hedge
	}
	return t
}

// Stats is a point-in-time snapshot of the fleet's health and mitigation
// counters.
type Stats struct {
	// Hedges counts straggler sub-queries re-issued to a second replica.
	Hedges uint64
	// Failovers counts sub-queries re-issued to another replica after an
	// error (plus streaming-scan failovers).
	Failovers uint64
	// Down lists the daemons currently marked unavailable, by index.
	Down []int
	// Epoch is the placement file's committed epoch counter.
	Epoch uint64
}

// Stats returns the coordinator's health and mitigation counters.
func (c *Cluster) Stats() Stats {
	st := Stats{Hedges: c.hedges.Load(), Failovers: c.failovers.Load()}
	for i := range c.down {
		if c.down[i].Load() {
			st.Down = append(st.Down, i)
		}
	}
	c.mu.RLock()
	st.Epoch = c.epoch
	c.mu.RUnlock()
	return st
}

// eachReplica runs f concurrently for every (range k, replica daemon d)
// pair of ks under fanOut; a failure names its range and daemon.
func (c *Cluster) eachReplica(ctx context.Context, ks []int, f func(ctx context.Context, k, d int) error) error {
	type slot struct{ k, d int }
	var slots []slot
	for _, k := range ks {
		for _, d := range c.replicaSet(k) {
			slots = append(slots, slot{k, d})
		}
	}
	return fanOut(ctx, len(slots), func(ctx context.Context, i int) error {
		s := slots[i]
		if err := f(ctx, s.k, s.d); err != nil {
			return fmt.Errorf("fleet: range %d on daemon %d (%s): %w", s.k, s.d, c.addrs[s.d], err)
		}
		return nil
	})
}

// eachDaemon runs f concurrently on every daemon under fanOut; a failure
// names its daemon.
func (c *Cluster) eachDaemon(ctx context.Context, f func(ctx context.Context, d int) error) error {
	return fanOut(ctx, len(c.daemons), func(ctx context.Context, d int) error {
		if err := f(ctx, d); err != nil {
			return fmt.Errorf("fleet: daemon %d (%s): %w", d, c.addrs[d], err)
		}
		return nil
	})
}

// fanOut runs f(ctx, i) concurrently for every i in [0, n) under a shared
// derived context that the first failure cancels, so the siblings stop. It
// returns the caller's ctx error if that ended the work, and otherwise the
// first failure that is not a sibling's knock-on cancellation (the first
// failure of all, if every one is).
func fanOut(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = f(gctx, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// requireFullFleet refuses mutations while any daemon is down: a write that
// skipped a downed replica would silently diverge the replica set, so writes
// demand the full fleet (heal first), while reads keep flowing around the
// failure.
func (c *Cluster) requireFullFleet(op string) error {
	for i := range c.down {
		if c.down[i].Load() {
			return fmt.Errorf("fleet: %s needs the full fleet, but daemon %d (%s) is down — heal it first (Cluster.Heal)", op, i, c.addrs[i])
		}
	}
	return nil
}

// allRanges returns [0, N).
func (c *Cluster) allRanges() []int {
	ks := make([]int, len(c.daemons))
	for i := range ks {
		ks[i] = i
	}
	return ks
}

// RegisterTable implements ClusterBackend: the table is range-partitioned
// into N balanced identifier ranges, and range k is registered under its
// per-range ref on each of its R replicas. All R×N registrations must
// acknowledge. Re-registering a ref replaces the placement (and resets join
// replication of the previous contents); the new placement is committed to
// the epoch file before RegisterTable returns.
func (c *Cluster) RegisterTable(ctx context.Context, ref string, t *store.Table) error {
	if err := c.requireFullFleet("register"); err != nil {
		return err
	}
	subs := t.SplitRanges(len(c.daemons))
	if err := c.eachReplica(ctx, c.allRanges(), func(ctx context.Context, k, d int) error {
		return c.daemons[d].RegisterTable(ctx, rangeRef(ref, k), subs[k])
	}); err != nil {
		return err
	}
	st := &tableState{full: t.Snapshot(), ranges: make([]engine.IDRange, len(subs))}
	for k, sub := range subs {
		st.ranges[k].Lo, st.ranges[k].Hi = sub.Envelope()
	}
	c.mu.Lock()
	for old, r := range c.refs {
		if r == ref {
			delete(c.refs, old) // the replaced table is no longer pinned
		}
	}
	c.refs[t] = ref
	c.tables[ref] = st
	c.mu.Unlock()
	return c.persistEpoch()
}

// AppendTable implements ClusterBackend: the batch splits into the same N
// identifier ranges as an upload, and each non-empty slice appends on all R
// replicas of its range (append-through to the #all broadcast copy too, when
// one exists). Appends demand the full fleet: a write acknowledged by fewer
// than R replicas would diverge the replica set, so a downed daemon must be
// healed before the table can grow. The grown envelopes are committed to the
// epoch file before AppendTable returns.
func (c *Cluster) AppendTable(ctx context.Context, ref string, batch *store.Table) error {
	if err := c.requireFullFleet("append"); err != nil {
		return err
	}
	c.mu.RLock()
	st := c.tables[ref]
	c.mu.RUnlock()
	if st == nil {
		return fmt.Errorf("fleet: table ref %q was never registered with this fleet (call RegisterTable or Proxy.SyncTables)", ref)
	}
	subs := batch.SplitRanges(len(c.daemons))
	if err := c.eachReplica(ctx, c.allRanges(), func(ctx context.Context, k, d int) error {
		if subs[k].NumRows() == 0 {
			return nil
		}
		return c.daemons[d].AppendTable(ctx, rangeRef(ref, k), subs[k])
	}); err != nil {
		return err
	}

	c.mu.Lock()
	for k, sub := range subs {
		if sub.NumRows() == 0 {
			continue
		}
		lo, hi := sub.Envelope()
		if st.ranges[k].Hi < st.ranges[k].Lo { // first rows this range has seen
			st.ranges[k].Lo = lo
		}
		st.ranges[k].Hi = hi
	}
	allShipped := st.allShipped
	// Grow the coordinator's snapshot copy-on-write (the join-broadcast
	// source). On a replayed batch the snapshot has the rows already — skip.
	prev := st.full
	if st.full != nil && batch.NumRows() > 0 && !st.full.Covers(batch.Parts[0].StartID, batch.EndID()) {
		grown, err := st.full.WithAppended(batch)
		if err != nil {
			c.mu.Unlock()
			return fmt.Errorf("fleet: grow snapshot of %q: %w", ref, err)
		}
		st.full = grown
	}
	grown := st.full
	c.mu.Unlock()

	// Append-through: the broadcast #all copy on every daemon grows in the
	// same call, so an adopted fleet's join tables stay fresh even though the
	// coordinator holds no snapshot to re-ship. Under shipMu, daemons that
	// held the pre-append snapshot now hold the grown one: no re-ship.
	if allShipped && batch.NumRows() > 0 {
		st.shipMu.Lock()
		defer st.shipMu.Unlock()
		if err := c.eachDaemon(ctx, func(ctx context.Context, d int) error {
			return c.daemons[d].AppendTable(ctx, ref+fullSuffix, batch)
		}); err != nil {
			return err
		}
		if st.shipped == prev {
			st.shipped = grown
		}
	}
	return c.persistEpoch()
}

// shipJoinTable replicates a join table's full contents to every daemon
// under its #all ref, if missing or stale. The first ship marks the table
// allShipped in the epoch file; from then on AppendTable appends through, so
// re-ships only happen when the snapshot diverged (e.g. a re-registration).
// A fleet of one ships nothing: its one range is the whole table.
func (c *Cluster) shipJoinTable(ctx context.Context, ref string, st *tableState) (string, error) {
	if len(c.daemons) == 1 {
		return rangeRef(ref, 0), nil
	}
	fullRef := ref + fullSuffix
	st.shipMu.Lock()
	defer st.shipMu.Unlock()
	c.mu.RLock()
	full := st.full
	allShipped := st.allShipped
	c.mu.RUnlock()
	if full == nil {
		if allShipped {
			return fullRef, nil // adopted: daemons hold #all, append-through keeps it fresh
		}
		return "", fmt.Errorf("fleet: join table %q has no coordinator snapshot on this adopted fleet — re-register it (Proxy.SyncTables) before joining", ref)
	}
	if st.shipped == full {
		return fullRef, nil
	}
	if err := c.requireFullFleet("join broadcast"); err != nil {
		return "", err
	}
	if err := c.eachDaemon(ctx, func(ctx context.Context, d int) error {
		return c.daemons[d].RegisterTable(ctx, fullRef, full)
	}); err != nil {
		return "", err
	}
	st.shipped = full
	c.mu.Lock()
	first := !st.allShipped
	st.allShipped = true
	c.mu.Unlock()
	if first {
		if err := c.persistEpoch(); err != nil {
			return "", err
		}
	}
	return fullRef, nil
}

// Close closes every daemon connection and returns the first error.
func (c *Cluster) Close() error {
	var first error
	for _, d := range c.daemons {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Cluster) log(msg string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log.Info(msg, args...)
	}
}

func (c *Cluster) logErr(msg string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log.Warn(msg, args...)
	}
}
