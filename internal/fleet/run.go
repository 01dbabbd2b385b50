package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/remote"
	"seabed/internal/wire"
)

// scatterPlans builds one envelope-scoped, Partial plan request per range
// (shipping the broadcast-join right table first when the plan joins). The
// request's TableRef is the per-range ref; which replica executes it is the
// scatter's decision, not the plan's.
func (c *Cluster) scatterPlans(ctx context.Context, pl *engine.Plan) (string, []*wire.PlanRequest, error) {
	if pl.Table == nil {
		return "", nil, errors.New("engine: plan has no table")
	}
	c.mu.RLock()
	ref, okTable := c.refs[pl.Table]
	st := c.tables[ref]
	var joinRef string
	var joinSt *tableState
	if pl.Join != nil {
		joinRef = c.refs[pl.Join.Right]
		joinSt = c.tables[joinRef]
	}
	ranges := make([]engine.IDRange, 0, len(c.daemons))
	if st != nil {
		ranges = append(ranges, st.ranges...)
	}
	c.mu.RUnlock()
	if !okTable || st == nil {
		return "", nil, fmt.Errorf("fleet: table %q was never registered with this fleet (call RegisterTable or Proxy.SyncTables)", pl.Table.Name)
	}
	if pl.Join != nil && joinSt == nil {
		return "", nil, fmt.Errorf("fleet: join table %q was never registered with this fleet (call RegisterTable or Proxy.SyncTables)", pl.Join.Right.Name)
	}

	var fullJoinRef string
	if pl.Join != nil {
		var err error
		if fullJoinRef, err = c.shipJoinTable(ctx, joinRef, joinSt); err != nil {
			return "", nil, err
		}
	}

	reqs := make([]*wire.PlanRequest, len(ranges))
	for k := range ranges {
		tx := *pl
		tx.Table = nil
		tx.Partial = true
		scope := ranges[k]
		tx.Range = &scope
		if pl.Join != nil {
			join := *pl.Join
			join.Right = nil
			tx.Join = &join
		}
		reqs[k] = &wire.PlanRequest{TableRef: rangeRef(ref, k), JoinRef: fullJoinRef, Plan: &tx}
	}
	return ref, reqs, nil
}

// liveReplicas returns range k's replica daemons that are not marked down,
// primary first, minus any in skip.
func (c *Cluster) liveReplicas(k int, skip map[int]bool) []int {
	var live []int
	for _, d := range c.replicaSet(k) {
		if !c.down[d].Load() && !skip[d] {
			live = append(live, d)
		}
	}
	return live
}

// attemptResult is one replica attempt's outcome for a range. final is an
// error that ends the query as it is, with no failover and nobody marked
// down: the caller's sink's own, or an *OutOfRangeError.
type attemptResult struct {
	daemon int
	res    *engine.Result
	err    error
	final  error
}

// attempt runs a copy of req, flagged as a hedge or failover, on daemon d.
// Concurrent attempts share req's plan, which RunRequest only reads. Every
// scan row the daemon returns is checked against the range before sink sees
// it or the result keeps it; delivered records that sink has seen rows.
func (c *Cluster) attempt(ctx context.Context, k, d int, req *wire.PlanRequest, hedge, failover bool, sink engine.ScanSink, delivered *atomic.Bool) attemptResult {
	clone := *req
	clone.Hedge, clone.Failover = hedge, failover
	ar := attemptResult{daemon: d}
	var guard engine.ScanSink
	if sink != nil {
		guard = func(rows []engine.ScanRow) error {
			if ar.final = c.checkRange(k, d, req.Plan.Range, rows); ar.final == nil {
				delivered.Store(true)
				ar.final = sink(rows)
			}
			return ar.final
		}
	}
	sctx, done := c.rangeSpan(ctx, k, d, hedge, failover)
	ar.res, ar.err = c.daemons[d].RunRequest(sctx, &clone, guard)
	done()
	if ar.err == nil {
		ar.final = c.checkRange(k, d, req.Plan.Range, ar.res.Scan)
	}
	return ar
}

// OutOfRangeError is a scan row whose identifier lies outside the range its
// daemon was asked to scan. A daemon scans only its plan's Range, so the row
// is a lie: the daemon answered, so it is not marked down, and the query
// fails rather than failing over.
type OutOfRangeError struct {
	// Range is the range's index; Daemon and Addr name the daemon that
	// returned the row.
	Range, Daemon int
	Addr          string
	// ID is the row's identifier, Lo and Hi the range's inclusive bounds.
	ID, Lo, Hi uint64
}

// Error implements error.
func (e *OutOfRangeError) Error() string {
	return fmt.Sprintf("fleet: range %d: daemon %d (%s) returned scan row %d outside the range's identifiers [%d, %d]",
		e.Range, e.Daemon, e.Addr, e.ID, e.Lo, e.Hi)
}

// checkRange refuses the first row whose identifier lies outside rg, the
// inclusive range daemon d scanned for range k.
func (c *Cluster) checkRange(k, d int, rg *engine.IDRange, rows []engine.ScanRow) error {
	for i := range rows {
		if id := rows[i].ID; id < rg.Lo || id > rg.Hi {
			return &OutOfRangeError{Range: k, Daemon: d, Addr: c.addrs[d], ID: id, Lo: rg.Lo, Hi: rg.Hi}
		}
	}
	return nil
}

// rangeSpan opens a per-attempt scatter span ("range k @ daemon d", suffixed
// " hedge" or " failover" for mitigation attempts) under the context's
// active query span, so straggler skew and mitigation retries are visible in
// query traces. Without an active span it returns ctx unchanged and a no-op.
func (c *Cluster) rangeSpan(ctx context.Context, k, d int, hedge, failover bool) (context.Context, func()) {
	parent := obs.SpanFromContext(ctx)
	if parent == nil {
		return ctx, func() {}
	}
	name := fmt.Sprintf("range %d @ daemon %d", k, d)
	if hedge {
		name += " hedge"
	} else if failover {
		name += " failover"
	}
	sp := parent.StartChild(name)
	return obs.ContextWithSpan(ctx, sp), sp.End
}

// attemptFailed records a failed attempt on daemon d. "Down" means
// unreachable: a daemon that could not be dialed, dropped the connection or
// broke protocol is marked down. One that answered with an error of its own
// (a *remote.ServerError — a bad plan, an operator's kill) is healthy and
// stays in the fleet; the range may still try its next replica.
func (c *Cluster) attemptFailed(d int, err error) {
	if !answered(err) {
		c.markDown(d, err)
	}
}

// answered reports whether err is a daemon's own reply rather than a failure
// to reach it.
func answered(err error) bool {
	var se *remote.ServerError
	return errors.As(err, &se)
}

// exhausted is range k's error once no replica is left to try: the daemon's
// own error when the last replica answered, the transport failure otherwise.
func exhausted(k int, last error) error {
	if answered(last) {
		return fmt.Errorf("fleet: range %d: %w", k, last)
	}
	return fmt.Errorf("fleet: range %d exhausted its replicas: %w", k, last)
}

// runRange executes one range's plan with failover and hedging: the plan
// starts on the range's first live replica; an erring replica is marked down
// (when it was unreachable — see attemptFailed) and the plan fails over to
// the next; when hedgeCh closes (enough sibling ranges done) a
// not-yet-finished range is re-issued to a second replica and the first
// success wins. Loser attempts are canceled, and their eventual results
// drain into a buffered channel, so nothing leaks.
//
// With a sink, the attempt streams the range's scan rows to it, and the
// caller passes a nil hedgeCh: a stream is never hedged. Failover is only
// safe while the range has delivered nothing — once rows have reached the
// sink a retry would duplicate them — so an attempt's error after delivery
// fails the query. An error of the sink's own, or a row outside the range,
// ends the query as it is and marks nobody down.
func (c *Cluster) runRange(ctx context.Context, k int, req *wire.PlanRequest, hedgeCh <-chan struct{}, sink engine.ScanSink) (*engine.Result, error) {
	tried := make(map[int]bool)
	live := c.liveReplicas(k, tried)
	if len(live) == 0 {
		return nil, fmt.Errorf("fleet: range %d has no live replicas", k)
	}
	// Buffered to the replica count: every attempt can deliver without a
	// reader, so canceled losers never block.
	results := make(chan attemptResult, c.replicas)
	var wg sync.WaitGroup
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
		wg.Wait()
	}()

	var delivered atomic.Bool
	launch := func(d int, hedge, failover bool) {
		tried[d] = true
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- c.attempt(actx, k, d, req, hedge, failover, sink, &delivered)
		}()
	}
	launch(live[0], false, false)
	pending := 1
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil // fires at most once
			if next := c.liveReplicas(k, tried); len(next) > 0 {
				c.hedges.Add(1)
				c.log("hedging straggler range", "range", k, "daemon", next[0])
				launch(next[0], true, false)
				pending++
			}
		case ar := <-results:
			pending--
			if ar.err == nil && ar.final == nil {
				return ar.res, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if ar.final != nil {
				return nil, ar.final
			}
			lastErr = ar.err
			c.attemptFailed(ar.daemon, ar.err)
			if delivered.Load() {
				return nil, fmt.Errorf("fleet: range %d failed mid-stream after delivering rows (a retry would duplicate them): %w", k, ar.err)
			}
			if pending > 0 {
				continue // a sibling attempt is still in flight
			}
			next := c.liveReplicas(k, tried)
			if len(next) == 0 {
				return nil, exhausted(k, lastErr)
			}
			c.failovers.Add(1)
			c.log("failing range over", "range", k, "from", ar.daemon, "to", next[0])
			launch(next[0], false, true)
			pending++
		}
	}
}

// Run implements ClusterBackend: the plan scatters one envelope-scoped
// Partial sub-query per range — each to the range's first live replica, with
// error failover and quantile-triggered hedging (see the package comment) —
// and the partials gather with engine.Merge, columns in and columns out.
func (c *Cluster) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	return c.run(ctx, pl, nil)
}

// RunStream implements ClusterBackend. Scan plans stream range by range, in
// range order: each range's chunks flow to sink as they arrive, through the
// same per-range attempt loop Run uses, never hedged, and failing over only
// while the range has delivered nothing (see runRange). An error raised by
// the caller's own sink ends the query with that error and says nothing
// about the daemon. Non-scan plans (or a nil sink) run as Run does.
func (c *Cluster) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	if len(pl.Project) == 0 {
		sink = nil
	}
	return c.run(ctx, pl, sink)
}

// run is Run and RunStream: scatter; then fan the ranges out concurrently
// (no sink) or visit them in range order (a stream); then gather.
func (c *Cluster) run(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	_, reqs, err := c.scatterPlans(ctx, pl)
	if err != nil {
		return nil, err
	}
	results := make([]*engine.Result, len(reqs))
	if sink != nil {
		// One range at a time, in range order: the sink sees range 0's rows,
		// then range 1's, and so on.
		for k := range reqs {
			if results[k], err = c.runRange(ctx, k, reqs[k], nil, sink); err != nil {
				return nil, err
			}
		}
		return gather(ctx, pl, results)
	}

	// The hedge trigger: hedgeCh closes once `trigger` ranges have completed,
	// releasing a second-replica attempt for every straggler.
	trigger := c.hedgeTrigger(len(reqs))
	hedgeCh := make(chan struct{})
	var completed atomic.Int64
	if trigger == 0 {
		hedgeCh = nil
	}
	rangeDone := func() {
		if trigger > 0 && completed.Add(1) == int64(trigger) {
			close(hedgeCh)
		}
	}
	if err := fanOut(ctx, len(reqs), func(ctx context.Context, k int) error {
		var err error
		results[k], err = c.runRange(ctx, k, reqs[k], hedgeCh, nil)
		rangeDone()
		return err
	}); err != nil {
		return nil, err
	}
	return gather(ctx, pl, results)
}

// gather merges the ranges' partials with engine.Merge. A traced query's
// merge is a "gather" span under run, after the range spans: the
// coordinator's share of the run on the run's one clock.
func gather(ctx context.Context, pl *engine.Plan, results []*engine.Result) (*engine.Result, error) {
	if run := obs.SpanFromContext(ctx); run != nil {
		sp := run.StartChild("gather")
		defer sp.End()
	}
	return engine.Merge(pl, results)
}
