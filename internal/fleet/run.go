package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// attemptResult is one replica attempt's outcome for a range.
type attemptResult struct {
	daemon int
	res    *engine.Result
	err    error
}

// launchAttempt runs a copy of req, flagged as a hedge or failover, on daemon
// d under its own cancelable context and delivers the outcome to results.
// Concurrent attempts share req's plan, which RunRequest only reads.
func (c *Cluster) launchAttempt(ctx context.Context, k, d int, req *wire.PlanRequest, hedge, failover bool, results chan<- attemptResult, wg *sync.WaitGroup) context.CancelFunc {
	actx, cancel := context.WithCancel(ctx)
	clone := *req
	clone.Hedge = hedge
	clone.Failover = failover
	wg.Add(1)
	go func() {
		defer wg.Done()
		sctx, done := c.rangeSpan(actx, k, d, hedge, failover)
		res, err := c.daemons[d].RunRequest(sctx, &clone, nil)
		done()
		results <- attemptResult{daemon: d, res: res, err: err}
	}()
	return cancel
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
func (c *Cluster) runRange(ctx context.Context, k int, req *wire.PlanRequest, hedgeCh <-chan struct{}) (*engine.Result, error) {
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

	launch := func(d int, hedge, failover bool) {
		tried[d] = true
		cancels = append(cancels, c.launchAttempt(ctx, k, d, req, hedge, failover, results, &wg))
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
			if ar.err == nil {
				return ar.res, nil
			}
			lastErr = ar.err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.attemptFailed(ar.daemon, ar.err)
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
	start := time.Now()
	_, reqs, err := c.scatterPlans(ctx, pl)
	if err != nil {
		return nil, err
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

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*engine.Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for k := range reqs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res, err := c.runRange(gctx, k, reqs[k], hedgeCh)
			results[k], errs[k] = res, err
			rangeDone()
			if err != nil {
				cancel() // abandon the sibling ranges
			}
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			first = err
			break
		}
	}
	if first != nil {
		return nil, first
	}

	return gather(pl, results, start)
}

// gather merges the ranges' partials with engine.Merge and stamps the merged
// result with the coordinator's own clock: ServerTime is the wall since start,
// scatter and merge, not something composed from the daemons' reports.
func gather(pl *engine.Plan, results []*engine.Result, start time.Time) (*engine.Result, error) {
	out, err := engine.Merge(pl, results)
	if err != nil {
		return nil, err
	}
	out.Metrics.ServerTime = time.Since(start)
	return out, nil
}

// RunStream implements ClusterBackend. Scan plans stream range by range, in
// range order: each range's chunks flow to sink as they arrive. Failover is
// only safe while a range has delivered nothing — once rows for a range have
// reached the sink, a retry would duplicate them — so a replica that errs
// mid-stream after delivery fails the query, while one that errs before its
// first chunk fails over silently. Hedging never applies to streams for the
// same reason. An error raised by the caller's own sink ends the query with
// that error and says nothing about the daemon. Non-scan plans (or a nil
// sink) defer to Run.
func (c *Cluster) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	if sink == nil || len(pl.Project) == 0 {
		return c.Run(ctx, pl)
	}
	start := time.Now()
	_, reqs, err := c.scatterPlans(ctx, pl)
	if err != nil {
		return nil, err
	}
	results := make([]*engine.Result, len(reqs))
	for k := range reqs {
		res, err := c.streamRange(ctx, k, reqs[k], sink)
		if err != nil {
			return nil, err
		}
		results[k] = res
	}
	return gather(pl, results, start)
}

// streamRange runs one range's scan against its replicas in order, failing
// over only while the sink has seen none of the range's rows.
func (c *Cluster) streamRange(ctx context.Context, k int, req *wire.PlanRequest, sink engine.ScanSink) (*engine.Result, error) {
	tried := make(map[int]bool)
	var lastErr error
	failover := false
	for {
		live := c.liveReplicas(k, tried)
		if len(live) == 0 {
			if lastErr != nil {
				return nil, exhausted(k, lastErr)
			}
			return nil, fmt.Errorf("fleet: range %d has no live replicas", k)
		}
		d := live[0]
		tried[d] = true
		delivered := false
		var sinkErr error
		guard := func(rows []engine.ScanRow) error {
			delivered = true
			sinkErr = sink(rows)
			return sinkErr
		}
		clone := *req
		clone.Failover = failover
		sctx, done := c.rangeSpan(ctx, k, d, false, failover)
		res, err := c.daemons[d].RunRequest(sctx, &clone, guard)
		done()
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if sinkErr != nil {
			return nil, sinkErr
		}
		c.attemptFailed(d, err)
		if delivered {
			return nil, fmt.Errorf("fleet: range %d failed mid-stream after delivering rows (a retry would duplicate them): %w", k, err)
		}
		lastErr = err
		failover = true
		c.failovers.Add(1)
		c.log("failing streamed range over", "range", k, "from", d)
	}
}
