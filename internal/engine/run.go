package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"seabed/internal/idlist"
	"seabed/internal/obs"
	"seabed/internal/store"
)

// ScanSink receives one batch of scan rows from a streaming plan execution.
// Returning an error aborts the run; the error is propagated to the caller.
type ScanSink func(rows []ScanRow) error

// ScanChunkRows is the batch size streaming executions hand to a ScanSink,
// and the row count per MsgResultChunk frame on the wire. It bounds how much
// scan output is in flight between the engine and an incremental decrypter.
// It is also the executor's batch size (batchRows): at 1024 rows the
// selection vector stays L1-resident while per-batch overhead amortizes
// away, and one fully surviving batch fills exactly one streaming chunk, so
// the executor's batch, the sink contract, and the wire frame share a unit.
const ScanChunkRows = 1024

// ProjectKinds resolves the physical kinds of a plan's projected columns,
// in Plan.Project order: what a columnar chunk encoder checks rows against
// and writes into the chunk header.
// Names resolve against the scanned table first, then the join's right
// table, mirroring the executor's own resolution order.
func ProjectKinds(pl *Plan) ([]store.Kind, error) {
	kinds := make([]store.Kind, len(pl.Project))
	for i, name := range pl.Project {
		switch {
		case pl.Table != nil && pl.Table.HasCol(name):
			k, err := pl.Table.ColKind(name)
			if err != nil {
				return nil, err
			}
			kinds[i] = k
		case pl.Join != nil && pl.Join.Right != nil && pl.Join.Right.HasCol(name):
			k, err := pl.Join.Right.ColKind(name)
			if err != nil {
				return nil, err
			}
			kinds[i] = k
		default:
			return nil, fmt.Errorf("engine: unknown column %q", name)
		}
	}
	return kinds, nil
}

// mapRunner executes the map stage of an already-compiled plan on one
// partition. The vectorized compiledPlan (compile.go / batch.go) is the one
// that serves queries; the package's tests add the row-at-a-time
// referencePlan (reference_test.go) as their oracle.
type mapRunner interface {
	runMapTask(ctx context.Context, c *Cluster, part *store.Partition) (*mapResult, error)
}

// Run executes a plan and returns its result and cost metrics. Execution is
// two-phase: the plan is compiled once — filters to typed predicate
// kernels, aggregates to typed accumulator kernels, the join hash typed by
// key kind — and the compiled kernels then run over every partition in
// batches (see batch.go). The context is checked between map tasks and
// periodically within them; when it is canceled the worker pool drains and
// Run returns ctx.Err().
func (c *Cluster) Run(ctx context.Context, pl *Plan) (*Result, error) {
	return c.run(ctx, pl, nil, nil, groupAuto)
}

// groupStrategy is how a group-by on a codable key groups. Run lets it take
// table-wide codes wherever the codebook codes the key (groupAuto); the
// package's tests and benchmarks pin the raw slot tables (groupRaw), every
// other group-by's one path, to check and time the two against each other.
type groupStrategy int

const (
	groupAuto groupStrategy = iota
	groupRaw
)

// run is the shared body behind Run and RunStream. A nil reference compiles
// the plan through the cache into the vectorized executor; the package's tests
// pass the row-at-a-time evaluator's compile instead (RunReference,
// reference_test.go), which keeps per-task tables. A non-nil sink turns a
// projection plan into a streaming run: each map task's scan output is handed
// to the sink as soon as that task retires (in partition order, so the stream
// is globally identifier-ordered), the result's Scan stays nil, and
// Metrics.FirstChunk records the wall-clock latency to the first delivered
// chunk. strategy is groupRaw to keep a codable key off its codes.
func (c *Cluster) run(ctx context.Context, pl *Plan, reference func(*Plan) (mapRunner, error), sink ScanSink, strategy groupStrategy) (*Result, error) {
	runStart := time.Now()
	if pl.Table == nil {
		return nil, errors.New("engine: plan has no table")
	}
	if len(pl.Aggs) == 0 && len(pl.Project) == 0 {
		return nil, errors.New("engine: plan has neither aggregates nor projection")
	}
	if len(pl.Project) > 0 && (len(pl.Aggs) > 0 || pl.GroupBy != nil) {
		return nil, errors.New("engine: scan plans cannot aggregate or group")
	}
	for _, a := range pl.Aggs {
		if a.Kind == AggPaillierSum && a.PK == nil {
			return nil, errors.New("engine: Paillier aggregate without public key")
		}
	}
	if pl.Join != nil {
		// The join index is typed by the key kind, so a kind-mismatched join
		// (say plaintext u64 probing DET bytes) can never match — reject it
		// here instead of silently returning an empty result.
		lk, lerr := pl.Table.ColKind(pl.Join.LeftCol)
		rk, rerr := pl.Join.Right.ColKind(pl.Join.RightCol)
		if lerr == nil && rerr == nil && lk != rk {
			return nil, fmt.Errorf("engine: join key kinds differ (%v left vs %v right)", lk, rk)
		}
	}
	codec := pl.EffectiveCodec()

	var metrics Metrics

	// Phase 1 — compile (driver side): bind the plan against the
	// partition layout, build the typed join index, and lower filters and
	// aggregates to kernels. Every map task shares the compiled plan, and
	// repeated query shapes share it across runs through the fingerprint
	// cache (plancache.go). The reference evaluator compiles fresh every
	// run, staying an independent oracle for the differential tests.
	compileStart := time.Now()
	var runner mapRunner
	var cp *compiledPlan // the reference evaluator sizes nothing from a last run
	var err error
	if reference != nil {
		runner, err = reference(pl)
	} else if cp, err = c.compiled(pl); err == nil {
		runner = cp
	}
	if err != nil {
		return nil, err
	}
	par := c.cfg.RealParallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	parts := pl.Table.Parts
	// The driver codes what the run reads through codes (codes.go) before
	// the map stage, which fixes K for the run.
	var codes *runCodes
	if cp != nil {
		if codes, err = cp.codeRun(parts, strategy == groupAuto, par); err != nil {
			return nil, err
		}
	}
	grouped := pl.GroupBy != nil
	coded := codes != nil && codes.lanes != nil
	compileTime := time.Since(compileStart)

	// Phase 2 — map stage: one task per partition, executed with bounded
	// real parallelism, each measured individually. A streaming run also
	// starts a delivery goroutine that walks the tasks in partition order and
	// hands each retired task's scan output to the sink while later tasks are
	// still executing — the first chunk leaves as soon as partition 0
	// finishes, not after the whole map stage.
	mapStart := time.Now()
	results := make([]*mapResult, len(parts))
	errs := make([]error, len(parts))
	mctx := ctx
	var done []chan struct{}
	var deliverErr error
	deliverDone := make(chan struct{})
	if sink != nil {
		var cancel context.CancelFunc
		mctx, cancel = context.WithCancel(ctx)
		defer cancel()
		done = make([]chan struct{}, len(parts))
		for i := range done {
			done[i] = make(chan struct{})
		}
		go func() {
			defer close(deliverDone)
			for i := range done {
				select {
				case <-done[i]:
				case <-mctx.Done():
					return
				}
				if errs[i] != nil || results[i] == nil {
					return
				}
				scan := results[i].scan
				for len(scan) > 0 {
					n := min(ScanChunkRows, len(scan))
					if err := sink(scan[:n]); err != nil {
						deliverErr = err
						cancel() // abort tasks still mapping
						return
					}
					if metrics.FirstChunk == 0 {
						metrics.FirstChunk = time.Since(runStart)
					}
					scan = scan[n:]
				}
			}
		}()
	} else {
		close(deliverDone)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range parts {
		// Abort the pool the moment the context dies: tasks already launched
		// drain (they observe ctx themselves), unlaunched ones never start.
		if mctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if cp != nil {
				var tc *taskCodes
				if codes != nil {
					tc = &codes.parts[i]
				}
				results[i], errs[i] = cp.mapTask(mctx, c, parts[i], tc)
			} else {
				results[i], errs[i] = runner.runMapTask(mctx, c, parts[i])
			}
			if done != nil {
				close(done[i])
			}
		}(i)
	}
	wg.Wait()
	<-deliverDone
	if deliverErr != nil {
		return nil, deliverErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Reaching here means mctx was never canceled (a sink error or parent
	// cancellation returned above), so every task launched and completed.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	durations := make([]time.Duration, len(results))
	for i, r := range results {
		durations[i] = r.elapsed
		metrics.ShuffleBytes += r.bytes
		metrics.ShuffleListBytes += r.listBytes
		metrics.RowsScanned += r.rowsScanned
		metrics.RowsSelected += r.rowsSelected
		metrics.Ops.merge(&r.ops)
	}
	metrics.MapTasks = len(results)
	metrics.MapTaskTimes = durations
	mapTime := time.Since(mapStart)

	// Phase 3 — reduce (group-by only): one reducer per non-empty bucket, or
	// a coded group-by's one fold of its lane sets. Every map task has
	// released its pins by now: the reducers read only the tasks' groups.
	reduceStart := time.Now()
	var reduceTime time.Duration
	var mergers []*groupMerger
	var lanes *groupAcc
	if coded {
		lanes = codes.lanes.fold()
		reduceTime = time.Since(reduceStart)
		metrics.ReduceTasks, metrics.ReduceTaskTimes = 1, []time.Duration{reduceTime}
		metrics.ShuffleBytes += codes.lanes.bytes()
	} else if grouped {
		mergers = c.reduceGroups(pl, cp, results, &metrics)
		reduceTime = time.Since(reduceStart)
	}

	// Phase 4 — the driver puts the result together.
	gatherStart := time.Now()
	out := &Result{}
	switch {
	case grouped:
		var byCode []int32
		if coded {
			var bytes int
			out.Cols, byCode, bytes = gatherCoded(pl, lanes, codes.keys)
			metrics.ResultBytes += bytes
			metrics.Ops.GroupSlots += uint64(out.Cols.Len())
			metrics.Ops.GroupTableLen = max(metrics.Ops.GroupTableLen, uint64(len(byCode)))
		} else {
			out.Cols = gatherGroups(mergers)
		}
		if out.Cols != nil && hasAshe(pl) {
			var part IDPart
			if part, err = groupSection(results, mergers, byCode, out.Cols.Len(), codec); err != nil {
				return nil, err
			}
			out.Cols.IDs = []IDPart{part}
			metrics.ResultListBytes = len(part.List) + len(part.Runs)
			metrics.ResultBytes += metrics.ResultListBytes
		}
	case len(pl.Project) > 0:
		if sink == nil { // every survivor is a row; a stream already delivered them
			out.Scan = make([]ScanRow, 0, metrics.RowsSelected)
			for _, r := range results {
				out.Scan = append(out.Scan, r.scan...)
			}
		}
		metrics.ResultBytes = metrics.ShuffleBytes
	default:
		if out.Cols, err = foldSingle(pl, results, codec, &metrics); err != nil {
			return nil, err
		}
	}
	if out.Cols != nil {
		out.Cols.Codec = codec
	}
	gatherTime := time.Since(gatherStart)
	metrics.DriverTime = compileTime + gatherTime

	out.Metrics = metrics
	if sp := obs.SpanFromContext(ctx); sp != nil {
		// Each stage as the interval a clock took. The driver works twice:
		// before the map stage and after the last reducer.
		sp.AddSpan("driver", compileStart, compileTime).SetAttr("phase", "compile")
		mapSp := sp.AddSpan("map", mapStart, mapTime)
		mapSp.SetAttr("tasks", strconv.Itoa(metrics.MapTasks))
		mapSp.SetAttr("rows_scanned", strconv.FormatUint(metrics.RowsScanned, 10))
		mapSp.SetAttr("rows_selected", strconv.FormatUint(metrics.RowsSelected, 10))
		if n := len(durations); n > 0 { // the per-task skew signal of §6.2
			sorted := slices.Sorted(slices.Values(durations))
			mapSp.SetAttr("task_p50", sorted[n/2].String())
			mapSp.SetAttr("task_max", sorted[n-1].String())
		}
		mapSp.SetAttr("shuffle_bytes", strconv.Itoa(metrics.ShuffleBytes))
		if metrics.FirstChunk > 0 {
			mapSp.SetAttr("first_chunk", metrics.FirstChunk.String())
		}
		if grouped {
			sp.AddSpan("reduce", reduceStart, reduceTime).SetAttr("tasks", strconv.Itoa(metrics.ReduceTasks))
		}
		gatherSp := sp.AddSpan("driver", gatherStart, gatherTime)
		gatherSp.SetAttr("phase", "gather")
		gatherSp.SetAttr("result_bytes", strconv.Itoa(metrics.ResultBytes))
	}
	return out, nil
}

// EffectiveCodec is the plan's identifier-list codec, or idlist.Default when
// the plan names none: the one definition of that default, which
// translate.Translate writes into every plan it builds. A group-by's result
// encodes one list of its selection too (ids.go), so the default does not
// depend on the plan's shape. Nothing writes it back into a plan at run time,
// so one plan may run any number of times at once.
func (pl *Plan) EffectiveCodec() idlist.Codec {
	if pl.Codec != nil {
		return pl.Codec
	}
	return idlist.Default
}

// hasAshe reports whether an aggregate of pl is an ASHE sum: whether its
// result carries an identifier section.
func hasAshe(pl *Plan) bool {
	return slices.ContainsFunc(pl.Aggs, func(a Agg) bool { return a.Kind == AggAsheSum })
}

// RunStream executes a plan like Run, but delivers scan rows to sink in
// batches of up to ScanChunkRows instead of materializing them in the
// result (whose Scan field stays nil). For plans without a projection — or
// a nil sink — it is identical to Run. Delivery is mid-map: each partition's
// rows are handed to the sink as soon as that partition's task retires, in
// partition order, while later tasks are still executing — so the first
// chunk arrives long before the run's terminal metrics, at the latency
// Metrics.FirstChunk records. Each map task projects its survivors into one
// ScanChunk, column by column (batch.go), and the batches handed to sink are
// cursors into it. A sink error cancels the remaining map tasks and is
// returned as-is.
func (c *Cluster) RunStream(ctx context.Context, pl *Plan, sink ScanSink) (*Result, error) {
	if len(pl.Project) == 0 {
		sink = nil // no rows to stream
	}
	return c.run(ctx, pl, nil, sink, groupAuto)
}

// foldSingle folds an ungrouped plan's map tasks at the driver (§4.5: workers
// send their aggregates to the driver, which aggregates them): each task's one
// group, key 0, through the merge every reducer runs, into the result's one
// group, and the tasks' identifiers, in partition order, into its section's
// one list, encoded once.
func foldSingle(pl *Plan, results []*mapResult, codec idlist.Codec, m *Metrics) (*GroupCols, error) {
	inputs := make([]groupSel, len(results))
	ranges := 0
	for i, r := range results {
		inputs[i] = groupSel{set: r.groups}
		ranges += len(r.ids)
	}
	mg := mergeGroupSets(pl, inputs, 0)
	mg.finishCols()
	m.ResultBytes = mg.bytes
	cols := &GroupCols{KeyKind: store.U64, KeyU64: mg.t.u64, Rows: mg.acc.rows, Aggs: mg.acc.cols}
	if hasAshe(pl) {
		w := newSectionWriter(1, ranges)
		for _, r := range results {
			w.add(r.ids, nil)
		}
		part, err := w.finish(codec)
		if err != nil {
			return nil, err
		}
		cols.IDs = []IDPart{part}
		m.ResultListBytes = len(part.List)
		m.ResultBytes += m.ResultListBytes
	}
	return cols, nil
}

// reduceGroups runs a group-by's reducers, one per non-empty bucket, on
// goroutines bounded by RealParallelism, and returns them in bucket order,
// the empty buckets' left out. The shuffle moves nothing: reducer b reads its share of every
// map task, in task order, where the task left it. Per-task tables were
// already partitioned by reducerBucket (taskGroups.partition), and the reducer
// folds its share of each through a groupMerger, its keys reserved for the
// slots a reducer of the plan last held; the largest reducer's slot count is
// left for the next run (groupHint.merged). ReduceTaskTimes is each reducer's
// wall, and the driver then gathers the result columns from the returned
// reducers' blocks. cp is nil for the reference evaluator, which sizes
// nothing from a last run.
func (c *Cluster) reduceGroups(pl *Plan, cp *compiledPlan, results []*mapResult, m *Metrics) []*groupMerger {
	nb := c.cfg.Workers
	active := make([]int, 0, nb)
	for b := range nb {
		for _, mr := range results {
			if len(mr.groups.bucket(b)) > 0 {
				active = append(active, b)
				break
			}
		}
	}
	// A group-by that selected nothing still counts one (idle) reducer.
	m.ReduceTasks = max(len(active), 1)

	// Reduce per bucket, in parallel. Buckets are disjoint by construction —
	// a key maps to exactly one bucket, and each map task's group for it
	// appears there alone — so reducers share no accumulator state.
	mergers := make([]*groupMerger, len(active))
	durations := make([]time.Duration, len(active))
	par := c.cfg.RealParallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	var last int
	if cp != nil {
		last = int(cp.hint.merged.Load())
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for ri, b := range active {
		wg.Add(1)
		sem <- struct{}{}
		go func(ri, b int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			inputs := make([]groupSel, 0, len(results))
			for _, mr := range results {
				if sel := mr.groups.bucket(b); len(sel) > 0 {
					inputs = append(inputs, groupSel{mr.groups, sel})
				}
			}
			mg := mergeGroupSets(pl, inputs, last)
			mg.finishCols()
			mergers[ri] = mg
			durations[ri] = time.Since(start)
		}(ri, b)
	}
	wg.Wait()

	merged := 0
	for _, mg := range mergers {
		m.ResultBytes += mg.bytes
		merged = max(merged, mg.t.len())
	}
	if cp != nil {
		cp.hint.merged.Store(int64(merged))
	}
	m.ReduceTaskTimes = durations
	return mergers
}
