package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"seabed/internal/idlist"
	"seabed/internal/obs"
	"seabed/internal/ope"
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
// the scan arena, the sink contract, and the wire frame all share a unit.
const ScanChunkRows = 1024

// ProjectKinds resolves the physical kinds of a plan's projected columns,
// in Plan.Project order: what a columnar chunk encoder needs, since a
// ScanRow's cells are ambiguous (empty values look alike across kinds).
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
// partition. Two implementations exist: the vectorized compiledPlan
// (compile.go / batch.go) and the retained row-at-a-time referencePlan
// (reference.go).
type mapRunner interface {
	runMapTask(ctx context.Context, c *Cluster, part *store.Partition, arenas *nodeArenas) (*mapResult, error)
}

// nodeArenas recycles the map tasks' identifier-list node arenas
// (idChains.nodes) within one run: an arena is dead once its task has laid its
// lists out, so the next task to start takes it over, and a task that finds
// none starts one the size the last finished task's reached. It belongs to the
// run — never to the cluster or the process — so nothing outlives the query.
// A nil *nodeArenas recycles nothing.
type nodeArenas struct {
	mu   sync.Mutex
	free [][]idNode
	last int
}

func (a *nodeArenas) get() []idNode {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		nodes := a.free[n-1]
		a.free = a.free[:n-1]
		return nodes[:0]
	}
	return make([]idNode, 0, a.last)
}

func (a *nodeArenas) put(nodes []idNode) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.free, a.last = append(a.free, nodes), len(nodes)
	a.mu.Unlock()
}

// Run executes a plan and returns its result and cost metrics. Execution is
// two-phase: the plan is compiled once — filters to typed predicate
// kernels, aggregates to typed accumulator kernels, the join hash typed by
// key kind — and the compiled kernels then run over every partition in
// batches (see batch.go). The context is checked between map tasks and
// periodically within them; when it is canceled the worker pool drains and
// Run returns ctx.Err().
func (c *Cluster) Run(ctx context.Context, pl *Plan) (*Result, error) {
	return c.run(ctx, pl, false, nil)
}

// RunReference executes a plan with the retained row-at-a-time reference
// evaluator instead of the vectorized executor. Results and cost accounting
// are identical by construction — the differential tests enforce it — but
// the map stage interprets the plan per row. It exists for differential
// testing and as the before-side of kernel benchmarks; production paths
// (server, shards) always use Run.
func (c *Cluster) RunReference(ctx context.Context, pl *Plan) (*Result, error) {
	return c.run(ctx, pl, true, nil)
}

// run is the shared body behind Run, RunReference, and RunStream. A non-nil
// sink turns a projection plan into a streaming run: each map task's scan
// output is handed to the sink as soon as that task retires (in partition
// order, so the stream is globally identifier-ordered), the result's Scan
// stays nil, and Metrics.FirstChunk records the wall-clock latency to the
// first delivered chunk.
func (c *Cluster) run(ctx context.Context, pl *Plan, reference bool, sink ScanSink) (*Result, error) {
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
	var err error
	if reference {
		runner, err = pl.compileReference()
	} else {
		runner, err = c.compiled(pl)
	}
	if err != nil {
		return nil, err
	}
	compileTime := time.Since(compileStart)

	// Phase 2 — map stage: one task per partition, executed with bounded
	// real parallelism, each measured individually. A streaming run also
	// starts a delivery goroutine that walks the tasks in partition order and
	// hands each retired task's scan output to the sink while later tasks are
	// still executing — the first chunk leaves as soon as partition 0
	// finishes, not after the whole map stage.
	mapStart := time.Now()
	parts := pl.Table.Parts
	results := make([]*mapResult, len(parts))
	errs := make([]error, len(parts))
	par := c.cfg.RealParallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
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
	var arenas nodeArenas
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
			results[i], errs[i] = runner.runMapTask(mctx, c, parts[i], &arenas)
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
	metrics.TaskMin, metrics.TaskP50, metrics.TaskMax = taskSample(durations)
	metrics.MapTime = time.Since(mapStart)

	// Phase 3 — reduce (group-by only): one reducer per non-empty bucket.
	reduceStart := time.Now()
	grouped := pl.GroupBy != nil
	var mergers []*groupMerger
	if grouped {
		if mergers, err = c.reduceGroups(pl, results, codec, &metrics); err != nil {
			return nil, err
		}
		metrics.ReduceTime = time.Since(reduceStart)
	}

	// Phase 4 — the driver puts the result together.
	gatherStart := time.Now()
	out := &Result{}
	switch {
	case grouped:
		if out.Cols, err = gatherGroups(mergers); err != nil {
			return nil, err
		}
	case len(pl.Project) > 0:
		if sink == nil {
			out.Scan = gatherScan(results)
		}
		metrics.ResultBytes = metrics.ShuffleBytes
	default:
		if out.Cols, err = mergeSingle(pl, results, codec, &metrics); err != nil {
			return nil, err
		}
	}
	gatherTime := time.Since(gatherStart)
	metrics.DriverTime = compileTime + gatherTime
	metrics.ServerTime = time.Since(runStart)

	out.Metrics = metrics
	if sp := obs.SpanFromContext(ctx); sp != nil {
		// Each stage as the interval a clock took. The driver works twice:
		// before the map stage and after the last reducer.
		sp.AddSpan("driver", compileStart, compileTime).SetAttr("phase", "compile")
		mapSp := sp.AddSpan("map", mapStart, metrics.MapTime)
		mapSp.SetAttr("tasks", strconv.Itoa(metrics.MapTasks))
		mapSp.SetAttr("rows_scanned", strconv.FormatUint(metrics.RowsScanned, 10))
		mapSp.SetAttr("rows_selected", strconv.FormatUint(metrics.RowsSelected, 10))
		mapSp.SetAttr("task_p50", metrics.TaskP50.String())
		mapSp.SetAttr("task_max", metrics.TaskMax.String())
		mapSp.SetAttr("shuffle_bytes", strconv.Itoa(metrics.ShuffleBytes))
		if metrics.FirstChunk > 0 {
			mapSp.SetAttr("first_chunk", metrics.FirstChunk.String())
		}
		if grouped {
			sp.AddSpan("reduce", reduceStart, metrics.ReduceTime).SetAttr("tasks", strconv.Itoa(metrics.ReduceTasks))
		}
		gatherSp := sp.AddSpan("driver", gatherStart, gatherTime)
		gatherSp.SetAttr("phase", "gather")
		gatherSp.SetAttr("result_bytes", strconv.Itoa(metrics.ResultBytes))
	}
	return out, nil
}

// EffectiveCodec is the plan's identifier-list codec, or the default for its
// shape when the plan names none: the one definition of that default, which
// translate.Translate writes into every plan it builds. Nothing writes it back
// into a plan at run time, so one plan may run any number of times at once.
func (pl *Plan) EffectiveCodec() idlist.Codec {
	switch {
	case pl.Codec != nil:
		return pl.Codec
	case pl.GroupBy != nil:
		return idlist.VBDiff // §4.5: no range encoding for group-by
	}
	return idlist.Default
}

// taskSample condenses the per-map-task duration distribution to the three
// numbers Metrics retains (min/p50/max) — enough for scatter-span straggler
// attribution without shipping every task's clock reading.
func taskSample(durations []time.Duration) (min, p50, max time.Duration) {
	if len(durations) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), durations...)
	slices.Sort(sorted)
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}

// RunStream executes a plan like Run, but delivers scan rows to sink in
// batches of up to ScanChunkRows instead of materializing them in the
// result (whose Scan field stays nil). For plans without a projection — or
// a nil sink — it is identical to Run. Delivery is mid-map: each partition's
// rows are handed to the sink as soon as that partition's task retires, in
// partition order, while later tasks are still executing — so the first
// chunk arrives long before the run's terminal metrics, at the latency
// Metrics.FirstChunk records. The executor's scan kernels project into
// ScanChunkRows-sized arena chunks (batch.go), so the batches handed to
// sink reference whole backing arrays rather than row-sized allocations. A
// sink error cancels the remaining map tasks and is returned as-is.
func (c *Cluster) RunStream(ctx context.Context, pl *Plan, sink ScanSink) (*Result, error) {
	if sink == nil || len(pl.Project) == 0 {
		return c.run(ctx, pl, false, nil)
	}
	return c.run(ctx, pl, false, sink)
}

// gatherScan concatenates the map tasks' scan rows at the driver (a streaming
// run already delivered them to the sink mid-map).
func gatherScan(results []*mapResult) []ScanRow {
	total := 0
	for _, r := range results {
		total += len(r.scan)
	}
	scan := make([]ScanRow, 0, total)
	for _, r := range results {
		scan = append(scan, r.scan...)
	}
	return scan
}

// mergeSingle merges no-group-by partials at the driver (§4.5: workers send
// partial results to the driver, which aggregates) into a one-group column
// set. Each ASHE sum's identifier lists fold, in task order, through one
// buffer reserved at the tasks' range count — so the merge allocates the same
// few blocks however many tasks there are — and are encoded once.
func mergeSingle(pl *Plan, results []*mapResult, codec idlist.Codec, m *Metrics) (*GroupCols, error) {
	final := newPartial(pl.Aggs)
	for _, r := range results {
		mergePartial(pl, final, r.single)
	}
	cols := &GroupCols{KeyKind: store.U64, KeyU64: []uint64{0}, Rows: []uint64{final.rows}, Aggs: newAggCols(pl.Aggs, 1)}
	m.ResultBytes = 8 + pl.finishAggs(final, cols.Aggs, 0) // key + row count, roughly
	var w idWork
	for ai := range cols.Aggs {
		col := &cols.Aggs[ai]
		if col.Kind != AggAsheSum {
			continue
		}
		ranges := 0
		for _, r := range results {
			ranges += r.single.aggs[ai].ids.NumRanges()
		}
		w.run.set(slices.Grow(w.run.ranges[:0], ranges))
		for _, r := range results {
			w.run.merge(r.single.aggs[ai].ids.Ranges(), &w.scratch)
		}
		var err error
		if col.IDs, err = codec.AppendEncode(nil, idlist.View(w.run.ranges)); err != nil {
			return nil, fmt.Errorf("engine: encode result id list: %v", err)
		}
		col.IDOff = []uint64{0, uint64(len(col.IDs))}
		m.ResultListBytes += len(col.IDs)
	}
	m.ResultBytes += m.ResultListBytes
	return cols, nil
}

// reduceGroups merges the map tasks' groups. The shuffle moves nothing: every
// map task already partitioned its slots by reducerBucket (grouper.fold /
// taskGroupsFromMap), so reducer b's input is each task's bucket b, in task
// order, read straight from the task's lanes. One reducer runs per non-empty
// bucket, on goroutines bounded by RealParallelism: it folds its share of
// every task through a groupMerger and finishes the merged slots (encoding
// identifier lists). The driver then gathers the result columns, in key
// order, from the returned reducers' blocks.
func (c *Cluster) reduceGroups(pl *Plan, results []*mapResult, codec idlist.Codec, m *Metrics) ([]*groupMerger, error) {
	nb := c.cfg.Workers
	if nb < 1 {
		nb = 1
	}
	sizes := make([]int, nb) // groups (with repeats across tasks) per bucket
	for _, mr := range results {
		for b := range sizes {
			sizes[b] += len(mr.groups.bucket(b))
		}
	}
	active := make([]int, 0, nb)
	for b, n := range sizes {
		if n > 0 {
			active = append(active, b)
		}
	}
	// A group-by that selected nothing still counts one (idle) reducer.
	m.ReduceTasks = max(len(active), 1)

	// Merge per reducer, in parallel. Buckets are disjoint by construction —
	// a key maps to exactly one bucket, and each map task's group for it
	// appears there once — so reducers share no accumulator state.
	mergers := make([]*groupMerger, len(active))
	durations := make([]time.Duration, len(active))
	errs := make([]error, len(active))
	par := c.cfg.RealParallelism
	if par <= 0 {
		par = runtime.NumCPU()
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
			mg := mergeGroupSets(pl, inputs)
			mergers[ri], errs[ri] = mg, mg.finish(codec)
			durations[ri] = time.Since(start)
		}(ri, b)
	}
	wg.Wait()

	for ri, mg := range mergers {
		if errs[ri] != nil {
			return nil, errs[ri]
		}
		m.ResultBytes += mg.bytes
		for ai := range mg.aggs {
			m.ResultListBytes += len(mg.aggs[ai].IDs)
		}
	}
	m.ReduceTaskTimes = durations
	return mergers, nil
}

// mergePartial folds src into dst, identifier lists excepted.
func mergePartial(pl *Plan, dst, src *partial) {
	if src == nil {
		return
	}
	dst.rows += src.rows
	for i := range dst.aggs {
		d, s := &dst.aggs[i], &src.aggs[i]
		switch d.kind {
		case AggCount, AggPlainSum, AggPlainSumSq, AggAsheSum:
			// An ASHE sum's bodies add here; its identifier lists merge where
			// they are written out (mergeSingle, groupMerger.mergeIDs).
			d.u64 += s.u64
		case AggPaillierSum:
			pl.Aggs[i].PK.AddInto(d.pail, s.pail)
		case AggPlainMin:
			if s.seen && (!d.seen || s.u64 < d.u64) {
				d.u64, d.seen = s.u64, true
			}
		case AggPlainMax:
			if s.seen && (!d.seen || s.u64 > d.u64) {
				d.u64, d.seen = s.u64, true
			}
		case AggOpeMin:
			if s.seen && (!d.seen || ope.Less(s.ope, d.ope)) {
				d.ope, d.argID, d.u64, d.compBytes, d.seen = s.ope, s.argID, s.u64, s.compBytes, true
			}
		case AggOpeMax:
			if s.seen && (!d.seen || ope.Less(d.ope, s.ope)) {
				d.ope, d.argID, d.u64, d.compBytes, d.seen = s.ope, s.argID, s.u64, s.compBytes, true
			}
		case AggPlainMedian:
			d.medU64 = append(d.medU64, s.medU64...)
		case AggOpeMedian:
			d.medOpe = append(d.medOpe, s.medOpe...)
			d.medIDs = append(d.medIDs, s.medIDs...)
			d.medComp = append(d.medComp, s.medComp...)
		}
	}
}

// finishAggs writes a merged partial's accumulators into cols as group g,
// collapsing medians, and returns the group's serialized size. An ASHE sum's
// identifier lists are not the partial's to write: its body goes in the lane
// and the caller adds the lists (and their size).
func (pl *Plan) finishAggs(p *partial, cols []AggCol, g int) int {
	bytes := 0
	for i := range p.aggs {
		st, col := &p.aggs[i], &cols[i]
		if col.Lane != nil {
			col.Lane[g] = st.u64
			bytes += 8
			continue
		}
		av := &col.Vals[g]
		av.Kind = st.kind
		switch st.kind {
		case AggPaillierSum:
			av.Pail = st.pail
			bytes += pl.Aggs[i].PK.CiphertextSize()
		case AggOpeMin, AggOpeMax:
			av.Ope = st.ope
			av.ArgID = st.argID
			av.U64 = st.u64
			av.CompanionBytes = st.compBytes
			bytes += len(st.ope) + 16 + len(st.compBytes)
		case AggPlainMedian:
			if pl.Partial {
				// Shard slice: a global median needs every shard's inputs, so
				// ship the collection and let the coordinator's merge collapse it.
				av.MedU64 = st.medU64
				bytes += 8 * len(st.medU64)
				break
			}
			if n := len(st.medU64); n > 0 {
				slices.Sort(st.medU64)
				av.U64 = st.medU64[n/2]
			}
			bytes += 8
		case AggOpeMedian:
			if pl.Partial {
				av.MedOpe = st.medOpe
				av.MedIDs = st.medIDs
				av.MedComp = st.medComp
				bytes += opeMedianBytes(st.medOpe)
				break
			}
			av.Ope, av.ArgID, av.U64 = collapseOpeMedian(st.medOpe, st.medIDs, st.medComp)
			bytes += len(av.Ope) + 16
		}
	}
	return bytes
}

// collapseOpeMedian selects the middle element of an OPE-encrypted value
// collection by order-revealing comparison (Table 6: "Median … Using OPE") —
// the server needs no key. It returns the winning ciphertext, its row
// identifier, and its companion value (0 when no companions were collected).
func collapseOpeMedian(medOpe [][]byte, medIDs, medComp []uint64) (opeVal []byte, argID, comp uint64) {
	n := len(medOpe)
	if n == 0 {
		return nil, 0, 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ope.Less(medOpe[idx[a]], medOpe[idx[b]]) })
	mid := idx[n/2]
	opeVal, argID = medOpe[mid], medIDs[mid]
	if len(medComp) == n {
		comp = medComp[mid]
	}
	return opeVal, argID, comp
}
