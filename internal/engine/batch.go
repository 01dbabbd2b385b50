package engine

import (
	"context"
	"errors"
	"slices"
	"time"

	"seabed/internal/store"
)

// This file implements phase 2 of the vectorized executor: run the compiled
// kernels (compile.go / kernel.go) over one partition in fixed-size batches.
// Each batch fills a reusable selection vector with the indices of surviving
// rows — the join probe and every predicate kernel compact it in place — and
// the accumulator kernels then consume it in tight per-kind loops over the
// raw store.Column slices.

// batchRows is the executor's batch size. It equals ScanChunkRows so a fully
// surviving batch fills exactly one streaming scan chunk, and at 1024 rows
// the selection and join vectors (4 KiB each) stay resident in L1 while the
// per-batch bookkeeping amortizes to noise. It must divide cancelCheckRows
// so cancellation polls land on batch boundaries.
const batchRows = ScanChunkRows

// taskState is one map task's execution state: the compiled plan bound to a
// partition plus the reusable batch buffers. All per-batch workspace lives
// here, so the steady-state u64 filter+sum path allocates nothing.
type taskState struct {
	cp   *compiledPlan
	part *store.Partition
	pc   partCols
	res  *mapResult

	selBuf  []int32
	joinBuf []int32
	b       batch

	g    grouper
	scan *ScanChunk

	// codes is what the task reads of its run's codes (codes.go), nil where
	// it reads none; lanes is the lane set a lane group-by's task adds into,
	// taken from the run's pool for the task's duration.
	codes *taskCodes
	lanes *groupAcc
}

// newTaskState binds the compiled plan to a partition, with what it reads of
// its run's codes (nil for none), and sizes the workspace the plan's shape
// needs.
func (cp *compiledPlan) newTaskState(part *store.Partition, tc *taskCodes) *taskState {
	ts := &taskState{cp: cp, part: part, res: &mapResult{}, codes: tc}
	cp.bindPart(part, &ts.pc, tc)
	ts.selBuf = make([]int32, batchRows)
	if cp.pl.Join != nil {
		ts.joinBuf = make([]int32, 0, batchRows)
	}
	pl := cp.pl
	switch {
	case len(pl.Project) > 0:
		// scan: the chunk starts with the first survivor
	case pl.GroupBy == nil:
		// The one-group case: slot 0, keyed U64 0, with no table to find it.
		ts.g.t.groupKeys.init(store.U64, false)
		ts.g.t.appendU64(0, -1)
		ts.g.acc.init(pl.Aggs)
		ts.g.acc.grow(1)
	case tc != nil && tc.lanes != nil:
		// A lane group-by: a row's slot is its lane, in the pool's sets.
		ts.g.bind(cp)
	default:
		ts.g.init(cp)
	}
	return ts
}

// execute runs the batch loop over partition rows [i0, i1], observing ctx
// every cancelCheckRows rows like the reference evaluator.
func (ts *taskState) execute(ctx context.Context, i0, i1 int) error {
	cp := ts.cp
	startID := ts.part.StartID
	scan := len(cp.pl.Project) > 0
	grouped := cp.pl.GroupBy != nil
	// With no predicates and no join every batch survives whole, so the
	// selection vector would be the identity: the dense kernels consume the
	// contiguous interval directly (and the identifiers grow by whole ranges).
	dense := len(cp.preds) == 0 && ts.pc.leftKey == nil && !scan && !grouped
	processed := 0
	acc := &ts.g.acc

	for lo := i0; lo <= i1; lo += batchRows {
		if processed&(cancelCheckRows-1) == 0 && processed > 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		hi := min(lo+batchRows-1, i1)
		n := hi - lo + 1
		processed += n
		ts.res.ops.Batches++

		if dense {
			ts.res.ops.DenseBatches++
			ts.res.rowsSelected += uint64(n)
			acc.rows[0] += uint64(n)
			for ai := range cp.aggs {
				cp.aggs[ai].dense(&ts.pc, acc, lo, hi, startID)
			}
			if cp.ashe {
				ts.res.ids = appendRange(ts.res.ids, startID+uint64(lo), startID+uint64(hi))
			}
			continue
		}

		sel := ts.selBuf[:n]
		for k := range sel {
			sel[k] = int32(lo + k)
		}
		ts.b.sel = sel
		ts.b.join = nil
		if ts.pc.leftKey != nil {
			ts.probe()
		}
		for fi, pred := range cp.preds {
			if ts.pc.codes != nil && ts.pc.codes[fi] != nil {
				codedKernel(ts.pc.codes[fi], ts.pc.pass[fi], &ts.b)
			} else {
				pred(&ts.pc, &ts.b, startID)
			}
			if len(ts.b.sel) == 0 {
				break
			}
		}
		survivors := len(ts.b.sel)
		ts.res.rowsSelected += uint64(survivors)
		if survivors == 0 {
			continue
		}
		if cp.ashe {
			ts.res.ids = appendSel(ts.res.ids, startID, ts.b.sel)
		}

		switch {
		case scan:
			ts.projectScan(startID)
		case !grouped:
			acc.rows[0] += uint64(survivors)
			for ai := range cp.aggs {
				cp.aggs[ai].bulk(&ts.pc, acc, &ts.b, startID)
			}
		case ts.lanes != nil && !ts.laneSlots(startID):
			return errLaneMiss
		case ts.lanes != nil:
			ts.accumulate(ts.lanes, ts.g.slots[:survivors], startID)
		default:
			ts.accumulateGroups(startID)
		}
		if grouped && cp.ashe {
			ts.res.tags = append(ts.res.tags, ts.g.slots[:survivors]...)
		}
	}
	return nil
}

// probe runs the broadcast-join hash probe over the batch: unmatched rows
// drop from the selection vector (inner join), matched rows record their
// right-table row in the join vector. The probe is typed by the key kind —
// u64 keys hash directly, a coded Fixed key reads its right row by code
// (rightOf), and the other byte and string keys use Go's allocation-free
// map[string]([]byte) lookup: no per-row key materializes.
func (ts *taskState) probe() {
	key := ts.cp
	col := ts.pc.leftKey
	probed := len(ts.b.sel)
	out := ts.b.sel[:0]
	join := ts.joinBuf[:0]
	switch col.Kind {
	case store.U64:
		h := key.joinU64
		for _, i := range ts.b.sel {
			if j, ok := h[col.U64[i]]; ok {
				out = append(out, i)
				join = append(join, j)
			}
		}
	case store.Fixed, store.Bytes:
		if ts.codes != nil && ts.codes.join != nil {
			codes, rightOf := ts.codes.join, ts.codes.rightOf
			for _, i := range ts.b.sel {
				if j := rightOf[codes[i]]; j >= 0 {
					out = append(out, i)
					join = append(join, j)
				}
			}
			break
		}
		h := key.joinStr
		for _, i := range ts.b.sel {
			if j, ok := h[string(col.BytesAt(int(i)))]; ok {
				out = append(out, i)
				join = append(join, j)
			}
		}
	default:
		h := key.joinStr
		for _, i := range ts.b.sel {
			if j, ok := h[col.Str[i]]; ok {
				out = append(out, i)
				join = append(join, j)
			}
		}
	}
	ts.b.sel, ts.b.join, ts.joinBuf = out, join, join
	ts.res.ops.JoinProbed += uint64(probed)
	ts.res.ops.JoinMatched += uint64(len(out))
}

// --- group-by path ---

// grouper locates the accumulator for each surviving row's group: a key
// resolves to a small slot number through the open-addressed slotTable, byte
// keys in one per-task arena, and accumulation runs per batch over
// (selection, slot) pairs into the accumulators' columns (groupAcc). A lane
// group-by's slots are lanes (codes.go): its task keeps no table here, an
// ungrouped plan's one slot without one.
type grouper struct {
	t   slotTable
	acc groupAcc

	right   bool
	inflate int
	seed    uint64

	// slots is per-batch scratch, sized to batchRows once: the resolved slot
	// per survivor.
	slots []int32
}

// bind readies what both group-by paths read: the key's side, the suffixes,
// and the per-batch scratch, allocated once.
func (g *grouper) bind(cp *compiledPlan) {
	g.right, g.seed = cp.groupCol.isRight(), cp.seed
	if cp.pl.GroupBy.Inflate > 1 {
		g.inflate = cp.pl.GroupBy.Inflate
	}
	g.slots = make([]int32, batchRows)
}

// init readies the slot machinery: bind's, and the table sized for the slots
// the plan's last run held in a map task's table (groupHint.slots) at half
// load (1 Ki entries at least), the keys, accumulators and identifier-list
// slots for those and a quarter more, so that a slightly larger partition
// fits too.
func (g *grouper) init(cp *compiledPlan) {
	g.bind(cp)
	expect := int(cp.hint.slots.Load())
	g.t.init(keyKind(cp.pl.groupColumn().Kind), g.inflate > 0, expect)
	g.acc.init(cp.pl.Aggs)
	if expect > 0 {
		g.t.reserve(expect+expect/4, int(cp.hint.keyLen.Load()))
		g.acc.reserve(expect + expect/4)
	}
}

// suffix is the inflation suffix of the row with identifier rowID (−1 when
// inflation is off): the reference evaluator's per-row assignment.
func (g *grouper) suffix(rowID uint64) int32 {
	if g.inflate == 0 {
		return -1
	}
	return int32(splitmix64(g.seed^rowID^0xa5a5) % uint64(g.inflate))
}

// errLaneMiss is a lane task's u64 key at or past KeyBound: the run goes raw.
var errLaneMiss = errors.New("engine: a group key reached the plan's KeyBound")

// laneSlots sets each survivor's lane in g.slots: its key's code — at its own
// row, or a right key's at its join match — × the suffixes + its suffix. A
// u64 key's code is its value: false at the first at or past KeyBound.
func (ts *taskState) laneSlots(startID uint64) bool {
	g, rows := &ts.g, ts.keyRows()
	slots := g.slots[:len(rows)]
	if codes := ts.codes.group; codes != nil {
		for k, r := range rows {
			slots[k] = int32(codes[r])
		}
	} else {
		vals, bound := ts.pc.group.U64, ts.cp.pl.GroupBy.KeyBound
		for k, r := range rows {
			v := vals[r]
			if v >= bound {
				return false
			}
			slots[k] = int32(v)
		}
	}
	if g.inflate > 0 {
		n := int32(g.inflate)
		for k, i := range ts.b.sel {
			slots[k] = slots[k]*n + g.suffix(startID+uint64(i))
		}
	}
	ts.res.ops.GroupDense += uint64(len(rows))
	return true
}

// groupSlots resolves each survivor's group key to a slot in g.slots,
// parallel to the selection vector, in one pass in selection order: every key
// is hashed where it lies — a Fixed key, a DET or OPE value off the lane path,
// as a window of its column's one buffer — and probed in the slot table.
// Accumulation then follows the selection order too, so its min/max
// tie-breaking is the reference evaluator's.
func (ts *taskState) groupSlots(startID uint64) {
	g, sel := &ts.g, ts.b.sel
	switch col := ts.pc.group; col.Kind {
	case store.U64:
		for k, r := range ts.keyRows() {
			v, sfx := col.U64[r], g.suffix(startID+uint64(sel[k]))
			g.slots[k] = g.t.slotU64(v, sfx, hashU64(v, sfx))
		}
	case store.Fixed:
		for k, r := range ts.keyRows() {
			key, sfx := col.BytesAt(int(r)), g.suffix(startID+uint64(sel[k]))
			g.slots[k] = slotKeyed(&g.t, key, sfx, hashKey(key, sfx))
		}
	case store.Bytes:
		keyedSlots(ts, col.Bytes, startID)
	default:
		keyedSlots(ts, col.Str, startID)
	}
	ts.res.ops.GroupHash += uint64(len(sel))
}

// keyRows is the rows the survivors' group keys lie in, parallel to the
// selection vector: their own, or a right-side key's join matches.
func (ts *taskState) keyRows() []int32 {
	if ts.g.right {
		return ts.b.join
	}
	return ts.b.sel
}

// keyedSlots resolves byte and string keys through the slot table.
func keyedSlots[T ~string | ~[]byte](ts *taskState, col []T, startID uint64) {
	g := &ts.g
	for k, r := range ts.keyRows() {
		key, sfx := col[r], g.suffix(startID+uint64(ts.b.sel[k]))
		g.slots[k] = slotKeyed(&g.t, key, sfx, hashKey(key, sfx))
	}
}

// keyKind is the kind group keys of a column of kind k take: Fixed keys
// travel as Bytes — once copied out of their column into a key arena they are
// byte strings like any other, and result frames know three kinds.
func keyKind(k store.Kind) store.Kind {
	if k == store.Fixed {
		return store.Bytes
	}
	return k
}

// fold hands the task's groups on as they are — the key arena and the
// columns, not a heap object per group — and, for a group-by's shuffle, the
// groups partitioned by reducer; a group-by's final sizes go to the plan for
// its next run.
func (g *grouper) fold(res *mapResult, cp *compiledPlan, buckets int) {
	tg := &taskGroups{keys: g.t.groupKeys, rows: g.acc.rows, cols: g.acc.cols}
	if cp.pl.GroupBy != nil {
		res.ops.GroupSlots += uint64(g.t.len())
		if n := uint64(len(g.t.table)); n > res.ops.GroupTableLen {
			res.ops.GroupTableLen = n
		}
		cp.hint.slots.Store(int64(g.t.len()))
		cp.hint.keyLen.Store(int64(g.t.keyLen()))
		tg.partition(buckets)
	}
	res.groups = tg
}

// --- scan path ---

// newScanChunk starts a task's scan output: one empty column per projected
// column, of its kind and width.
func newScanChunk(project []*store.Column) *ScanChunk {
	ch := &ScanChunk{Cols: make([]store.Column, len(project))}
	for j, c := range project {
		ch.Cols[j] = store.Column{Name: c.Name, Kind: c.Kind, Width: c.Width}
	}
	return ch
}

// gather appends src's rows at idx to dst, a column of src's kind and width,
// growing dst once: U64 and Fixed values are copied, Bytes and Str values
// taken by reference. The kind is resolved once per call, not per row.
func gather(dst, src *store.Column, idx []int32) {
	switch src.Kind {
	case store.U64:
		out := slices.Grow(dst.U64, len(idx))
		for _, i := range idx {
			out = append(out, src.U64[i])
		}
		dst.U64 = out
	case store.Fixed:
		w := src.Width
		out := slices.Grow(dst.Fixed, len(idx)*w)
		for _, i := range idx {
			out = append(out, src.Fixed[int(i)*w:int(i+1)*w]...)
		}
		dst.Fixed = out
	case store.Bytes:
		out := slices.Grow(dst.Bytes, len(idx))
		for _, i := range idx {
			out = append(out, src.Bytes[i])
		}
		dst.Bytes = out
	default:
		out := slices.Grow(dst.Str, len(idx))
		for _, i := range idx {
			out = append(out, src.Str[i])
		}
		dst.Str = out
	}
}

// projectScan appends the batch's surviving rows to the task's chunk, column
// by column: a left column gathers the selection vector's rows, a right one
// the join's matches for them.
func (ts *taskState) projectScan(startID uint64) {
	if ts.scan == nil {
		ts.scan = newScanChunk(ts.pc.project)
	}
	sel := ts.b.sel
	ids := slices.Grow(ts.scan.IDs, len(sel))
	for _, i := range sel {
		ids = append(ids, startID+uint64(i))
	}
	ts.scan.IDs = ids
	for pi, src := range ts.pc.project {
		idx := sel
		if ts.cp.project[pi].isRight() {
			idx = ts.b.join[:len(sel)]
		}
		gather(&ts.scan.Cols[pi], src, idx)
	}
}

// runMapTask executes the compiled plan's map stage on one partition, a
// group-by's into a table of the task's own. It observes ctx at the injected
// I/O stall and once per cancelCheckRows rows of the batch loop, so a
// canceled query abandons even a single huge partition promptly. Binding and
// compilation are excluded from the measured task duration, matching the
// reference evaluator's accounting.
func (cp *compiledPlan) runMapTask(ctx context.Context, c *Cluster, part *store.Partition) (*mapResult, error) {
	return cp.mapTask(ctx, c, part, nil)
}

// mapTask is runMapTask reading its run's codes tc (nil for none). A lane
// group-by's task adds into a lane set of its run's pool, and hands it back
// when it ends. The task's pins end with it, on every path.
func (cp *compiledPlan) mapTask(ctx context.Context, c *Cluster, part *store.Partition, tc *taskCodes) (*mapResult, error) {
	if c.cfg.TaskSleep > 0 {
		t := time.NewTimer(c.cfg.TaskSleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	// Fault in exactly the columns this plan reads, and hold them resident
	// (safe from eviction) for the duration of the task: the task state binds
	// &part.Cols[i] pointers, which stay valid only while pinned.
	release, faulted, err := part.PinStats(cp.leftIdxs)
	if err != nil {
		return nil, err
	}
	defer release()
	i0, i1 := rangeBounds(part, cp.pl.Range)
	ts := cp.newTaskState(part, tc)
	if tc != nil && tc.lanes != nil {
		ts.lanes = <-tc.lanes.free
		defer func() { tc.lanes.free <- ts.lanes }()
	}
	pinned := len(cp.leftIdxs)
	if cp.leftIdxs == nil {
		pinned = len(part.Cols)
	}
	ts.res.ops.ColumnPins = uint64(pinned)
	ts.res.ops.ColumnFaults = uint64(faulted)
	ts.res.rowsScanned = uint64(i1 - i0 + 1)
	if cp.ashe && cp.pl.GroupBy != nil {
		// A survivor's slot a row at most, reserved once.
		ts.res.tags = make([]int32, 0, max(i1-i0+1, 0))
	}

	start := time.Now()
	if err := ts.execute(ctx, i0, i1); err != nil {
		return nil, err
	}
	switch {
	case ts.lanes != nil: // the lanes are the run's: the reduce folds the pool
	case len(cp.pl.Project) == 0:
		ts.g.fold(ts.res, cp, c.cfg.Workers)
	case ts.scan != nil:
		ts.res.scan = ts.scan.Rows()
	}
	ts.res.elapsed = time.Since(start)
	cp.pl.sizeOutput(ts.res)
	return ts.res, nil
}
