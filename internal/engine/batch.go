package engine

import (
	"context"
	"math"
	"slices"
	"time"

	"seabed/internal/idlist"
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

	// A bucketed group-by's map task appends each survivor to route[b], the
	// bucket of reducer b, instead of grouping it; a reducer grouping its
	// bucket reads each batch's key hashes from carried instead of hashing
	// them again (groupBucket).
	route   []rowBucket
	carried []uint64
}

// newTaskState binds the compiled plan to a partition and sizes the
// workspace the plan's shape needs.
func (cp *compiledPlan) newTaskState(part *store.Partition) *taskState {
	ts := cp.bindTask(part)
	pl := cp.pl
	switch {
	case len(pl.Project) > 0:
		// scan: the chunk starts with the first survivor
	case pl.GroupBy == nil:
		// The one-group case: slot 0, keyed U64 0, with no table to find it.
		ts.g.t.groupKeys.init(store.U64, false)
		ts.g.t.appendU64(0, -1)
		ts.g.acc.init(pl.Aggs, true)
		ts.g.acc.grow(1)
	default:
		ts.g.init(cp, int(cp.hint.slots.Load()))
	}
	return ts
}

// bindTask starts a map task's state: the plan bound to the partition, and the
// batch's selection and join vectors.
func (cp *compiledPlan) bindTask(part *store.Partition) *taskState {
	ts := &taskState{cp: cp, part: part, res: &mapResult{}}
	cp.bindPart(part, &ts.pc)
	ts.selBuf = make([]int32, batchRows)
	if cp.pl.Join != nil {
		ts.joinBuf = make([]int32, 0, batchRows)
	}
	return ts
}

// newRouteState binds the compiled plan to a partition for a bucketed
// group-by's map task: the batch buffers, the key hashing, and one row bucket
// per reducer, each sized for its share of the task's rows. The buckets share
// one block per vector; a bucket that outgrows its share moves out on its own.
func (cp *compiledPlan) newRouteState(part *store.Partition, buckets, rows int) *taskState {
	ts := cp.bindTask(part)
	ts.g.initKeys(cp)
	// A share is binomial: its mean and four deviations hold it but for
	// about one bucket in thirty thousand.
	mean := float64(max(rows, 0)) / float64(buckets)
	per := int(mean + 4*math.Sqrt(mean) + 1)
	rowIdx, hash := make([]int32, buckets*per), make([]uint64, buckets*per)
	var join []int32
	if cp.pl.Join != nil {
		join = make([]int32, buckets*per)
	}
	ts.route = make([]rowBucket, buckets)
	for b := range ts.route {
		lo, hi := b*per, (b+1)*per
		bk := &ts.route[b]
		bk.rows, bk.hash = rowIdx[lo:lo:hi], hash[lo:lo:hi]
		if join != nil {
			bk.join = join[lo:lo:hi]
		}
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
	// contiguous interval directly (and ASHE id-lists grow by whole ranges).
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
		for _, pred := range cp.preds {
			pred(&ts.pc, &ts.b, startID)
			if len(ts.b.sel) == 0 {
				break
			}
		}
		survivors := len(ts.b.sel)
		ts.res.rowsSelected += uint64(survivors)
		if survivors == 0 {
			continue
		}

		switch {
		case scan:
			ts.projectScan(startID)
		case !grouped:
			acc.rows[0] += uint64(survivors)
			for ai := range cp.aggs {
				cp.aggs[ai].bulk(&ts.pc, acc, &ts.b, startID)
			}
		case ts.route != nil:
			ts.routeRows(startID)
		default:
			ts.accumulateGroups(startID)
		}
	}
	return nil
}

// probe runs the broadcast-join hash probe over the batch: unmatched rows
// drop from the selection vector (inner join), matched rows record their
// right-table row in the join vector. The probe is typed by the key kind —
// u64 keys hash directly and byte keys use Go's allocation-free
// map[string]([]byte) lookup, so no per-row key materializes.
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
	case store.Bytes, store.Fixed:
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

// Dense direct-index sizing for u64 group keys. Every u64 grouper starts
// with denseDefaultEntries slots of key×suffix coverage, so small dimension
// domains (the SPLASHE shape §4.5 optimizes) index directly even without a
// planner-declared bound; a plan-declared GroupBy.KeyBound sizes the index
// exactly. denseMaxEntries caps the allocation against huge or hostile
// bounds — keys beyond the dense span fall back to the open-addressed table
// and still group correctly.
const (
	denseDefaultEntries = 1 << 12
	denseMaxEntries     = 1 << 20
)

// Radix partitioning of hash-path probes. When the open-addressed slot
// table outgrows radixMinTable entries, each batch's surviving keys are
// counting-sorted by the top radixBits of their hash before probing: the
// table index is the hash's high bits, so probes within one radix run land
// in the same 1/256th of the table — cache-resident bursts instead of
// random per-row walks.
const (
	radixBits     = 8
	radixBuckets  = 1 << radixBits
	radixMinTable = 1 << 15
)

// grouper locates the accumulator for each surviving row's group. Every key
// kind is slot-based: a key resolves to a small slot number — u64 keys under
// the dense span through a direct index, every other key (wider u64 values,
// DET/OPE bytes, strings) through the shared open-addressed slotTable, whose
// byte keys live in one per-task arena — and accumulation then runs per batch
// over (selection, slot) pairs into the accumulators' columns (groupAcc). An
// ungrouped plan's task keeps its one slot here too, without the table.
type grouper struct {
	t   slotTable
	acc groupAcc

	right   bool
	inflate int
	seed    uint64

	// u64 dense index: dense maps key*inflateN+suffix → slot+1 (0 = empty)
	// for keys under denseKeys. Unused (denseKeys 0) for other key kinds.
	inflateN  uint64
	denseKeys uint64
	dense     []int32

	// Per-batch scratch, sized to batchRows once: the resolved slot per
	// survivor, and for the rows the dense index did not resolve their
	// position in the batch, key row, suffix and hash, plus the probe order.
	slots  []int32
	hpos   []int32
	hidx   []int32
	hsfx   []int32
	hh     []uint64
	horder []int32
}

// init sizes the slot machinery: for u64 keys the dense index spans
// min(KeyBound | default, cap/inflate) keys times the suffix domain; the
// per-batch scratch is allocated once, so the steady-state batch loop
// allocates nothing; and the table is sized for expect slots — what the plan's
// last run held in a map task's table, or in a reducer's for a reducer — at
// half load (1 Ki entries at least), the keys, hashes, accumulators and
// identifier-list slots for those and a quarter more, so that a slightly
// larger partition or bucket fits too.
func (g *grouper) init(cp *compiledPlan, expect int) {
	g.initKeys(cp)
	kind := groupColKind(cp)
	g.t.init(kind, g.inflate > 0, expect)
	g.acc.init(cp.pl.Aggs, true)
	if expect > 0 {
		g.t.reserve(expect+expect/4, int(cp.hint.keyLen.Load()))
		g.acc.reserve(expect + expect/4)
	}
	if kind == store.U64 {
		keys := uint64(denseDefaultEntries) / g.inflateN
		if kb := cp.pl.GroupBy.KeyBound; kb > 0 {
			keys = kb
		}
		if max := uint64(denseMaxEntries) / g.inflateN; keys > max {
			keys = max
		}
		g.denseKeys = keys
		g.dense = make([]int32, keys*g.inflateN)
	}
	g.horder = make([]int32, batchRows)
}

// initKeys readies what hashing a row's group key takes: the key's side, the
// inflation suffix's parameters and the per-batch hash scratch. With no dense
// index (denseKeys 0), hashPass hashes every survivor's key, which is all a
// bucketed map task asks of it.
func (g *grouper) initKeys(cp *compiledPlan) {
	g.right = cp.groupCol.isRight()
	g.seed = cp.seed
	g.inflateN = 1
	if cp.pl.GroupBy.Inflate > 1 {
		g.inflate = cp.pl.GroupBy.Inflate
		g.inflateN = uint64(g.inflate)
	}
	g.slots = make([]int32, batchRows)
	g.hpos = make([]int32, batchRows)
	g.hidx = make([]int32, batchRows)
	g.hsfx = make([]int32, batchRows)
	g.hh = make([]uint64, batchRows)
}

// suffix is the inflation suffix of the row with identifier rowID (−1 when
// inflation is off): the reference evaluator's per-row assignment.
func (g *grouper) suffix(rowID uint64) int32 {
	if g.inflate == 0 {
		return -1
	}
	return int32(splitmix64(g.seed^rowID^0xa5a5) % uint64(g.inflate))
}

// groupSlots resolves each survivor's group key to a slot in g.slots,
// parallel to the selection vector. u64 keys under the dense span index
// directly; every other key is hashed, radix-partitioned by hash prefix when
// the table is large, and probed in prefix order so table accesses burst
// through one cache-resident region at a time. Only the probe order is
// permuted — the slot vector stays in selection order, so accumulation
// (and with it id-list append order and min/max tie-breaking) is identical
// to the reference evaluator's row order.
func (ts *taskState) groupSlots(startID uint64) {
	g := &ts.g
	col := ts.pc.group
	miss := ts.hashPass(startID)
	ts.res.ops.GroupDense += uint64(len(ts.b.sel) - miss)
	ts.res.ops.GroupHash += uint64(miss)
	if miss == 0 {
		return
	}
	order := g.horder[:miss]
	if len(g.t.table) >= radixMinTable && miss >= radixBuckets {
		ts.res.ops.RadixBatches++
		var count [radixBuckets + 1]int32
		for m := 0; m < miss; m++ {
			count[(g.hh[m]>>(64-radixBits))+1]++
		}
		for b := 1; b <= radixBuckets; b++ {
			count[b] += count[b-1]
		}
		for m := 0; m < miss; m++ {
			b := g.hh[m] >> (64 - radixBits)
			order[count[b]] = int32(m)
			count[b]++
		}
	} else {
		for m := range order {
			order[m] = int32(m)
		}
	}
	switch col.Kind {
	case store.U64:
		for _, m := range order {
			g.slots[g.hpos[m]] = g.t.slotU64(col.U64[g.hidx[m]], g.hsfx[m], g.hh[m])
		}
	case store.Bytes:
		probeKeys(g, col.Bytes, order)
	case store.Fixed:
		for _, m := range order {
			g.slots[g.hpos[m]] = slotKeyed(&g.t, col.BytesAt(int(g.hidx[m])), g.hsfx[m], g.hh[m])
		}
	default:
		probeKeys(g, col.Str, order)
	}
}

// hashPass is groupSlots' first pass: it resolves the survivors whose u64 key
// lies under the dense span and gathers every other survivor's position, key
// row, suffix and key hash into the pending vectors — the hash taken from
// ts.carried where the rows arrived with it. It returns the number pending.
func (ts *taskState) hashPass(startID uint64) int {
	switch col := ts.pc.group; col.Kind {
	case store.U64:
		return ts.hashU64Keys(startID)
	case store.Bytes:
		return hashKeys(ts, col.Bytes, startID)
	case store.Fixed:
		return ts.hashFixedKeys(startID)
	default:
		return hashKeys(ts, col.Str, startID)
	}
}

// hashU64Keys is groupSlots' first pass for u64 keys: keys under the dense
// span resolve on the spot, the rest are hashed into the pending vectors. It
// returns the number pending.
func (ts *taskState) hashU64Keys(startID uint64) (miss int) {
	g := &ts.g
	col := ts.pc.group.U64
	sel := ts.b.sel
	slots := g.slots[:len(sel)]
	dense, denseKeys, inflateN := g.dense, g.denseKeys, g.inflateN
	for k, i := range sel {
		idx := i
		if g.right {
			idx = ts.b.joinAt(k)
		}
		v := col[idx]
		sfx := g.suffix(startID + uint64(i))
		if v < denseKeys {
			dk := v * inflateN
			if sfx > 0 {
				dk += uint64(sfx)
			}
			s := dense[dk]
			if s == 0 {
				g.t.appendU64(v, sfx)
				s = int32(g.t.len())
				dense[dk] = s
			}
			slots[k] = s - 1
			continue
		}
		g.hpos[miss], g.hidx[miss], g.hsfx[miss] = int32(k), idx, sfx
		if ts.carried != nil {
			g.hh[miss] = ts.carried[k]
		} else {
			g.hh[miss] = hashU64(v, sfx)
		}
		miss++
	}
	return miss
}

// hashKeys is groupSlots' first pass for byte and string keys: every survivor
// is hashed into the pending vectors.
func hashKeys[T ~string | ~[]byte](ts *taskState, col []T, startID uint64) int {
	g := &ts.g
	for k, i := range ts.b.sel {
		idx := i
		if g.right {
			idx = ts.b.joinAt(k)
		}
		sfx := g.suffix(startID + uint64(i))
		g.hpos[k], g.hidx[k], g.hsfx[k] = int32(k), idx, sfx
		if ts.carried != nil {
			g.hh[k] = ts.carried[k]
		} else {
			g.hh[k] = hashKey(col[idx], sfx)
		}
	}
	return len(ts.b.sel)
}

// hashFixedKeys is hashKeys for a Fixed column, whose keys are windows of one
// flat buffer rather than elements of a slice.
func (ts *taskState) hashFixedKeys(startID uint64) int {
	g := &ts.g
	buf, w := ts.pc.group.Fixed, ts.pc.group.Width
	for k, i := range ts.b.sel {
		idx := i
		if g.right {
			idx = ts.b.joinAt(k)
		}
		sfx := g.suffix(startID + uint64(i))
		g.hpos[k], g.hidx[k], g.hsfx[k] = int32(k), idx, sfx
		if ts.carried != nil {
			g.hh[k] = ts.carried[k]
		} else {
			lo := int(idx) * w
			g.hh[k] = hashKey(buf[lo:lo+w], sfx)
		}
	}
	return len(ts.b.sel)
}

// probeKeys is groupSlots' last pass for byte and string keys: probe the
// pending rows in the given order.
func probeKeys[T ~string | ~[]byte](g *grouper, col []T, order []int32) {
	for _, m := range order {
		g.slots[g.hpos[m]] = slotKeyed(&g.t, col[g.hidx[m]], g.hsfx[m], g.hh[m])
	}
}

// routeRows appends the batch's survivors to their reducers' buckets. Each
// survivor's group key is hashed once, as a reducer's slot table hashes it
// (hashPass, with no dense index to resolve it first); the hash modulo the
// reducer count picks its bucket — reducerBucket's rule, so each reducer
// groups exactly the keys a per-task run hands it — and travels with the row.
func (ts *taskState) routeRows(startID uint64) {
	ts.hashPass(startID)
	n := uint64(len(ts.route))
	hh := ts.g.hh
	for k, i := range ts.b.sel {
		h := hh[k]
		bk := &ts.route[h%n]
		bk.rows = append(bk.rows, i)
		bk.hash = append(bk.hash, h)
		if ts.b.join != nil {
			bk.join = append(bk.join, ts.b.join[k])
		}
	}
	ts.res.ops.GroupRouted += uint64(len(ts.b.sel))
}

// groupBucket is reducer b of a bucketed group-by: one grouper over bucket
// b's rows from every map task, in task order, with the accumulator kernels
// bound to each task's partition in turn — its columns still pinned. A
// table's partitions hold ascending, disjoint identifier runs (store.Assemble
// and AppendTable refuse any other), and each task keeps its rows in order, so
// a group's rows arrive in identifier order and its identifier lists grow
// already merged: finishChains only lays them out and encodes them. The
// grouper is sized once, for the slots a reducer of the plan last held, and
// each list arena — the run's next free one (arenas) — holds the bucket's row
// count, which its ranges cannot outnumber. The reducer polls ctx every
// cancelCheckRows rows, from its first.
func (cp *compiledPlan) groupBucket(ctx context.Context, tasks []*mapResult, b int, codec idlist.Codec, arenas *nodeArenas) (*groupMerger, *OpStats, error) {
	ts := &taskState{cp: cp, res: &mapResult{}}
	ts.g.init(cp, int(cp.hint.merged.Load()))
	rows := 0
	for _, r := range tasks {
		rows += len(r.routed[b].rows)
	}
	for ai := range ts.g.acc.ids {
		if cp.pl.Aggs[ai].Kind == AggAsheSum {
			ts.g.acc.ids[ai].nodes = arenas.get(rows)
		}
	}
	grouped, poll := 0, 0
	for _, r := range tasks {
		bk := &r.routed[b]
		if len(bk.rows) == 0 {
			continue
		}
		ts.part = r.part
		cp.bindPart(r.part, &ts.pc)
		for lo := 0; lo < len(bk.rows); lo += batchRows {
			if grouped >= poll {
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
				poll += cancelCheckRows
			}
			hi := min(lo+batchRows, len(bk.rows))
			ts.b.sel, ts.b.join, ts.carried = bk.rows[lo:hi], nil, bk.hash[lo:hi]
			if bk.join != nil {
				ts.b.join = bk.join[lo:hi]
			}
			ts.accumulateGroups(r.part.StartID)
			grouped += hi - lo
		}
	}
	ts.res.ops.GroupSlots = uint64(ts.g.t.len())
	ts.res.ops.GroupTableLen = uint64(len(ts.g.t.table))
	cp.hint.keyLen.Store(int64(ts.g.t.keyLen()))
	ids := ts.g.acc.ids
	mg := &groupMerger{pl: cp.pl, t: ts.g.t, acc: ts.g.acc}
	if err := mg.finishChains(codec); err != nil {
		return nil, nil, err
	}
	for ai := range ids {
		if ids[ai].nodes != nil {
			arenas.put(ids[ai].nodes)
		}
	}
	return mg, &ts.res.ops, nil
}

// groupColKind is the kind group keys take: the group column's, with Fixed
// keys travelling as Bytes — once copied out of their column into a key arena
// they are byte strings like any other, and result frames know three kinds.
func groupColKind(cp *compiledPlan) store.Kind {
	if cp.groupCol.isRight() {
		return keyKind(cp.groupCol.right.Kind)
	}
	return keyKind(cp.pl.Table.Parts[0].Cols[cp.groupCol.idx].Kind)
}

func keyKind(k store.Kind) store.Kind {
	if k == store.Fixed {
		return store.Bytes
	}
	return k
}

// fold hands the task's groups on as they are — the key arena and the
// columns, not a heap object per group — with the identifier lists laid out
// one contiguous run per slot and, for a group-by's shuffle, the groups
// partitioned by reducer. The node arenas the lists grew in go back to the run
// for its next task, and a group-by's final sizes to the plan for its next run.
func (g *grouper) fold(res *mapResult, cp *compiledPlan, arenas *nodeArenas, buckets int) {
	pl := cp.pl
	tg := &taskGroups{keys: g.t.groupKeys, rows: g.acc.rows, cols: g.acc.cols}
	for ai := range g.acc.ids {
		if c := &g.acc.ids[ai]; pl.Aggs[ai].Kind == AggAsheSum {
			tg.cols[ai].Ranges, tg.cols[ai].RangeOff = c.layout()
			arenas.put(c.nodes)
			c.nodes = nil
		}
	}
	if pl.GroupBy != nil {
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
func (cp *compiledPlan) runMapTask(ctx context.Context, c *Cluster, part *store.Partition, arenas *nodeArenas) (*mapResult, error) {
	return cp.mapTask(ctx, c, part, arenas, false)
}

// mapTask is runMapTask, or with route the map task of a bucketed group-by:
// its survivors go to their reducers' buckets (routeRows) and the partition
// stays pinned, for the reducers read its columns; the result's release
// unpins it (run calls it once the reducers finish, on every path).
func (cp *compiledPlan) mapTask(ctx context.Context, c *Cluster, part *store.Partition, arenas *nodeArenas, route bool) (*mapResult, error) {
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
	held := false
	defer func() {
		if !held {
			release()
		}
	}()
	i0, i1 := rangeBounds(part, cp.pl.Range)
	var ts *taskState
	if route {
		ts = cp.newRouteState(part, c.buckets(), i1-i0+1)
	} else {
		ts = cp.newTaskState(part)
		for ai := range ts.g.acc.ids {
			if cp.pl.Aggs[ai].Kind == AggAsheSum {
				ts.g.acc.ids[ai].nodes = arenas.get(0)
			}
		}
	}
	pinned := len(cp.leftIdxs)
	if cp.leftIdxs == nil {
		pinned = len(part.Cols)
	}
	ts.res.ops.ColumnPins = uint64(pinned)
	ts.res.ops.ColumnFaults = uint64(faulted)
	ts.res.rowsScanned = uint64(i1 - i0 + 1)

	start := time.Now()
	if err := ts.execute(ctx, i0, i1); err != nil {
		return nil, err
	}
	switch {
	case route:
		ts.res.routed, ts.res.part, ts.res.release = ts.route, part, release
		held = true
	case len(cp.pl.Project) == 0:
		// Laying the identifier lists out is the task's last measured step.
		ts.g.fold(ts.res, cp, arenas, c.buckets())
	case ts.scan != nil:
		ts.res.scan = ts.scan.Rows()
	}
	ts.res.elapsed = time.Since(start)
	cp.pl.sizeOutput(ts.res)
	return ts.res, nil
}
