package engine

import (
	"fmt"
	"sync/atomic"

	"seabed/internal/store"
)

// This file implements phase 1 of the vectorized executor: compile. A plan
// is bound against the table's partition layout exactly once per Run —
// column names resolve to layout indices, the broadcast join hash is built
// with keys typed by the key column's kind, every filter becomes a typed
// predicate kernel, and every aggregate a typed accumulator kernel. All
// per-kind dispatch happens here, outside the scan loop; phase 2 (batch.go)
// then runs the compiled kernels over selection vectors without a single
// per-row switch.

// colRef is a compiled column reference: an index into Partition.Cols for
// left-table columns, or the already-flattened right-side column for columns
// a broadcast join contributed. Exactly one of the two is meaningful.
type colRef struct {
	idx   int // left-side layout index; -1 when the column is right-side
	right *store.Column
}

// isRight reports whether the reference addresses the join's right table.
func (r colRef) isRight() bool { return r.idx < 0 }

// compiledPlan is the once-per-Run compilation of a Plan: resolved column
// references, a typed join index, and the predicate/accumulator kernels the
// batch executor runs, shared by every map task of the run so that tasks on
// different partitions never rebuild it. Only its sizing hint changes.
type compiledPlan struct {
	pl   *Plan
	seed uint64 // cluster seed, drives group inflation

	filters    []colRef
	aggCols    []colRef
	companions []colRef
	groupCol   colRef
	project    []colRef
	leftKeyIdx int // layout index of the join's left key; -1 without a join

	// leftIdxs lists the distinct left-table layout indices the plan reads —
	// the exact columns each map task pins resident in its partition, so a
	// query against a mapped table faults in only what it touches.
	leftIdxs []int

	// right holds the join's flattened right-side columns by name; the join
	// index maps key values to right-side row indices, typed by the key
	// column's kind so u64 keys never round-trip through strings.
	right   map[string]*store.Column
	joinU64 map[uint64]int32
	joinStr map[string]int32

	preds []predKernel
	aggs  []aggKernel
	hint  groupHint
}

// groupHint is what a grouped plan's last run measured. Its sizes — the last
// map task's slot count (grouper.fold), the mean key length, the slot count a
// reducer last held — size the next run's vectors. Its shape — the rows the
// run selected, its result groups and its map tasks — picks the next run's
// strategy (bucketed). No result depends on either, and the reference
// evaluator never reads them.
type groupHint struct {
	slots, keyLen, merged atomic.Int64
	rows, groups, tasks   atomic.Int64
}

// bucketRowsPerGroupTask is the rows per group per map task, N ÷ (G × T), below
// which a group-by's map tasks bucket rows instead of grouping them: there a
// task's table merges little, and its reducer interns every (task, group)
// pair again. BenchmarkRunGroupByBytes places it: 64 Ki rows of 16-byte DET
// keys with an ASHE sum, on 8 partitions and 4 reducers, so 8192 ÷ G rows per
// group per task, each strategy in its steady state (2-core Xeon, two sweeps
// of 3 × 60 runs). Per-task tables lead by 10–25 % at 32 and 16 rows per
// group per task; at 8 the two are within 3 %; bucketed rows lead by 18–44 %
// at 4, 2× at 1 and 1.8–2× at 0.5, wide_gb's shape. They cross near 8.
const bucketRowsPerGroupTask = 8.0

// bucketed applies the rule to the plan's last run. A plan's first run has no
// measure and keeps per-task tables; either strategy records the next one.
func (h *groupHint) bucketed() bool {
	g, t := h.groups.Load(), h.tasks.Load()
	return g > 0 && float64(h.rows.Load()) < bucketRowsPerGroupTask*float64(g)*float64(t)
}

// measure records a finished grouped run's shape and its reducers' largest
// slot count.
func (h *groupHint) measure(rows uint64, groups, tasks, merged int) {
	h.rows.Store(int64(rows))
	h.groups.Store(int64(groups))
	h.tasks.Store(int64(tasks))
	h.merged.Store(int64(merged))
}

// compile binds pl against its table's layout and lowers it to kernels.
// seed is the cluster seed (group inflation). No identifier-list codec enters:
// a map task never encodes.
func (pl *Plan) compile(seed uint64) (*compiledPlan, error) {
	cp := &compiledPlan{pl: pl, seed: seed, leftKeyIdx: -1}

	if pl.Join != nil {
		var err error
		cp.right, err = flattenRight(pl.Join.Right, pl.Join.RightCols, pl.Join.RightCol)
		if err != nil {
			return nil, err
		}
		cp.buildJoinIndex(cp.right[pl.Join.RightCol])
	}
	if err := pl.checkCipherCols(cp.right); err != nil {
		return nil, err
	}

	// All partitions share one column layout (store.Build slices each column,
	// and appends validate names, kinds and widths), so name resolution against
	// the first partition holds for every task of the run.
	layout := pl.Table.Parts[0]
	resolve := func(name string) (colRef, error) {
		if idx := layout.ColIndex(name); idx >= 0 {
			cp.useLeft(idx)
			return colRef{idx: idx}, nil
		}
		if cp.right != nil {
			if c, ok := cp.right[name]; ok {
				return colRef{idx: -1, right: c}, nil
			}
		}
		return colRef{}, fmt.Errorf("engine: unknown column %q", name)
	}

	for fi := range pl.Filters {
		f := &pl.Filters[fi]
		ref := colRef{idx: -1}
		if f.Kind != FilterRandom {
			var err error
			ref, err = resolve(f.Col)
			if err != nil {
				return nil, err
			}
		}
		cp.filters = append(cp.filters, ref)
	}
	for ai := range pl.Aggs {
		a := &pl.Aggs[ai]
		ref, comp := colRef{idx: -1}, colRef{idx: -1}
		if a.Kind != AggCount {
			var err error
			ref, err = resolve(a.Col)
			if err != nil {
				return nil, err
			}
			if a.Companion != "" {
				comp, err = resolve(a.Companion)
				if err != nil {
					return nil, err
				}
			}
		}
		cp.aggCols = append(cp.aggCols, ref)
		cp.companions = append(cp.companions, comp)
	}
	if pl.GroupBy != nil {
		ref, err := resolve(pl.GroupBy.Col)
		if err != nil {
			return nil, err
		}
		cp.groupCol = ref
	}
	for _, name := range pl.Project {
		ref, err := resolve(name)
		if err != nil {
			return nil, err
		}
		cp.project = append(cp.project, ref)
	}
	if pl.Join != nil {
		ref, err := resolve(pl.Join.LeftCol)
		if err != nil || ref.isRight() {
			return nil, fmt.Errorf("engine: join key %q missing from left table", pl.Join.LeftCol)
		}
		cp.leftKeyIdx = ref.idx
		cp.useLeft(ref.idx)
	}

	// Lower filters and aggregates to kernels, now that every reference is
	// resolved and each kernel can specialize on kind, operator, and side.
	for fi := range pl.Filters {
		k, err := cp.compileFilter(fi, &pl.Filters[fi])
		if err != nil {
			return nil, err
		}
		cp.preds = append(cp.preds, k)
	}
	for ai := range pl.Aggs {
		cp.aggs = append(cp.aggs, cp.compileAgg(ai, &pl.Aggs[ai]))
	}
	return cp, nil
}

// useLeft records a left-table layout index in the plan's pinned working
// set, deduplicated.
func (cp *compiledPlan) useLeft(idx int) {
	for _, have := range cp.leftIdxs {
		if have == idx {
			return
		}
	}
	cp.leftIdxs = append(cp.leftIdxs, idx)
}

// buildJoinIndex indexes the right table's key column, typed by its kind:
// u64 keys hash directly, byte and string keys share one string-keyed map
// (byte keys convert once here, at build — probes use Go's alloc-free
// map[string] lookup on a []byte conversion). Duplicate keys keep the last
// occurrence, matching the reference evaluator's hash build.
func (cp *compiledPlan) buildJoinIndex(key *store.Column) {
	switch key.Kind {
	case store.U64:
		cp.joinU64 = make(map[uint64]int32, len(key.U64))
		for i, v := range key.U64 {
			cp.joinU64[v] = int32(i)
		}
	case store.Bytes, store.Fixed:
		cp.joinStr = make(map[string]int32, key.Len())
		for i := 0; i < key.Len(); i++ {
			cp.joinStr[string(key.BytesAt(i))] = int32(i)
		}
	default:
		cp.joinStr = make(map[string]int32, len(key.Str))
		for i, s := range key.Str {
			cp.joinStr[s] = int32(i)
		}
	}
}

// bindPart resolves the compiled references against one partition's columns.
// This is the only per-partition work left at execution time: pointer
// lookups by index, no name resolution and no kind dispatch.
func (cp *compiledPlan) bindPart(part *store.Partition, pc *partCols) {
	at := func(ref colRef) *store.Column {
		if ref.isRight() {
			return ref.right // nil for FilterRandom / AggCount placeholders
		}
		return &part.Cols[ref.idx]
	}
	pc.filters = pc.filters[:0]
	for _, ref := range cp.filters {
		pc.filters = append(pc.filters, at(ref))
	}
	pc.aggs = pc.aggs[:0]
	pc.companions = pc.companions[:0]
	for ai, ref := range cp.aggCols {
		pc.aggs = append(pc.aggs, at(ref))
		pc.companions = append(pc.companions, at(cp.companions[ai]))
	}
	if cp.pl.GroupBy != nil {
		pc.group = at(cp.groupCol)
	}
	pc.project = pc.project[:0]
	for _, ref := range cp.project {
		pc.project = append(pc.project, at(ref))
	}
	if cp.leftKeyIdx >= 0 {
		pc.leftKey = &part.Cols[cp.leftKeyIdx]
	}
}
