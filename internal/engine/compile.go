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
// different partitions never rebuild it. Only its sizing hint, its per-code
// tables (codeCaches) and its record of a lane miss (laneMiss) change.
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
	// codeVal holds, per filter, its predicate on one value, where a map task
	// may run it as a pass table over a coded column (codes.go); nil elsewhere.
	codeVal []func(v []byte) bool
	// laneGroup is set when the group-by adds into lanes wherever a run names
	// its keys by code (codes.go), with a right key's codes (codeRight);
	// laneMiss once a u64 key reached KeyBound, which sends later runs raw.
	laneGroup  bool
	rightCodes []uint16
	rightKeys  []byte
	laneMiss   atomic.Bool
	codes      codeCaches
	aggs       []aggKernel
	hint       groupHint
	// ashe is set when an aggregate is an ASHE sum: map tasks then keep their
	// survivors' identifiers, and a group-by's each survivor's slot, for the
	// result's identifier section (ids.go).
	ashe bool
}

// groupHint is what a grouped plan's last run measured: the last map task's
// slot count (grouper.fold), the mean key length and the slot count a reducer
// last held (reduceGroups), which size the next run's vectors. No result
// depends on them, and the reference evaluator never reads them.
type groupHint struct {
	slots, keyLen, merged atomic.Int64
}

// compile binds pl against its table's layout and lowers it to kernels.
// seed is the cluster seed (group inflation). No identifier-list codec enters:
// a map task never encodes.
func (pl *Plan) compile(seed uint64) (*compiledPlan, error) {
	cp := &compiledPlan{pl: pl, seed: seed, leftKeyIdx: -1, ashe: hasAshe(pl)}

	if pl.Join != nil {
		var err error
		cp.right, err = flattenRight(pl.Join.Right, pl.Join.RightCols, pl.Join.RightCol)
		if err != nil {
			return nil, err
		}
		if l, r := pl.Table.Parts[0].Col(pl.Join.LeftCol), cp.right[pl.Join.RightCol]; l != nil && (l.Kind != r.Kind || l.Width != r.Width) {
			return nil, fmt.Errorf("engine: join keys %q and %q hold %v values of width %d and %v values of width %d",
				pl.Join.LeftCol, pl.Join.RightCol, l.Kind, l.Width, r.Kind, r.Width)
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
		cp.laneGroup = pl.LaneGroupBy()
		if cp.laneGroup && ref.isRight() {
			if err := cp.codeRight(); err != nil {
				return nil, err
			}
		}
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
	cp.codeVal = make([]func([]byte) bool, len(pl.Filters))
	cp.codes.pass = make([]atomic.Pointer[[]uint8], len(pl.Filters))
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
// u64 keys hash directly, Fixed, byte and string keys share one string-keyed
// map (probes use Go's alloc-free map[string] lookup on a []byte conversion).
// Duplicate keys keep the last occurrence, matching the reference evaluator's
// hash build.
func (cp *compiledPlan) buildJoinIndex(key *store.Column) {
	switch key.Kind {
	case store.U64:
		cp.joinU64 = make(map[uint64]int32, len(key.U64))
		for i, v := range key.U64 {
			cp.joinU64[v] = int32(i)
		}
	case store.Fixed, store.Bytes:
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

// bindPart resolves the compiled references against one partition's columns:
// pointer lookups by index, no name resolution and no kind dispatch. A filter
// that tc codes for the partition runs its pass table (codedKernel) in place
// of its kernel; tc is nil where the task reads no codes.
func (cp *compiledPlan) bindPart(part *store.Partition, pc *partCols, tc *taskCodes) {
	at := func(ref colRef) *store.Column {
		if ref.isRight() {
			return ref.right // nil for FilterRandom / AggCount placeholders
		}
		return &part.Cols[ref.idx]
	}
	pc.filters, pc.codes, pc.pass = pc.filters[:0], nil, nil
	for _, ref := range cp.filters {
		pc.filters = append(pc.filters, at(ref))
	}
	if tc != nil {
		pc.codes, pc.pass = tc.filters, tc.pass
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
