package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"time"

	"seabed/internal/idlist"
	"seabed/internal/ope"
	"seabed/internal/store"
)

// This file retains the pre-vectorization row-at-a-time interpreter as a
// straight-line reference evaluator. It is not a production path: the
// differential tests run every query category through both executors and
// demand identical results, and the kernel benchmarks (and the bench
// package's "kernels" experiment) use it as the before-side of the
// vectorization speedup. It must stay behaviorally frozen — fix bugs in
// both executors or in neither.

// groupKey identifies a group in the reference evaluator's key-addressed map
// (the vectorized executor and the merge keep keys in a slotTable, group.go).
// Bytes keys are folded into the string field.
type groupKey struct {
	kind   store.Kind
	u64    uint64
	str    string
	suffix int
}

// refGroup is the reference evaluator's in-flight aggregate for one group.
type refGroup struct {
	rows uint64
	aggs []refAgg
}

// refAgg is one aggregate's accumulator in the reference evaluator.
type refAgg struct {
	kind      AggKind
	u64       uint64
	ids       idlist.List
	pail      *big.Int
	ope       []byte
	compBytes []byte // byte-valued companion of the winning row
	argID     uint64 // winning row for min/max
	// median collection: every selected row's key material.
	medU64  []uint64
	medOpe  [][]byte
	medComp []uint64
	medIDs  []uint64
	seen    bool // for min/max: whether any row contributed
}

func newRefGroup(aggs []Agg) *refGroup {
	p := &refGroup{aggs: make([]refAgg, len(aggs))}
	for i, a := range aggs {
		p.aggs[i].kind = a.Kind
		if a.Kind == AggPaillierSum {
			p.aggs[i].pail = a.PK.EncryptZero()
		}
	}
	return p
}

// takeCompanion records the companion-column value of a new min/max winner.
func (st *refAgg) takeCompanion(comp *store.Column, j int) {
	if comp == nil {
		return
	}
	if comp.Kind != store.U64 {
		st.compBytes = comp.BytesAt(j)
		return
	}
	st.u64 = comp.U64[j]
}

// referencePlan is the reference evaluator's per-Run state: the plan and the
// flattened right side with a string-keyed join hash (the representation the
// interpreter always used).
type referencePlan struct {
	pl       *Plan
	right    map[string]*store.Column
	joinHash map[string]int
}

// compileReference prepares the reference evaluator's run state; it is the
// counterpart of Plan.compile for the interpreter.
func (pl *Plan) compileReference() (*referencePlan, error) {
	rp := &referencePlan{pl: pl}
	if pl.Join != nil {
		var err error
		rp.right, err = flattenRight(pl.Join.Right, pl.Join.RightCols, pl.Join.RightCol)
		if err != nil {
			return nil, err
		}
		rp.joinHash = buildJoinHash(rp.right, pl.Join.RightCol)
	}
	return rp, pl.checkCipherCols(rp.right)
}

// boundCols resolves every column a plan references against a partition and
// the optional broadcast join.
type boundCols struct {
	filters    []*store.Column
	aggs       []*store.Column
	companions []*store.Column
	group      *store.Column
	project    []*store.Column

	// joined columns come from the flattened right table.
	filterRight  []bool
	aggRight     []bool
	groupRight   bool
	projectRight []bool

	leftKey  *store.Column
	joinHash map[string]int
	right    map[string]*store.Column
}

// hashKeyOf renders a join key value as a map key. Only the reference
// evaluator pays this per-probe string materialization; the vectorized
// executor's join index is typed by key kind.
func hashKeyOf(c *store.Column, i int) string {
	switch c.Kind {
	case store.U64:
		var b [8]byte
		v := c.U64[i]
		for j := 0; j < 8; j++ {
			b[j] = byte(v >> (8 * j))
		}
		return string(b[:])
	case store.Bytes, store.Fixed:
		return string(c.BytesAt(i))
	default:
		return c.Str[i]
	}
}

// buildJoinHash indexes the right table's key column.
func buildJoinHash(right map[string]*store.Column, keyCol string) map[string]int {
	key := right[keyCol]
	h := make(map[string]int, key.Len())
	for i := 0; i < key.Len(); i++ {
		h[hashKeyOf(key, i)] = i
	}
	return h
}

// bind resolves the plan's columns against one partition.
func (pl *Plan) bind(part *store.Partition, right map[string]*store.Column, joinHash map[string]int) (*boundCols, error) {
	b := &boundCols{right: right, joinHash: joinHash}
	resolve := func(name string) (*store.Column, bool, error) {
		if c := part.Col(name); c != nil {
			return c, false, nil
		}
		if right != nil {
			if c, ok := right[name]; ok {
				return c, true, nil
			}
		}
		return nil, false, fmt.Errorf("engine: unknown column %q", name)
	}
	for _, f := range pl.Filters {
		if f.Kind == FilterRandom {
			b.filters = append(b.filters, nil)
			b.filterRight = append(b.filterRight, false)
			continue
		}
		c, r, err := resolve(f.Col)
		if err != nil {
			return nil, err
		}
		b.filters = append(b.filters, c)
		b.filterRight = append(b.filterRight, r)
	}
	for _, a := range pl.Aggs {
		if a.Kind == AggCount {
			b.aggs = append(b.aggs, nil)
			b.companions = append(b.companions, nil)
			b.aggRight = append(b.aggRight, false)
			continue
		}
		c, r, err := resolve(a.Col)
		if err != nil {
			return nil, err
		}
		var comp *store.Column
		if a.Companion != "" {
			comp, _, err = resolve(a.Companion)
			if err != nil {
				return nil, err
			}
		}
		b.aggs = append(b.aggs, c)
		b.companions = append(b.companions, comp)
		b.aggRight = append(b.aggRight, r)
	}
	if pl.GroupBy != nil {
		c, r, err := resolve(pl.GroupBy.Col)
		if err != nil {
			return nil, err
		}
		b.group, b.groupRight = c, r
	}
	for _, name := range pl.Project {
		c, r, err := resolve(name)
		if err != nil {
			return nil, err
		}
		b.project = append(b.project, c)
		b.projectRight = append(b.projectRight, r)
	}
	if pl.Join != nil {
		c := part.Col(pl.Join.LeftCol)
		if c == nil {
			return nil, fmt.Errorf("engine: join key %q missing from left table", pl.Join.LeftCol)
		}
		b.leftKey = c
	}
	return b, nil
}

// runMapTask executes the plan's map stage on one partition with the
// original row-at-a-time loop: per-row switches over FilterKind and AggKind,
// string-keyed join probes, and string-folded group keys. It observes ctx
// at the injected I/O stall and once per cancelCheckRows rows.
func (rp *referencePlan) runMapTask(ctx context.Context, c *Cluster, part *store.Partition, _ *nodeArenas) (*mapResult, error) {
	pl := rp.pl
	if c.cfg.TaskSleep > 0 {
		t := time.NewTimer(c.cfg.TaskSleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	// The reference loop is not compiled, so no column working set is known
	// up front: pin the whole partition resident for the task.
	release, faulted, err := part.PinStats(nil)
	if err != nil {
		return nil, err
	}
	defer release()
	b, err := pl.bind(part, rp.right, rp.joinHash)
	if err != nil {
		return nil, err
	}
	res := &mapResult{}
	res.ops.ColumnPins = uint64(len(part.Cols))
	res.ops.ColumnFaults = uint64(faulted)

	i0, i1 := rangeBounds(part, pl.Range)
	res.rowsScanned = uint64(i1 - i0 + 1)

	start := time.Now()
	// The row loop accumulates groups into a key-addressed map; the task-output
	// form the reducer takes is produced by one taskGroupsFromMap conversion
	// after the loop, keeping the loop itself byte-for-byte the
	// pre-vectorization interpreter.
	var single *refGroup
	var groups map[groupKey]*refGroup
	var scan *ScanChunk // the task's survivors, one chunk as a vectorized task's
	var scanRows, scanJoins []int32
	if pl.GroupBy == nil && len(pl.Project) == 0 {
		single = newRefGroup(pl.Aggs)
	} else if pl.GroupBy != nil {
		groups = make(map[groupKey]*refGroup)
	}

	inflate := 0
	if pl.GroupBy != nil && pl.GroupBy.Inflate > 1 {
		inflate = pl.GroupBy.Inflate
	}

	for i := i0; i <= i1; i++ {
		if (i-i0)&(cancelCheckRows-1) == cancelCheckRows-1 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rowID := part.StartID + uint64(i)
		joinIdx := -1
		if b.leftKey != nil {
			idx, ok := b.joinHash[hashKeyOf(b.leftKey, i)]
			if !ok {
				continue // inner join: unmatched rows drop
			}
			joinIdx = idx
		}
		// Filters (conjunction).
		ok := true
		for fi := range pl.Filters {
			f := &pl.Filters[fi]
			switch f.Kind {
			case FilterRandom:
				if f.Prob < 1 && splitmix64(f.Seed^rowID) >= uint64(f.Prob*float64(1<<63))<<1 {
					ok = false
				}
			case FilterPlainCmp:
				col := b.filters[fi]
				j := i
				if b.filterRight[fi] {
					j = joinIdx
				}
				if !cmpMatch(f.Op, cmpU64(col.U64[j], f.U64)) {
					ok = false
				}
			case FilterStrCmp:
				col := b.filters[fi]
				j := i
				if b.filterRight[fi] {
					j = joinIdx
				}
				v := col.Str[j]
				var cmp int
				switch {
				case v < f.Str:
					cmp = -1
				case v > f.Str:
					cmp = 1
				}
				if !cmpMatch(f.Op, cmp) {
					ok = false
				}
			case FilterDetEq:
				col := b.filters[fi]
				j := i
				if b.filterRight[fi] {
					j = joinIdx
				}
				if bytes.Equal(col.BytesAt(j), f.Bytes) == f.Negate {
					ok = false
				}
			case FilterOpeCmp:
				col := b.filters[fi]
				j := i
				if b.filterRight[fi] {
					j = joinIdx
				}
				if !cmpMatch(f.Op, ope.Compare(col.BytesAt(j), f.Bytes)) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		res.rowsSelected++

		// Scan mode: note the row (and its join match) and continue; the
		// survivors are projected after the loop.
		if len(pl.Project) > 0 {
			if scan == nil {
				scan = newScanChunk(b.project)
			}
			scan.IDs = append(scan.IDs, rowID)
			scanRows, scanJoins = append(scanRows, int32(i)), append(scanJoins, int32(joinIdx))
			continue
		}

		// Locate the group's accumulator.
		var pg *refGroup
		if pl.GroupBy == nil {
			pg = single
		} else {
			key := groupKey{kind: keyKind(b.group.Kind), suffix: -1}
			j := i
			if b.groupRight {
				j = joinIdx
			}
			switch b.group.Kind {
			case store.U64:
				key.u64 = b.group.U64[j]
			case store.Bytes, store.Fixed:
				key.str = string(b.group.BytesAt(j))
			default:
				key.str = b.group.Str[j]
			}
			if inflate > 0 {
				key.suffix = int(splitmix64(c.cfg.Seed^rowID^0xa5a5) % uint64(inflate))
			}
			pg = groups[key]
			if pg == nil {
				pg = newRefGroup(pl.Aggs)
				groups[key] = pg
			}
		}
		pg.rows++

		// Accumulate aggregates.
		for ai := range pl.Aggs {
			st := &pg.aggs[ai]
			col := b.aggs[ai]
			j := i
			if col != nil && b.aggRight[ai] {
				j = joinIdx
			}
			switch st.kind {
			case AggCount:
				st.u64++
			case AggPlainSum:
				st.u64 += col.U64[j]
			case AggPlainSumSq:
				st.u64 += col.U64[j] * col.U64[j]
			case AggAsheSum:
				st.u64 += col.U64[j]
				st.ids.Append(rowID)
			case AggPaillierSum:
				pl.Aggs[ai].PK.AddInto(st.pail, new(big.Int).SetBytes(col.Bytes[j]))
			case AggPlainMin:
				if !st.seen || col.U64[j] < st.u64 {
					st.u64, st.seen = col.U64[j], true
				}
			case AggPlainMax:
				if !st.seen || col.U64[j] > st.u64 {
					st.u64, st.seen = col.U64[j], true
				}
			case AggOpeMin:
				if !st.seen || ope.Less(col.BytesAt(j), st.ope) {
					st.ope, st.argID, st.seen = col.BytesAt(j), rowID, true
					st.takeCompanion(b.companions[ai], j)
				}
			case AggOpeMax:
				if !st.seen || ope.Less(st.ope, col.BytesAt(j)) {
					st.ope, st.argID, st.seen = col.BytesAt(j), rowID, true
					st.takeCompanion(b.companions[ai], j)
				}
			case AggPlainMedian:
				st.medU64 = append(st.medU64, col.U64[j])
			case AggOpeMedian:
				st.medOpe = append(st.medOpe, col.BytesAt(j))
				st.medIDs = append(st.medIDs, rowID)
				if comp := b.companions[ai]; comp != nil {
					st.medComp = append(st.medComp, comp.U64[j])
				}
			}
		}
	}

	switch {
	case groups != nil:
		res.groups = pl.taskGroupsFromMap(groups, keyKind(b.group.Kind), inflate > 0)
		res.groups.partition(c.cfg.Workers)
	case single != nil:
		res.groups = pl.taskGroupsFromMap(map[groupKey]*refGroup{{kind: store.U64, suffix: -1}: single}, store.U64, false)
	case scan != nil:
		for pi, col := range b.project {
			idx := scanRows
			if b.projectRight[pi] {
				idx = scanJoins
			}
			gather(&scan.Cols[pi], col, idx)
		}
		res.scan = scan.Rows()
	}
	res.elapsed = time.Since(start)
	pl.sizeOutput(res)
	return res, nil
}

// taskGroupsFromMap converts the reference evaluator's key-addressed map into
// the task-output form — the only step of that evaluator that knows about
// slots and columns. The identifier lists are laid out one run per group, as
// a vectorized task's are.
func (pl *Plan) taskGroupsFromMap(groups map[groupKey]*refGroup, kind store.Kind, inflated bool) *taskGroups {
	var acc groupAcc
	acc.init(pl.Aggs, false)
	acc.grow(len(groups))
	tg := &taskGroups{rows: acc.rows, cols: acc.cols}
	tg.keys.init(kind, inflated)
	for ai := range tg.cols {
		if tg.cols[ai].Kind == AggAsheSum {
			tg.cols[ai].RangeOff = make([]uint64, 1, len(groups)+1)
		}
	}
	g := 0
	for k, p := range groups {
		if kind == store.U64 {
			tg.keys.appendU64(k.u64, int32(k.suffix))
		} else {
			appendKey(&tg.keys, k.str, int32(k.suffix))
		}
		tg.rows[g] = p.rows
		for ai := range p.aggs {
			st, col := &p.aggs[ai], &tg.cols[ai]
			switch st.kind {
			case AggCount, AggPlainSum, AggPlainSumSq, AggPlainMin, AggPlainMax:
				col.Lane[g] = st.u64
			case AggAsheSum:
				col.Lane[g] = st.u64
				col.Ranges = append(col.Ranges, st.ids.Ranges()...)
				col.RangeOff = append(col.RangeOff, uint64(len(col.Ranges)))
			case AggPaillierSum:
				col.Vals[g].Pail = st.pail
			case AggOpeMin, AggOpeMax:
				av := &col.Vals[g]
				av.Ope, av.ArgID, av.U64, av.CompanionBytes = st.ope, st.argID, st.u64, st.compBytes
			case AggPlainMedian:
				col.Vals[g].MedU64 = st.medU64
			case AggOpeMedian:
				av := &col.Vals[g]
				av.MedOpe, av.MedIDs, av.MedComp = st.medOpe, st.medIDs, st.medComp
			}
		}
		g++
	}
	return tg
}
