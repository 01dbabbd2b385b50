package engine

import (
	"bytes"
	"fmt"
	"math/big"
	"math/bits"

	"seabed/internal/ope"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file holds the executor's kernels: per-kind, per-operator functions
// compiled once per Run (compile.go) and invoked once per batch (batch.go).
// Predicate kernels compact a selection vector in place; accumulator kernels
// fold the survivors into the accumulators' columns (groupAcc), either in one
// tight loop over the raw column slice into an ungrouped plan's one slot (bulk,
// dense) or, for a group-by, over (selection, slot) pairs — per-kind lane loops
// (accumulateGroups) and, for kinds without a lane, a row kernel per pair.
// Neither path contains a per-row switch over FilterKind or AggKind: the
// switch ran at compile time.

// partCols is a compiled plan bound to one partition: the concrete column
// vectors every kernel reads. Slots mirror the plan's filters/aggs/project
// order; nil entries are FilterRandom / AggCount placeholders.
type partCols struct {
	filters    []*store.Column
	aggs       []*store.Column
	companions []*store.Column
	group      *store.Column
	project    []*store.Column
	leftKey    *store.Column
	// Per filter, its column's codes and its answer per code (nil where not
	// coded); the group key's dictionary where the grouper reads codes.
	codes     [][]uint16
	pass      [][]uint8
	groupDict *store.Dict
}

// checkCipherCols holds a plan's ciphertext operators to the layout of the
// columns they read; both executors call it when they compile a plan, so a
// wrong length is refused once, at bind, and no kernel checks a value. An OPE
// comparison (filter, min, max, median) needs a Fixed column of
// ope.CiphertextSize-byte values and a constant of that size: comparing
// anything else would answer something, and any answer is wrong. A DET
// equality reads a Fixed column, whose width its constant must have, or a
// Bytes one (DET of strings). right is the join's flattened right side.
func (pl *Plan) checkCipherCols(right map[string]*store.Column) error {
	if len(pl.Table.Parts) == 0 {
		return fmt.Errorf("engine: table %q has no partitions", pl.Table.Name)
	}
	meta := func(name string) (store.ColMeta, error) {
		if c := pl.Table.Parts[0].Col(name); c != nil {
			return c.Meta(), nil
		}
		if c, ok := right[name]; ok {
			return c.Meta(), nil
		}
		return store.ColMeta{}, fmt.Errorf("engine: unknown column %q", name)
	}
	needOpe := func(name string) error {
		m, err := meta(name)
		if err == nil && (m.Kind != store.Fixed || m.Width != ope.CiphertextSize) {
			err = fmt.Errorf("engine: column %q holds %v values of width %d where OPE ciphertexts (fixed, %d bytes) belong",
				name, m.Kind, m.Width, ope.CiphertextSize)
		}
		return err
	}
	for fi := range pl.Filters {
		f := &pl.Filters[fi]
		switch f.Kind {
		case FilterOpeCmp:
			if len(f.Bytes) != ope.CiphertextSize {
				return fmt.Errorf("engine: filter on column %q: the constant is %d bytes, not an OPE ciphertext (%d bytes)", f.Col, len(f.Bytes), ope.CiphertextSize)
			}
			if err := needOpe(f.Col); err != nil {
				return err
			}
		case FilterDetEq:
			m, err := meta(f.Col)
			if err != nil {
				return err
			}
			if m.Kind != store.Bytes && (m.Kind != store.Fixed || m.Width != len(f.Bytes)) {
				return fmt.Errorf("engine: filter on column %q: a %d-byte DET constant against %v values of width %d", f.Col, len(f.Bytes), m.Kind, m.Width)
			}
		}
	}
	for ai := range pl.Aggs {
		switch a := &pl.Aggs[ai]; a.Kind {
		case AggOpeMin, AggOpeMax, AggOpeMedian:
			if err := needOpe(a.Col); err != nil {
				return err
			}
		}
	}
	return nil
}

// batch is the executor's working set for one batchRows-sized slice of a
// partition. sel holds the indices (relative to the partition) of rows still
// alive; join holds the matched right-table row for each sel entry, parallel
// to sel, and is nil for plans without a join. Predicate kernels compact
// both in place.
type batch struct {
	sel  []int32
	join []int32
}

// predKernel applies one compiled filter to a batch, compacting b.sel (and
// b.join, when present) to the survivors. startID is the partition's first
// global row identifier, so row i's identifier is startID + i.
type predKernel func(pc *partCols, b *batch, startID uint64)

// aggKernel accumulates one compiled aggregate. bulk consumes a whole
// batch's selection vector into an ungrouped plan's one slot; dense consumes
// the contiguous row interval [lo, hi] into it directly — the executor takes
// that path when a plan has no filters and no join, so every batch survives
// whole and the selection vector would be the identity. row accumulates one
// survivor (i = left row, j = joined right row or -1) into a slot's value: a
// group-by's path for the kinds without a lane, whose lanes accumulateGroups
// fills itself.
type aggKernel struct {
	bulk  func(pc *partCols, acc *groupAcc, b *batch, startID uint64)
	dense func(pc *partCols, acc *groupAcc, lo, hi int, startID uint64)
	row   func(pc *partCols, av *AggValue, i, j int32, rowID uint64)
}

// rowPred lifts a per-row predicate into a predKernel. It is the generic
// driver for filter kinds whose comparison dominates the call overhead
// (string comparisons) and for right-side columns and joined plans, where
// every row indexes through the join vector anyway.
func rowPred(match func(pc *partCols, i, j int32, rowID uint64) bool) predKernel {
	return func(pc *partCols, b *batch, startID uint64) {
		out := b.sel[:0]
		if b.join == nil {
			for _, i := range b.sel {
				if match(pc, i, -1, startID+uint64(i)) {
					out = append(out, i)
				}
			}
			b.sel = out
			return
		}
		jout := b.join[:0]
		for k, i := range b.sel {
			if match(pc, i, b.join[k], startID+uint64(i)) {
				out = append(out, i)
				jout = append(jout, b.join[k])
			}
		}
		b.sel, b.join = out, jout
	}
}

// compileFilter lowers one filter to a predicate kernel. On left-side columns
// of join-free plans — the hot path of a filtered scan — plain u64
// comparisons get fully specialized per operator and DET equality and OPE
// comparison run as one loop over the column with the compare inlined;
// everything else goes through the rowPred driver with the kind dispatch
// resolved here, once.
func (cp *compiledPlan) compileFilter(fi int, f *Filter) (predKernel, error) {
	right := cp.filters[fi].isRight() && f.Kind != FilterRandom
	vectorizable := cp.pl.Join == nil && !right

	switch f.Kind {
	case FilterRandom:
		if f.Prob >= 1 {
			return func(pc *partCols, b *batch, startID uint64) {}, nil
		}
		threshold := uint64(f.Prob*float64(1<<63)) << 1
		seed := f.Seed
		if vectorizable {
			return func(pc *partCols, b *batch, startID uint64) {
				out := b.sel[:0]
				for _, i := range b.sel {
					if splitmix64(seed^(startID+uint64(i))) < threshold {
						out = append(out, i)
					}
				}
				b.sel = out
			}, nil
		}
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			return splitmix64(seed^rowID) < threshold
		}), nil

	case FilterPlainCmp:
		c := f.U64
		if vectorizable {
			return plainCmpKernel(fi, f.Op, c)
		}
		op := f.Op
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			v := pc.filters[fi].U64[pick(i, j, right)]
			return cmpMatch(op, cmpU64(v, c))
		}), nil

	case FilterStrCmp:
		c, op := f.Str, f.Op
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			v := pc.filters[fi].Str[pick(i, j, right)]
			var cmp int
			switch {
			case v < c:
				cmp = -1
			case v > c:
				cmp = 1
			}
			return cmpMatch(op, cmp)
		}), nil

	case FilterDetEq:
		want, neg := f.Bytes, f.Negate
		if vectorizable && cp.pl.Table.Parts[0].Cols[cp.filters[fi].idx].Kind == store.Fixed {
			w := len(want) // the column's width: checkCipherCols
			cp.codeVal[fi] = func(v []byte) bool { return bytes.Equal(v, want) != neg }
			return func(pc *partCols, b *batch, startID uint64) {
				buf := pc.filters[fi].Fixed
				out := b.sel[:0]
				for _, i := range b.sel {
					if lo := int(i) * w; bytes.Equal(buf[lo:lo+w], want) != neg {
						out = append(out, i)
					}
				}
				b.sel = out
			}, nil
		}
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			return bytes.Equal(pc.filters[fi].BytesAt(int(pick(i, j, right))), want) != neg
		}), nil

	case FilterOpeCmp:
		hi, lo := ope.Words(f.Bytes)
		// pass[cmp+1]: the operator resolved once, not per row.
		pass := [3]bool{cmpMatch(f.Op, -1), cmpMatch(f.Op, 0), cmpMatch(f.Op, 1)}
		match := func(v []byte) bool {
			rhi, rlo := ope.Words(v)
			return pass[ope.CompareWords(rhi, rlo, hi, lo)+1]
		}
		if vectorizable {
			cp.codeVal[fi] = match
			return opeCmpKernel(fi, pass, hi, lo), nil
		}
		return rowPred(func(pc *partCols, i, j int32, rowID uint64) bool {
			return match(pc.filters[fi].BytesAt(int(pick(i, j, right))))
		}), nil
	}
	return nil, fmt.Errorf("engine: unknown filter kind %d", f.Kind)
}

// plainCmpKernel returns the operator-specialized u64 comparison kernel for
// a left-side column of a join-free plan: one branch per row, no calls.
func plainCmpKernel(fi int, op sqlparse.CmpOp, c uint64) (predKernel, error) {
	switch op {
	case sqlparse.OpEq:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] == c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpNe:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] != c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpLt:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] < c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpLe:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] <= c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpGt:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] > c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	case sqlparse.OpGe:
		return func(pc *partCols, b *batch, _ uint64) {
			col, out := pc.filters[fi].U64, b.sel[:0]
			for _, i := range b.sel {
				if col[i] >= c {
					out = append(out, i)
				}
			}
			b.sel = out
		}, nil
	}
	// An unknown operator selects nothing, matching cmpMatch's default.
	return func(pc *partCols, b *batch, _ uint64) {
		b.sel = b.sel[:0]
		if b.join != nil {
			b.join = b.join[:0]
		}
	}, nil
}

// opeCmpKernel is the OPE range filter on a left-side column of a join-free
// plan, without a branch on any row's answer: a 16-entry table indexed by the
// row's and the constant's trits at their first difference (opeWordPair) says
// whether the row passes. Every row index is written and the output advances
// by the entry, 0 or 1. Rows go two at a time, so the two lookups overlap
// instead of queueing behind each other's output position. A differing trit
// pair answers as ope.CompareWords does, (x+3−y) % 3 — hostile code-3 trits
// included; equal ciphertexts read a diagonal entry, which answers "equal".
//
// It is not inlined: inlined into compileFilter, its loop would be compiled
// under that large function's inlining budget, with opeWordPair and even
// bits.LeadingZeros64 left as calls — a third slower.
//
//go:noinline
func opeCmpKernel(fi int, pass [3]bool, hi, lo uint64) predKernel {
	var keep [16]uint8 // bytes: an int table costs a third of the kernel's speed
	for x := range 4 {
		for y := range 4 {
			cmp := 0
			if x != y {
				cmp = -1
				if (x+3-y)%3 == 1 {
					cmp = 1
				}
			}
			if pass[cmp+1] {
				keep[x<<2|y] = 1
			}
		}
	}
	return func(pc *partCols, b *batch, _ uint64) {
		buf := pc.filters[fi].Fixed
		sel := b.sel
		n, k := 0, 0
		for ; k+1 < len(sel); k += 2 {
			i0, i1 := sel[k], sel[k+1]
			x0, y0 := opeWordPair(buf[int(i0)*ope.CiphertextSize:], hi, lo)
			x1, y1 := opeWordPair(buf[int(i1)*ope.CiphertextSize:], hi, lo)
			s0 := uint(62-bits.LeadingZeros64(x0^y0)&^1) & 63
			s1 := uint(62-bits.LeadingZeros64(x1^y1)&^1) & 63
			keep0 := int(keep[(x0>>s0&3)<<2|y0>>s0&3])
			keep1 := int(keep[(x1>>s1&3)<<2|y1>>s1&3])
			sel[n] = i0
			n += keep0
			sel[n] = i1
			n += keep1
		}
		if k < len(sel) {
			i := sel[k]
			x, y := opeWordPair(buf[int(i)*ope.CiphertextSize:], hi, lo)
			s := uint(62-bits.LeadingZeros64(x^y)&^1) & 63
			sel[n] = i
			n += int(keep[(x>>s&3)<<2|y>>s&3])
		}
		b.sel = sel[:n]
	}
}

// codedKernel runs a filter on a coded column in place of its kernel: a row's
// answer is its code's entry in the pass table bindPart filled, 0 or 1, by
// which the output advances after every row index is written.
func codedKernel(codes []uint16, pass []uint8, b *batch) {
	sel := b.sel
	n := 0
	for _, i := range sel {
		sel[n] = i
		n += int(pass[codes[i]])
	}
	b.sel = sel[:n]
}

// opeWordPair picks the words opeCmpKernel compares: a ciphertext's high word
// and the constant's, or their low words where the high words agree — a
// branch that follows the column's value domain, not each row's answer. The
// kernel's shift is that of the first differing trit of the pair; equal
// ciphertexts have none, and it wraps to 62, where the two trits are equal.
func opeWordPair(ct []byte, hi, lo uint64) (x, y uint64) {
	rhi, rlo := ope.Words(ct)
	if rhi == hi {
		return rlo, lo
	}
	return rhi, hi
}

// pick maps a (left row, joined row) pair to the index a column reads,
// resolved by the compile-time side flag.
func pick(i, j int32, right bool) int32 {
	if right {
		return j
	}
	return i
}

// compileAgg lowers one aggregate to its accumulators. The bulk and dense
// paths run a tight per-kind loop over the raw column slice via the selection
// vector — the u64 sum kernels allocate nothing.
func (cp *compiledPlan) compileAgg(ai int, a *Agg) aggKernel {
	right := cp.aggCols[ai].isRight() && a.Kind != AggCount

	switch a.Kind {
	case AggCount:
		return aggKernel{
			bulk: func(pc *partCols, acc *groupAcc, b *batch, _ uint64) {
				acc.cols[ai].Lane[0] += uint64(len(b.sel))
			},
			dense: func(pc *partCols, acc *groupAcc, lo, hi int, _ uint64) {
				acc.cols[ai].Lane[0] += uint64(hi - lo + 1)
			},
		}

	case AggPlainSum, AggAsheSum:
		// An ASHE sum's bodies add mod 2^64 like plain values (§3.1); the
		// identifiers they cover are the task's, kept once for every ASHE sum
		// (taskState.execute).
		return aggKernel{
			bulk: func(pc *partCols, acc *groupAcc, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				var s uint64
				if right {
					for _, j := range b.join {
						s += col[j]
					}
				} else {
					for _, i := range b.sel {
						s += col[i]
					}
				}
				acc.cols[ai].Lane[0] += s
			},
			dense: func(pc *partCols, acc *groupAcc, lo, hi int, _ uint64) {
				var s uint64
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					s += v
				}
				acc.cols[ai].Lane[0] += s
			},
		}

	case AggPlainSumSq:
		return aggKernel{
			bulk: func(pc *partCols, acc *groupAcc, b *batch, _ uint64) {
				col := pc.aggs[ai].U64
				var s uint64
				if right {
					for _, j := range b.join {
						s += col[j] * col[j]
					}
				} else {
					for _, i := range b.sel {
						s += col[i] * col[i]
					}
				}
				acc.cols[ai].Lane[0] += s
			},
			dense: func(pc *partCols, acc *groupAcc, lo, hi int, _ uint64) {
				var s uint64
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					s += v * v
				}
				acc.cols[ai].Lane[0] += s
			},
		}

	case AggPaillierSum:
		pk := a.PK
		return rowKernel(ai, func(pc *partCols, av *AggValue, i, j int32, rowID uint64) {
			pk.AddInto(av.Pail, new(big.Int).SetBytes(pc.aggs[ai].Bytes[pick(i, j, right)]))
		})

	case AggPlainMin:
		// The lane starts at the largest value (groupAcc.grow), min's identity.
		return aggKernel{
			bulk: func(pc *partCols, acc *groupAcc, b *batch, _ uint64) {
				col, m := pc.aggs[ai].U64, acc.cols[ai].Lane[0]
				if right {
					for _, j := range b.join {
						m = min(m, col[j])
					}
				} else {
					for _, i := range b.sel {
						m = min(m, col[i])
					}
				}
				acc.cols[ai].Lane[0] = m
			},
			dense: func(pc *partCols, acc *groupAcc, lo, hi int, _ uint64) {
				m := acc.cols[ai].Lane[0]
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					m = min(m, v)
				}
				acc.cols[ai].Lane[0] = m
			},
		}

	case AggPlainMax:
		return aggKernel{
			bulk: func(pc *partCols, acc *groupAcc, b *batch, _ uint64) {
				col, m := pc.aggs[ai].U64, acc.cols[ai].Lane[0]
				if right {
					for _, j := range b.join {
						m = max(m, col[j])
					}
				} else {
					for _, i := range b.sel {
						m = max(m, col[i])
					}
				}
				acc.cols[ai].Lane[0] = m
			},
			dense: func(pc *partCols, acc *groupAcc, lo, hi int, _ uint64) {
				m := acc.cols[ai].Lane[0]
				for _, v := range pc.aggs[ai].U64[lo : hi+1] {
					m = max(m, v)
				}
				acc.cols[ai].Lane[0] = m
			},
		}

	case AggOpeMin:
		return rowKernel(ai, func(pc *partCols, av *AggValue, i, j int32, rowID uint64) {
			idx := pick(i, j, right)
			if v := pc.aggs[ai].BytesAt(int(idx)); len(av.Ope) == 0 || ope.Less(v, av.Ope) {
				av.Ope, av.ArgID = v, rowID
				av.takeCompanion(pc.companions[ai], int(idx))
			}
		})

	case AggOpeMax:
		return rowKernel(ai, func(pc *partCols, av *AggValue, i, j int32, rowID uint64) {
			idx := pick(i, j, right)
			if v := pc.aggs[ai].BytesAt(int(idx)); len(av.Ope) == 0 || ope.Less(av.Ope, v) {
				av.Ope, av.ArgID = v, rowID
				av.takeCompanion(pc.companions[ai], int(idx))
			}
		})

	case AggPlainMedian:
		return aggKernel{
			bulk: func(pc *partCols, acc *groupAcc, b *batch, _ uint64) {
				col, av := pc.aggs[ai].U64, &acc.cols[ai].Vals[0]
				if right {
					for _, j := range b.join {
						av.MedU64 = append(av.MedU64, col[j])
					}
				} else {
					for _, i := range b.sel {
						av.MedU64 = append(av.MedU64, col[i])
					}
				}
			},
			dense: func(pc *partCols, acc *groupAcc, lo, hi int, _ uint64) {
				av := &acc.cols[ai].Vals[0]
				av.MedU64 = append(av.MedU64, pc.aggs[ai].U64[lo:hi+1]...)
			},
			row: func(pc *partCols, av *AggValue, i, j int32, rowID uint64) {
				av.MedU64 = append(av.MedU64, pc.aggs[ai].U64[pick(i, j, right)])
			},
		}

	case AggOpeMedian:
		return rowKernel(ai, func(pc *partCols, av *AggValue, i, j int32, rowID uint64) {
			idx := pick(i, j, right)
			av.MedOpe = append(av.MedOpe, pc.aggs[ai].BytesAt(int(idx)))
			av.MedIDs = append(av.MedIDs, rowID)
			if comp := pc.companions[ai]; comp != nil {
				av.MedComp = append(av.MedComp, comp.U64[idx])
			}
		})
	}
	// Unknown kinds accumulate nothing (Plan validation rejects them before
	// execution reaches here).
	return rowKernel(ai, func(pc *partCols, av *AggValue, i, j int32, rowID uint64) {})
}

// rowKernel lifts a row accumulator into the bulk and dense ones, for kinds
// whose per-row work (OPE comparisons, big-number products, slice appends)
// dwarfs the call overhead. Dense batches only exist for join-free plans, so
// there the joined-row argument is always -1.
func rowKernel(ai int, row func(pc *partCols, av *AggValue, i, j int32, rowID uint64)) aggKernel {
	return aggKernel{
		bulk: func(pc *partCols, acc *groupAcc, b *batch, startID uint64) {
			av := &acc.cols[ai].Vals[0]
			for k, i := range b.sel {
				row(pc, av, i, b.joinAt(k), startID+uint64(i))
			}
		},
		dense: func(pc *partCols, acc *groupAcc, lo, hi int, startID uint64) {
			av := &acc.cols[ai].Vals[0]
			for i := lo; i <= hi; i++ {
				row(pc, av, int32(i), -1, startID+uint64(i))
			}
		},
		row: row,
	}
}

// takeCompanion records the companion-column value of a new min/max winner.
func (av *AggValue) takeCompanion(comp *store.Column, j int) {
	if comp == nil {
		return
	}
	if comp.Kind != store.U64 {
		av.CompanionBytes = comp.BytesAt(j)
		return
	}
	av.U64 = comp.U64[j]
}

// joinAt returns the joined right-table row for sel entry k, or -1 when the
// plan has no join.
func (b *batch) joinAt(k int) int32 {
	if b.join == nil {
		return -1
	}
	return b.join[k]
}

// accumulateGroups folds the batch's survivors into their group accumulators
// in two phases: resolve slots (groupSlots), growing the accumulators to any
// new ones, then, for each aggregate, one loop over the (selection, slot)
// pairs. A lane kind's is a tight per-kind
// loop writing straight into the per-slot u64 lane — one cache-dense array per
// aggregate, no per-row indirect call, whatever the key kind; the other kinds
// call their row kernel on the slot's value. The AggKind switch runs once per
// aggregate per batch, amortized to noise.
func (ts *taskState) accumulateGroups(startID uint64) {
	ts.groupSlots(startID)
	g := &ts.g
	g.acc.grow(g.t.len())
	sel := ts.b.sel
	slots := g.slots[:len(sel)]
	rows := g.acc.rows
	for _, s := range slots {
		rows[s]++
	}
	for ai := range g.acc.cols {
		lane := g.acc.cols[ai].Lane
		if lane == nil {
			row, vals := ts.cp.aggs[ai].row, g.acc.cols[ai].Vals
			for k, i := range sel {
				row(&ts.pc, &vals[slots[k]], i, ts.b.joinAt(k), startID+uint64(i))
			}
			continue
		}
		col := ts.pc.aggs[ai]
		right := ts.cp.aggCols[ai].isRight()
		switch g.acc.cols[ai].Kind {
		case AggCount:
			for _, s := range slots {
				lane[s]++
			}
		case AggPlainSum, AggAsheSum:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					lane[slots[k]] += u[join[k]]
				}
			} else {
				for k, i := range sel {
					lane[slots[k]] += u[i]
				}
			}
		case AggPlainSumSq:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					v := u[join[k]]
					lane[slots[k]] += v * v
				}
			} else {
				for k, i := range sel {
					v := u[i]
					lane[slots[k]] += v * v
				}
			}
		case AggPlainMin:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					if s, v := slots[k], u[join[k]]; v < lane[s] {
						lane[s] = v
					}
				}
			} else {
				for k, i := range sel {
					if s, v := slots[k], u[i]; v < lane[s] {
						lane[s] = v
					}
				}
			}
		case AggPlainMax:
			u := col.U64
			if right {
				join := ts.b.join
				for k := range sel {
					if s, v := slots[k], u[join[k]]; v > lane[s] {
						lane[s] = v
					}
				}
			} else {
				for k, i := range sel {
					if s, v := slots[k], u[i]; v > lane[s] {
						lane[s] = v
					}
				}
			}
		}
	}
}
