package engine

import (
	"sync/atomic"

	"seabed/internal/store"
)

// This file holds a run's use of its table's codebooks (store.Codebook):
// every 16-byte Fixed column a plan filters, groups or joins on is coded
// table-wide, its distinct values numbered in first-sight order. Before its
// map stage a run codes every partition of its table that is not coded yet —
// all of them, not only those in its range, so a codebook's first coding
// judges a whole table — or finds it coded; the codebook's size K is then
// fixed for the run, so no task sees a code the run does not know.
//
// With codes, a predicate is a pass table over the K codes and a join probe
// an array read (rightOf). A group-by on a coded key — a left-side key of a
// join-free plan, without inflation, whose aggregates all have lanes — has no
// slot table at all: a row's slot is its code. Each map task adds into K-wide
// lanes taken from a pool of one lane set per concurrently running task, the
// reduce adds the few sets, and the driver writes the groups any row reached
// straight into the result's columns, in code order. No key is hashed and no
// reducer builds a table. Every other group-by — a non-lane aggregate,
// inflation, a right-side key, or a key whose codebook left a partition the
// run reads raw — takes the raw slot table (group.go).

// runCodes is what the driver prepares of the codebooks for one run: each
// partition's share, and for a coded group-by its lanes and key values.
type runCodes struct {
	parts []taskCodes // by partition of the table
	lanes *lanePool   // nil unless the group-by takes the coded path
	keys  []byte      // the group key's K values, 16 bytes each
}

// taskCodes is what one map task reads of its run's codes: nil slices where
// its partition, or the column, is raw.
type taskCodes struct {
	filters [][]uint16 // per filter, the partition's codes where a pass table applies
	pass    [][]uint8  // per filter, the pass table over the K codes
	group   []uint16   // the group key's codes, on the coded group-by path
	join    []uint16   // the join's left key codes
	rightOf []int32    // per code, its right row; −1 when none
	lanes   *lanePool
}

// codeCaches holds what a compiled plan keeps per code across its runs,
// each table extended when a run's K outgrows it: a filter's pass table and
// the join's right row per code. The values are the codebook's, which only
// grows, so an entry once made stays right.
type codeCaches struct {
	pass    []atomic.Pointer[[]uint8]
	rightOf atomic.Pointer[[]int32]
}

// perCode returns the table at c for the K codes of vals, computing f of the
// values of codes it has not seen.
func perCode[T any](c *atomic.Pointer[[]T], vals []byte, f func(v []byte) T) []T {
	k := len(vals) / 16
	var have []T
	if p := c.Load(); p != nil {
		if have = *p; len(have) >= k {
			return have[:k:k]
		}
	}
	out := make([]T, k)
	copy(out, have)
	for code := len(have); code < k; code++ {
		out[code] = f(vals[16*code : 16*code+16 : 16*code+16])
	}
	c.Store(&out)
	return out
}

// codeRun codes the columns the run reads through codes, over the table's
// partitions, and returns each partition's share; nil when the plan codes
// nothing. auto is whether the group-by may take the coded path, which a
// test pinning the raw path (groupRaw) forbids; only that path reads the
// group key's codes. par is the run's task parallelism, which sizes the lane
// pool.
func (cp *compiledPlan) codeRun(parts []*store.Partition, auto bool, par int) (*runCodes, error) {
	pl := cp.pl
	groupCol := -1
	if auto && cp.laneGroup {
		groupCol = cp.groupCol.idx
	}
	joinCol := -1
	if cp.joinFixed != nil {
		joinCol = cp.leftKeyIdx
	}
	uses := groupCol >= 0 || joinCol >= 0
	for _, f := range cp.codeVal {
		uses = uses || f != nil
	}
	if !uses {
		return nil, nil
	}
	// The partitions the run reads: those with rows in its range.
	var read []int
	for i, p := range parts {
		if i0, i1 := rangeBounds(p, pl.Range); i1 >= i0 {
			read = append(read, i)
		}
	}
	type coded struct {
		vals  []byte
		codes [][]uint16 // by partition of the table
	}
	byCol := map[int]coded{}
	code := func(col int) (coded, error) {
		if c, ok := byCol[col]; ok {
			return c, nil
		}
		var c coded
		if book := pl.Table.Codebook(col); book != nil && len(read) > 0 {
			vals, codes, err := book.Code(parts, col)
			if err != nil {
				return c, err
			}
			c = coded{vals: vals, codes: codes}
		}
		byCol[col] = c
		return c, nil
	}

	rc := &runCodes{parts: make([]taskCodes, len(parts))}
	for fi, f := range cp.codeVal {
		if f == nil {
			continue
		}
		c, err := code(cp.filters[fi].idx)
		if err != nil || c.codes == nil {
			if err != nil {
				return nil, err
			}
			continue
		}
		pass := perCode(&cp.codes.pass[fi], c.vals, func(v []byte) uint8 {
			if f(v) {
				return 1
			}
			return 0
		})
		for i := range rc.parts {
			if c.codes[i] == nil {
				continue
			}
			tc := &rc.parts[i]
			if tc.filters == nil {
				tc.filters, tc.pass = make([][]uint16, len(cp.preds)), make([][]uint8, len(cp.preds))
			}
			tc.filters[fi], tc.pass[fi] = c.codes[i], pass
		}
	}
	if joinCol >= 0 {
		c, err := code(joinCol)
		if err != nil {
			return nil, err
		}
		if c.codes != nil {
			rightOf := perCode(&cp.codes.rightOf, c.vals, cp.joinFixed.find)
			for i := range rc.parts {
				rc.parts[i].join, rc.parts[i].rightOf = c.codes[i], rightOf
			}
		}
	}
	if groupCol >= 0 {
		c, err := code(groupCol)
		if err != nil {
			return nil, err
		}
		all := c.codes != nil
		for _, i := range read {
			all = all && c.codes[i] != nil
		}
		if all {
			rc.keys = c.vals
			rc.lanes = newLanePool(pl.Aggs, len(c.vals)/16, min(par, len(read)))
			for i := range rc.parts {
				rc.parts[i].group, rc.parts[i].lanes = c.codes[i], rc.lanes
			}
		}
	}
	return rc, nil
}

// lanePool is a coded group-by's lane sets: one per concurrently running map
// task, each K slots wide, handed from task to task so that a set is zeroed
// once a run, not once a task.
type lanePool struct {
	free chan *groupAcc
	sets []*groupAcc
}

func newLanePool(aggs []Agg, k, n int) *lanePool {
	p := &lanePool{free: make(chan *groupAcc, n), sets: make([]*groupAcc, n)}
	for i := range p.sets {
		acc := new(groupAcc)
		acc.init(aggs)
		acc.grow(k)
		p.sets[i] = acc
		p.free <- acc
	}
	return p
}

// bytes is the lane sets' size: a row count and a lane per aggregate, 8
// bytes a slot each.
func (p *lanePool) bytes() int {
	acc := p.sets[0]
	return len(p.sets) * 8 * len(acc.rows) * (1 + len(acc.cols))
}

// fold is the coded run's reduce: it adds every lane set into the first and
// returns it.
func (p *lanePool) fold() *groupAcc {
	to := p.sets[0]
	for _, from := range p.sets[1:] {
		for c, n := range from.rows {
			to.rows[c] += n
		}
		for ai := range to.cols {
			dst, src := to.cols[ai].Lane, from.cols[ai].Lane
			switch to.cols[ai].Kind {
			case AggPlainMin:
				for c, v := range src {
					dst[c] = min(dst[c], v)
				}
			case AggPlainMax:
				for c, v := range src {
					dst[c] = max(dst[c], v)
				}
			default:
				for c, v := range src {
					dst[c] += v
				}
			}
		}
	}
	return to
}

// gatherCoded writes the groups any row reached, in code order, into the
// result's columns — each one's key copied once, from the codebook's values —
// and returns each code's group number (−1 where no row reached it) and the
// groups' serialized size, the identifier section excepted, as finishCols
// totals it.
func gatherCoded(pl *Plan, acc *groupAcc, keys []byte) (*GroupCols, []int32, int) {
	byCode := make([]int32, len(acc.rows))
	groups := 0
	for c, n := range acc.rows {
		byCode[c] = -1
		if n > 0 {
			byCode[c] = int32(groups)
			groups++
		}
	}
	if groups == 0 {
		return nil, byCode, 0
	}
	out := &GroupCols{KeyKind: store.Bytes, Rows: make([]uint64, groups), Aggs: newAggCols(pl.Aggs, groups),
		KeyOff: make([]uint64, groups+1), KeyArena: make([]byte, 16*groups)}
	for c, g := range byCode {
		if g >= 0 {
			out.Rows[g] = acc.rows[c]
			copy(out.KeyArena[16*g:], keys[16*c:16*c+16])
			out.KeyOff[g+1] = uint64(16 * (g + 1))
		}
	}
	bytes := 8*groups + len(out.KeyArena)
	for ai := range out.Aggs {
		dst, src := out.Aggs[ai].Lane, acc.cols[ai].Lane
		for c, g := range byCode {
			if g >= 0 {
				dst[g] = src[c]
			}
		}
		bytes += pl.finishCol(ai, &out.Aggs[ai], out.Rows)
	}
	return out, byCode, bytes
}
