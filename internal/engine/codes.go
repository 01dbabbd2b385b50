package engine

import (
	"slices"
	"sync/atomic"

	"seabed/internal/store"
)

// This file holds a run's use of codes: its table's codebooks
// (store.Codebook), and the lanes of a group-by whose keys codes name. Every
// 16-byte Fixed column a plan filters, groups or joins on is coded
// table-wide, its distinct values numbered in first-sight order. Before its
// map stage a run codes every partition of its table that is not coded yet —
// all of them, not only those in its range, so a codebook's first coding
// judges a whole table — or finds it coded; the codebook's size K is then
// fixed for the run, so no task sees a code the run does not know.
//
// With codes, a predicate is a pass table over the K codes and a join probe
// an array read (rightOf). A group-by whose aggregates all have lanes, on a
// key a code names — a 16-byte key's in its table's codebook (a right key's
// in the right table's, codeRight), a u64 key's value under KeyBound — adds
// into lanes, a row's lane its key's code × the suffixes + its suffix (§4.5),
// with no key hashed and no reducer table: tasks add into lane sets from a
// pool of one per running task, the reduce adds the few sets, and the driver
// writes the groups any row reached in lane order. Every other group-by takes
// the slot tables (group.go), as a run past KeyBound does (errLaneMiss).

// runCodes is what the driver prepares of codes for one run: each
// partition's share, and for a lane group-by its lanes and key values.
type runCodes struct {
	parts []taskCodes // by partition of the table
	lanes *lanePool   // nil unless the group-by adds into lanes
	keys  []byte      // the K key values, 16 bytes each; nil for a u64 key
}

// taskCodes is what one map task reads of its run's codes: nil slices where
// its partition, or the column, is raw.
type taskCodes struct {
	filters [][]uint16 // per filter, the partition's codes where a pass table applies
	pass    [][]uint8  // per filter, the pass table over the K codes
	group   []uint16   // a lane group-by's key codes by key row (keyRows); nil for a u64 key
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
// partitions, and returns each partition's share and a lane group-by's lanes;
// nil when the plan codes nothing. auto is whether the group-by may add into
// lanes (groupRaw forbids it); par, the run's task parallelism, sizes the
// lane pool.
func (cp *compiledPlan) codeRun(parts []*store.Partition, auto bool, par int) (*runCodes, error) {
	pl := cp.pl
	lanes := auto && cp.laneGroup && !cp.laneMiss.Load()
	groupCol := -1
	if lanes && !cp.groupCol.isRight() && pl.Table.Parts[0].Cols[cp.groupCol.idx].Kind == store.Fixed {
		groupCol = cp.groupCol.idx
	}
	joinCol := -1
	if cp.leftKeyIdx >= 0 && pl.Table.Parts[0].Cols[cp.leftKeyIdx].Kind == store.Fixed {
		joinCol = cp.leftKeyIdx
	}
	uses := lanes || joinCol >= 0
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
			rightOf := perCode(&cp.codes.rightOf, c.vals, func(v []byte) int32 {
				if j, ok := cp.joinStr[string(v)]; ok {
					return j
				}
				return -1
			})
			for i := range rc.parts {
				rc.parts[i].join, rc.parts[i].rightOf = c.codes[i], rightOf
			}
		}
	}
	if !lanes || len(read) == 0 {
		return rc, nil
	}
	// K and the key's codes: a left key's per partition, where the run reads
	// no raw one; a right key's over the flattened right rows; a u64 key's
	// bound, its values their own codes.
	k, keys, byPart := pl.GroupBy.KeyBound, cp.rightKeys, [][]uint16(nil)
	if groupCol >= 0 {
		c, err := code(groupCol)
		if err != nil || c.codes == nil || slices.ContainsFunc(read, func(i int) bool { return c.codes[i] == nil }) {
			return rc, err
		}
		keys, byPart = c.vals, c.codes
	}
	if keys != nil {
		k = uint64(len(keys) / 16)
	}
	if n := inflateN(pl.GroupBy); lanesFit(k, n) {
		rc.keys, rc.lanes = keys, newLanePool(pl.Aggs, int(k*n), min(par, len(read)))
		for i := range rc.parts {
			rc.parts[i].lanes, rc.parts[i].group = rc.lanes, cp.rightCodes
			if byPart != nil {
				rc.parts[i].group = byPart[i]
			}
		}
	}
	return rc, nil
}

// codeRight codes a right-side group key with the right table's own
// codebook, once per compiled plan: each flattened right row's code and the K
// values they name, which cannot go stale (the plan cache keys the right table
// by pointer, and codes never change). A partition the codebook leaves raw,
// or a u64 key's right value at or past the bound, sends the plan raw.
func (cp *compiledPlan) codeRight() error {
	key := cp.groupCol.right
	if key.Kind == store.U64 {
		bound := cp.pl.GroupBy.KeyBound
		cp.laneGroup = !slices.ContainsFunc(key.U64, func(v uint64) bool { return v >= bound })
		return nil
	}
	right := cp.pl.Join.Right
	col := right.Parts[0].ColIndex(key.Name)
	vals, codes, err := right.Codebook(col).Code(right.Parts, col) // a 16-byte key: LaneGroupBy
	if err != nil {
		return err
	}
	if slices.ContainsFunc(codes, func(c []uint16) bool { return c == nil }) {
		cp.laneGroup = false
		return nil
	}
	cp.rightCodes, cp.rightKeys = slices.Concat(codes...), vals
	return nil
}

// lanePool is a lane group-by's lane sets: one per concurrently running map
// task, each a lane per key code and suffix, handed from task to task so that
// a set is zeroed once a run, not once a task.
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
// bytes a lane each.
func (p *lanePool) bytes() int {
	acc := p.sets[0]
	return len(p.sets) * 8 * len(acc.rows) * (1 + len(acc.cols))
}

// fold is a lane run's reduce: it adds every lane set into the first and
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

// gatherCoded writes the groups any row reached, in lane order, into the
// result's columns — its key gathered from keys (a u64 key's is its code),
// its suffix its lane's — and returns each lane's group number (−1 where no
// row reached it) and the groups' size without the identifier section, as
// finishCols totals it.
func gatherCoded(pl *Plan, acc *groupAcc, keys []byte) (*GroupCols, []int32, int) {
	n := int(inflateN(pl.GroupBy))
	out := &GroupCols{KeyKind: store.U64}
	byLane := make([]int32, len(acc.rows))
	var code []int32 // per group, its key's code
	for l, r := range acc.rows {
		byLane[l] = -1
		if r > 0 {
			byLane[l] = int32(len(code))
			code = append(code, int32(l/n))
			if n > 1 {
				out.Suffix = append(out.Suffix, int32(l%n))
			}
		}
	}
	groups := len(code)
	if groups == 0 {
		return nil, byLane, 0
	}
	pick := func(dst, src []uint64) []uint64 {
		for l, g := range byLane {
			if g >= 0 {
				dst[g] = src[l]
			}
		}
		return dst
	}
	out.Rows, out.Aggs = pick(make([]uint64, groups), acc.rows), newAggCols(pl.Aggs, groups)
	if keys == nil {
		for _, c := range code {
			out.KeyU64 = append(out.KeyU64, uint64(c))
		}
	} else {
		var col store.Column
		gather(&col, &store.Column{Kind: store.Fixed, Width: 16, Fixed: keys}, code)
		out.KeyKind, out.KeyArena, out.KeyOff = store.Bytes, col.Fixed, make([]uint64, groups+1)
		for g := range groups {
			out.KeyOff[g+1] = uint64(16 * (g + 1))
		}
	}
	bytes := 8*groups + len(out.KeyArena)
	for ai := range out.Aggs {
		pick(out.Aggs[ai].Lane, acc.cols[ai].Lane)
		bytes += pl.finishCol(ai, &out.Aggs[ai], out.Rows)
	}
	return out, byLane, bytes
}
