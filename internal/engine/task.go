package engine

import (
	"fmt"
	"time"

	"seabed/internal/idlist"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// This file holds the execution state shared by the vectorized executor
// (compile.go / kernel.go / batch.go) and the retained row-at-a-time
// reference evaluator (reference_test.go): map-task output and the map-output
// accounting both paths must agree on.

// cancelCheckRows is how often (in rows) a map task polls its context: a
// power of two so the hot loop's check is one mask and compare. It is a
// whole multiple of batchRows, so the vectorized executor checks on batch
// boundaries at exactly the same row granularity as the reference loop.
const cancelCheckRows = 1 << 16

// mapResult is one map task's output.
type mapResult struct {
	// groups is the task's aggregation output: its keys and accumulator
	// columns as the grouper left them (taskGroups, group.go) — an ungrouped
	// plan's one group keyed 0 — a group-by's already partitioned by reducer
	// bucket for the shuffle. A key appears at most once per task.
	groups *taskGroups
	// routed is a bucketed group-by's output instead: the task's survivors,
	// one rowBucket per reducer, rows of part — whose columns stay pinned
	// until release is called, once the reducers have grouped them.
	routed []rowBucket
	// ids and tags are what the task keeps for the identifier section when an
	// aggregate is an ASHE sum: its survivors' identifiers, ascending, and in a
	// group-by each survivor's slot in groups (or, routed, its bucket), in the
	// same order.
	ids     []idlist.Range
	tags    []int32
	part    *store.Partition
	release func()
	scan    []ScanRow // a scan's survivors: cursors into the task's one chunk
	elapsed time.Duration
	// bytes is the output's size as held (Metrics.ShuffleBytes' share),
	// listBytes the identifiers' part of it.
	bytes, listBytes int
	rowsScanned      uint64
	rowsSelected     uint64
	// ops carries the task's per-operator counters (batch-granularity; see
	// OpStats). The reference evaluator leaves it zero except for column
	// pins/faults, which both executors record in runMapTask's shared path.
	ops OpStats
}

// rangeBounds intersects a partition with the plan's optional IDRange frame
// (§4.5 scatter-gather shard scoping) and returns the index interval
// [i0, i1] of in-scope rows. Row identifiers are contiguous within a
// partition, so the scope is a simple interval; a partition wholly outside
// yields i1 < i0 and scans nothing.
func rangeBounds(part *store.Partition, r *IDRange) (i0, i1 int) {
	n := part.NumRows()
	i0, i1 = 0, n-1
	if r == nil || n == 0 {
		return i0, i1
	}
	first, last := part.StartID, part.StartID+uint64(n)-1
	if r.Lo > last || r.Hi < first || r.Lo > r.Hi {
		return 0, -1
	}
	if r.Lo > first {
		i0 = int(r.Lo - first)
	}
	if r.Hi < last {
		i1 = int(r.Hi - first)
	}
	return i0, i1
}

// flattenRight concatenates the right table's partitions per column. A
// view-backed right table is pinned resident for the walk; the appends below
// copy into fresh heap vectors, so nothing aliases the views after release.
func flattenRight(t *store.Table, cols []string, key string) (map[string]*store.Column, error) {
	for _, p := range t.Parts {
		release, err := p.Pin(nil)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	names := append([]string{key}, cols...)
	out := make(map[string]*store.Column, len(names))
	for _, name := range names {
		if _, ok := out[name]; ok {
			continue
		}
		kind, err := t.ColKind(name)
		if err != nil {
			return nil, err
		}
		full := &store.Column{Name: name, Kind: kind}
		for _, p := range t.Parts {
			c := p.Col(name)
			if c == nil {
				return nil, fmt.Errorf("engine: join table %q partition missing column %q", t.Name, name)
			}
			full.AppendRows(c)
		}
		out[name] = full
	}
	return out, nil
}

// splitmix64 is the deterministic per-row hash behind FilterRandom and group
// inflation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func cmpMatch(op sqlparse.CmpOp, cmp int) bool {
	switch op {
	case sqlparse.OpEq:
		return cmp == 0
	case sqlparse.OpNe:
		return cmp != 0
	case sqlparse.OpLt:
		return cmp < 0
	case sqlparse.OpLe:
		return cmp <= 0
	case sqlparse.OpGt:
		return cmp > 0
	case sqlparse.OpGe:
		return cmp >= 0
	}
	return false
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// sizeOutput prices a map task's output as the task holds it: plain arithmetic
// over keys, row counts, accumulators and scan cells, or over a bucketed
// task's rows, 4 bytes each for the row and the joined row and 8 for the hash;
// and the identifiers it kept for the section, raw at 16 bytes a range and 4
// a survivor's slot or bucket (listBytes). No list meets the codec here;
// nothing is shuffled.
func (pl *Plan) sizeOutput(res *mapResult) {
	if res.groups != nil {
		res.bytes = res.groups.heldBytes(pl)
	}
	res.listBytes = 16*len(res.ids) + 4*len(res.tags)
	res.bytes += res.listBytes
	for _, bk := range res.routed {
		res.bytes += 4*len(bk.rows) + 4*len(bk.join) + 8*len(bk.hash)
	}
	if len(res.scan) > 0 { // a task's one chunk: 8 bytes a row, 8 and the value a cell
		ch := res.scan[0].chunk
		res.bytes += 8 * len(ch.IDs) * (1 + len(ch.Cols))
		for _, c := range ch.Cols {
			res.bytes += len(c.Fixed)
			for _, b := range c.Bytes {
				res.bytes += len(b)
			}
			for _, s := range c.Str {
				res.bytes += len(s)
			}
		}
	}
}

// opeMedianBytes sizes a collected OPE median shuffle payload: each element's
// ciphertext plus the row identifier and companion value it carries.
func opeMedianBytes(medOpe [][]byte) int {
	total := 0
	for _, ct := range medOpe {
		total += len(ct) + 16
	}
	return total
}
