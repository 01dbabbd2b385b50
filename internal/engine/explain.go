package engine

// This file is the engine's half of EXPLAIN: names for the kernel enums and
// predictors for the executor choices (group path, join index, result size)
// that the proxy's plan renderer reports. Everything here reads the plan and
// the engine's own limits — the same predicate and cap a run consults — so
// EXPLAIN never drifts from what a run would actually do.

import (
	"fmt"
	"slices"

	"seabed/internal/store"
)

// String names the filter kernel, as EXPLAIN prints it.
func (k FilterKind) String() string {
	switch k {
	case FilterPlainCmp:
		return "plain_cmp"
	case FilterStrCmp:
		return "str_cmp"
	case FilterDetEq:
		return "det_eq"
	case FilterOpeCmp:
		return "ope_cmp"
	case FilterRandom:
		return "random"
	}
	return fmt.Sprintf("FilterKind(%d)", int(k))
}

// String names the aggregate kernel, as EXPLAIN prints it.
func (k AggKind) String() string {
	switch k {
	case AggPlainSum:
		return "plain_sum"
	case AggPlainSumSq:
		return "plain_sum_sq"
	case AggCount:
		return "count"
	case AggAsheSum:
		return "ashe_sum"
	case AggPaillierSum:
		return "paillier_sum"
	case AggPlainMin:
		return "plain_min"
	case AggPlainMax:
		return "plain_max"
	case AggOpeMin:
		return "ope_min"
	case AggOpeMax:
		return "ope_max"
	case AggPlainMedian:
		return "plain_median"
	case AggOpeMedian:
		return "ope_median"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// laneCap is the most lanes a group-by adds into, K keys × suffixes: what
// 2-byte codes name, a codebook's own limit. Past it a plan takes the slot
// table.
const laneCap = 1 << 16

// inflateN is the group-by's suffix count: its Inflate, or 1.
func inflateN(gb *GroupBy) uint64 {
	return uint64(max(gb.Inflate, 1))
}

// lanesFit reports whether k > 0 keys × n suffixes stay within laneCap,
// checking each factor before the product: a client's plan frame may carry
// any KeyBound and Inflate, and a wrapped product would size a small lane set.
func lanesFit(k, n uint64) bool {
	return k > 0 && n <= laneCap && k <= laneCap/n
}

// groupColumn is the group key's column in the first partition of its table,
// the scan table's before the join's right table's as compile resolves it;
// nil when neither holds it.
func (pl *Plan) groupColumn() *store.Column {
	if len(pl.Table.Parts) > 0 {
		if c := pl.Table.Parts[0].Col(pl.GroupBy.Col); c != nil {
			return c
		}
	}
	if pl.Join != nil && pl.Join.Right != nil && len(pl.Join.Right.Parts) > 0 {
		return pl.Join.Right.Parts[0].Col(pl.GroupBy.Col)
	}
	return nil
}

// LaneGroupBy reports whether the plan's group-by may add into lanes
// (codes.go): every aggregate a lane, on a key a code names — a 16-byte Fixed
// key on either side of a join, or a u64 key under its KeyBound — within
// laneCap as far as the plan tells.
func (pl *Plan) LaneGroupBy() bool {
	gb := pl.GroupBy
	if gb == nil || slices.ContainsFunc(pl.Aggs, func(a Agg) bool { return !LaneKind(a.Kind) }) {
		return false
	}
	switch c := pl.groupColumn(); {
	case c == nil:
		return false
	case c.Kind == store.Fixed && c.Width == 16:
		return lanesFit(1, inflateN(gb))
	case c.Kind == store.U64:
		return lanesFit(gb.KeyBound, inflateN(gb))
	}
	return false
}

// GroupPath predicts which of the two grouping paths a run takes: lanes
// (LaneGroupBy) wherever the run names every key by its code, else the
// open-addressed slot table each map task fills and the reducers merge.
// Empty when the plan has no GROUP BY.
func (pl *Plan) GroupPath() string {
	if pl.GroupBy == nil {
		return ""
	}
	c := pl.groupColumn()
	if c == nil {
		return "unknown key"
	}
	table := map[store.Kind]string{store.U64: "u64 keys", store.Bytes: "byte keys in a per-task arena",
		store.Str: "string keys in a per-task arena"}[keyKind(c.Kind)]
	table = "open-addressed slot table (" + table + ")"
	if !pl.LaneGroupBy() {
		return table
	}
	return fmt.Sprintf("lanes (a lane per key code × %d suffixes), or where a key has no code, %s", inflateN(pl.GroupBy), table)
}

// JoinIndexKind names the index the broadcast join probes over the right
// table, typed by the left key column's kind the way the probe kernel is:
// u64 keys hash directly, Fixed keys (DET values) read their right row by
// table-wide code, or where a codebook refuses the key use the byte-key map
// that byte and string keys use. Empty when the plan has no join.
func (pl *Plan) JoinIndexKind() string {
	if pl.Join == nil {
		return ""
	}
	kind, err := pl.Table.ColKind(pl.Join.LeftCol)
	if err != nil {
		return "unknown key"
	}
	switch kind {
	case store.U64:
		return "u64-hash"
	case store.Fixed:
		return "codes, else bytes-hash"
	case store.Bytes:
		return "bytes-hash"
	}
	return "string-hash"
}

// Per-value size guesses for EstimateResultBytes: a shipped u64, an
// encrypted-bytes cell (DET/OPE/Paillier ciphertext), and one aggregate's
// share of a result group (ASHE body plus encoded identifier-list overhead).
const (
	estU64Bytes   = 8
	estCellBytes  = 32
	estAggBytes   = 48
	estGroupGuess = 1 << 12
)

// EstimateResultBytes predicts the result-transfer (shuffle) volume of a
// plan before it runs, for EXPLAIN's "predicted shuffle" line: scans ship
// every un-filtered row's identifier plus projected cells, aggregations ship
// one record per expected group. The estimate is a pre-selection upper bound
// — filters only shrink it — sized from the plan's own table and grouping
// hints (KeyBound, inflation), with a fixed guess for unbounded groupings.
func (pl *Plan) EstimateResultBytes() uint64 {
	rows := pl.Table.NumRows()
	if r := pl.Range; r != nil && r.Hi >= r.Lo {
		if span := r.Hi - r.Lo + 1; span < rows {
			rows = span
		}
	}
	if len(pl.Project) > 0 {
		per := uint64(estU64Bytes) // the row identifier
		for _, name := range pl.Project {
			kind, err := pl.Table.ColKind(name)
			if err == nil && kind == store.U64 {
				per += estU64Bytes
			} else {
				per += estCellBytes
			}
		}
		return rows * per
	}
	groups := uint64(1)
	if gb := pl.GroupBy; gb != nil {
		groups = estGroupGuess
		if gb.KeyBound > 0 {
			groups = gb.KeyBound
		}
		if gb.Inflate > 1 {
			groups *= uint64(gb.Inflate)
		}
		if groups > rows && rows > 0 {
			groups = rows
		}
	}
	return groups * (estU64Bytes + uint64(len(pl.Aggs))*estAggBytes)
}
