package engine

// This file is the engine's half of EXPLAIN: names for the kernel enums and
// predictors for the executor choices (group path, join index, result size)
// that the proxy's plan renderer reports. Everything here reads the plan and
// the engine's own sizing constants — the same constants execute() consults —
// so EXPLAIN never drifts from what a run would actually do.

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

// GroupKeyKind resolves the kind the grouping column's keys take (Fixed
// columns group as Bytes, like groupColKind says), looking on the
// scan table first and the join's right table second (grouping by a projected
// right-side column). ok is false when the plan has no grouping or the column
// resolves on neither side.
func (pl *Plan) GroupKeyKind() (kind store.Kind, ok bool) {
	if pl.GroupBy == nil {
		return 0, false
	}
	if k, err := pl.Table.ColKind(pl.GroupBy.Col); err == nil {
		return keyKind(k), true
	}
	if pl.Join != nil && pl.Join.Right != nil {
		if k, err := pl.Join.Right.ColKind(pl.GroupBy.Col); err == nil {
			return keyKind(k), true
		}
	}
	return 0, false
}

// codableGroup reports whether the plan's group key may be coded (codes.go):
// a left-side 16-byte Fixed key — a DET(u64) or OPE value — of a join-free
// plan, without inflation.
func (pl *Plan) codableGroup() bool {
	gb := pl.GroupBy
	if gb == nil || pl.Join != nil || gb.Inflate > 1 || len(pl.Table.Parts) == 0 {
		return false
	}
	c := pl.Table.Parts[0].Col(gb.Col)
	return c != nil && c.Kind == store.Fixed && c.Width == 16
}

// CodedGroupBy reports whether the plan's group-by takes table-wide codes
// where the daemon's codebook codes its key (codes.go): a codable key, and
// every aggregate a lane.
func (pl *Plan) CodedGroupBy() bool {
	return pl.codableGroup() && !slices.ContainsFunc(pl.Aggs, func(a Agg) bool { return !LaneKind(a.Kind) })
}

// GroupPath predicts which grouping path the executor will take for this
// plan, using the same sizing rules as the grouper. A coded key's group-by
// (CodedGroupBy) indexes a lane per distinct key by its code, with no table,
// wherever the daemon's codebook codes every partition it reads, and takes the
// slot table otherwise. Every other key kind resolves to
// slots: plaintext u64 keys get a dense direct index over min(KeyBound or the
// default span, the dense cap) keys times the inflation-suffix domain, with
// the open-addressed slot table as the fallback; byte keys (DET ciphertexts)
// and string keys intern into the same table, key bytes in a per-task arena.
// Each map task fills a table of its own, and each reducer merges its share
// of every task's. Empty when the plan has no GROUP BY.
func (pl *Plan) GroupPath() string {
	gb := pl.GroupBy
	if gb == nil {
		return ""
	}
	kind, ok := pl.GroupKeyKind()
	if !ok {
		return "unknown key"
	}
	inflateN := uint64(1)
	if gb.Inflate > 1 {
		inflateN = uint64(gb.Inflate)
	}
	if kind == store.U64 {
		bounded := ""
		if gb.KeyBound > 0 {
			bounded = ", KeyBound"
		}
		return fmt.Sprintf("dense direct-index (%d keys × %d suffixes%s), hash fallback",
			denseSpan(gb.KeyBound, inflateN), inflateN, bounded)
	}
	keyed := "byte"
	if kind == store.Str {
		keyed = "string"
	}
	table := fmt.Sprintf("open-addressed slot table (%s keys in a per-task arena)", keyed)
	if pl.CodedGroupBy() {
		return "table-wide codes (a lane per distinct key), or where a codebook refuses the key, " + table
	}
	return table
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
