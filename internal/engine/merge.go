package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"seabed/internal/idlist"
)

// This file exports the partial-merge step of a scatter-gather deployment:
// a coordinating proxy fans a Plan out to N shards (each holding a disjoint
// row range of the logical table), collects one Result per shard, and folds
// them into the Result a single engine over the whole table would have
// produced. Shard result columns are viewed as the engine's own merge input
// form (taskGroups) and folded by the same groupMerger the in-process
// shuffle+reduce uses, so proxy-side reduce never re-implements aggregation
// semantics.
//
// Every merge is exact because Seabed's aggregates are shard-decomposable:
//
//   - ASHE sums commute: an ASHE ciphertext is (Σ values mod 2^64, id-list),
//     and addition unions identifier multisets, so summing per-shard bodies
//     and merging per-shard id-lists equals encrypting the global sum (§4.2).
//   - Paillier sums commute: E(a)·E(b) mod N² = E(a+b), and modular
//     multiplication is associative, so the product of per-shard products is
//     the product over all rows.
//   - Counts, plain sums, and sums of squares are ordinary integer sums.
//   - Min/max take the extreme of per-shard extremes (OPE comparison needs
//     no key); shards that selected no rows are skipped.
//   - Medians do NOT decompose, so Partial plans ship each shard's collected
//     inputs and the coordinator selects over the concatenation.
//
// Group-by results concatenate per-shard partial groups and reduce them by
// key, exactly the shuffle+reduce the engine performs between its own map
// tasks (§4.5).

// MergeResults is Merge for callers that read groups as rows: it returns with
// the row view (Result.View) built.
func MergeResults(pl *Plan, partials []*Result) (*Result, error) {
	out, err := Merge(pl, partials)
	if err != nil {
		return nil, err
	}
	out.View()
	return out, nil
}

// Merge folds per-shard partial results (in shard order) into the result a
// single engine over the union of the shards' rows would produce, columns in
// and columns out. pl is the original, unscoped plan: its Aggs supply Paillier
// public keys and merge kinds, and its Codec — which must be the codec the
// shards actually used — decodes the shards' identifier lists and re-encodes
// the merged ones. Shard results must come from Partial plan executions (or
// be median-free). Metrics are combined scatter-gather style: each stage time
// and ServerTime take the slowest shard's (shards run in parallel),
// byte/task/row counts sum, and the merge measured here is added to DriverTime
// and ServerTime. Merge sees no scatter, so a coordinator that clocked its own
// (fleet.Cluster) replaces ServerTime with that wall.
func Merge(pl *Plan, partials []*Result) (*Result, error) {
	start := time.Now()
	out := &Result{}
	for i, r := range partials {
		mergeMetrics(&out.Metrics, &r.Metrics, i == 0)
	}
	if len(pl.Project) > 0 {
		total := 0
		for _, r := range partials {
			total += len(r.Scan)
		}
		out.Scan = make([]ScanRow, 0, total)
		for _, r := range partials {
			out.Scan = append(out.Scan, r.Scan...)
		}
		// Shards hold ascending identifier runs, but appended batches
		// interleave across shards; re-sorting by identifier restores the
		// single-engine scan order.
		slices.SortFunc(out.Scan, func(a, b ScanRow) int { return cmp.Compare(a.ID, b.ID) })
	} else {
		sets := make([]*GroupCols, 0, len(partials))
		for _, r := range partials {
			c, err := r.Columns()
			if err != nil {
				return nil, err
			}
			if c.Len() > 0 {
				sets = append(sets, c)
			}
		}
		cols, bytes, err := mergeGroups(pl, sets)
		if err != nil {
			return nil, err
		}
		out.Cols = cols
		out.Metrics.ResultBytes = bytes
	}

	merge := time.Since(start)
	out.Metrics.DriverTime += merge
	out.Metrics.ServerTime += merge
	return out, nil
}

// DeflateGroups merges suffix-inflated groups back together (§4.5: "the
// client has to perform the remaining aggregations"): groups that differ only
// in their inflation suffix fold into one, through the same merge the shards'
// results take. pl is the plan that produced c, its Codec resolved.
func DeflateGroups(pl *Plan, c *GroupCols) (*GroupCols, error) {
	for _, a := range pl.Aggs {
		if a.Kind == AggPlainMedian || a.Kind == AggOpeMedian {
			return nil, fmt.Errorf("engine: deflate: a median cannot be merged from per-suffix medians")
		}
	}
	flat := *c
	flat.Suffix = nil
	cols, _, err := mergeGroups(pl, []*GroupCols{&flat})
	return cols, err
}

// mergeGroups folds column sets through the engine's own reduce: each set is
// viewed as merge input, one groupMerger folds same-key groups (adding lanes,
// or merging partials for Paillier/OPE/median mixes) and finishes them (merges
// and encodes their id-lists, collapses medians) exactly as an in-process
// reducer does. Within one set keys may repeat. It
// returns the merged columns, in key order, with their serialized size.
func mergeGroups(pl *Plan, sets []*GroupCols) (*GroupCols, int, error) {
	if len(sets) == 0 {
		return nil, 0, nil
	}
	codec := pl.effectiveCodec()
	for i, a := range pl.Aggs {
		if a.Kind == AggPaillierSum && a.PK == nil {
			return nil, 0, fmt.Errorf("engine: merge: Paillier aggregate %d without public key", i)
		}
	}
	inputs := make([]groupSel, len(sets))
	for i, c := range sets {
		if c.KeyKind != sets[0].KeyKind {
			return nil, 0, fmt.Errorf("engine: merge: shard groups mix key kinds (%v and %v)", sets[0].KeyKind, c.KeyKind)
		}
		in, err := pl.taskGroupsFromCols(c, codec)
		if err != nil {
			return nil, 0, err
		}
		inputs[i] = groupSel{set: in}
	}
	mg := mergeGroupSets(pl, inputs)
	if err := mg.finish(codec); err != nil {
		return nil, 0, err
	}
	return gatherGroups([]*groupMerger{mg}), mg.bytes, nil
}

// fillPartial loads group g of one shard's result columns into p, the
// engine's in-flight accumulator representation — the inverse of finishAggs
// for a Partial plan — so the coordinator's reduce runs through mergePartial
// unchanged. p.aggs must hold one aggState per aggregate. Field copies and
// identifier-list decoding only; no aggregation semantics live here.
func fillPartial(p *partial, c *GroupCols, g int, codec idlist.Codec) error {
	rows := c.Rows[g]
	for i := range c.Aggs {
		col, st := &c.Aggs[i], &p.aggs[i]
		st.kind = col.Kind
		switch col.Kind {
		case AggCount, AggPlainSum, AggPlainSumSq:
			st.u64 = col.Lane[g]
		case AggAsheSum:
			st.u64 = col.Lane[g]
			ids, err := codec.Decode(col.EncodedIDs(g))
			if err != nil {
				return fmt.Errorf("engine: merge: decode id list: %v", err)
			}
			st.ids = ids
		case AggPaillierSum:
			if col.Vals[g].Pail == nil {
				return fmt.Errorf("engine: merge: shard group missing Paillier ciphertext for aggregate %d", i)
			}
			st.pail = col.Vals[g].Pail
		case AggPlainMin, AggPlainMax:
			st.u64 = col.Lane[g]
			st.seen = rows > 0
		case AggOpeMin, AggOpeMax:
			av := &col.Vals[g]
			st.ope = av.Ope
			st.argID = av.ArgID
			st.u64 = av.U64
			st.compBytes = av.CompanionBytes
			st.seen = rows > 0 && len(av.Ope) > 0
		case AggPlainMedian:
			st.medU64 = col.Vals[g].MedU64
		case AggOpeMedian:
			av := &col.Vals[g]
			st.medOpe = av.MedOpe
			st.medIDs = av.MedIDs
			st.medComp = av.MedComp
		default:
			return fmt.Errorf("engine: merge: unknown aggregate kind %d", col.Kind)
		}
	}
	return nil
}

// mergeMetrics combines one shard's metrics into the accumulator: stage
// times take the maximum (shards execute concurrently, so the gather waits
// for the slowest), sizes and counts sum. ResultBytes is summed here for
// scan results and recomputed from the merged groups otherwise.
func mergeMetrics(dst, src *Metrics, first bool) {
	maxDur := func(d *time.Duration, s time.Duration) {
		if first || s > *d {
			*d = s
		}
	}
	minDur := func(d *time.Duration, s time.Duration) {
		if first || s < *d {
			*d = s
		}
	}
	maxDur(&dst.ServerTime, src.ServerTime)
	maxDur(&dst.MapTime, src.MapTime)
	maxDur(&dst.ReduceTime, src.ReduceTime)
	maxDur(&dst.DriverTime, src.DriverTime)
	dst.ShuffleBytes += src.ShuffleBytes
	dst.ResultBytes += src.ResultBytes
	dst.MapTasks += src.MapTasks
	dst.ReduceTasks += src.ReduceTasks
	dst.RowsScanned += src.RowsScanned
	dst.RowsSelected += src.RowsSelected
	minDur(&dst.TaskMin, src.TaskMin)
	maxDur(&dst.TaskP50, src.TaskP50)
	maxDur(&dst.TaskMax, src.TaskMax)
	// FirstChunk takes the minimum non-zero value: the gather's caller saw
	// rows as soon as the first shard delivered any. Zero means a shard
	// streamed nothing and must not win the minimum.
	if src.FirstChunk > 0 && (dst.FirstChunk == 0 || src.FirstChunk < dst.FirstChunk) {
		dst.FirstChunk = src.FirstChunk
	}
	// Per-operator counters: flows sum, GroupTableLen maxes (OpStats.merge
	// applies the same rules the task fold used within one shard).
	dst.Ops.merge(&src.Ops)
}
