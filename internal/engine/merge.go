package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// This file exports the partial-merge step of a scatter-gather deployment:
// a coordinating proxy fans a Plan out to N shards (each holding a disjoint
// row range of the logical table), collects one Result per shard, and folds
// them into the Result a single engine over the whole table would have
// produced. Shard result columns are viewed as the engine's own merge input
// form (taskGroups) and folded by the same groupMerger the in-process
// shuffle+reduce uses, so proxy-side reduce never re-implements aggregation
// semantics. One thing differs from a run's reduce: the consumer of a merge is
// client.Decrypt, in this process, so the merged ASHE identifier lists are
// left decoded (AggCol) rather than encoded for a frame nobody writes.
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
// the row view (Result.View) built, identifier lists encoded.
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
// shards actually used — decodes the shards' identifier lists; the merged
// lists stay decoded. Shard results must come from Partial plan executions (or
// be median-free). Metrics are combined scatter-gather style: each stage time
// and ServerTime take the slowest shard's (shards run in parallel),
// byte/task/row counts sum — ResultBytes is therefore the shards' results
// added up, the bytes that reached the coordinator — and the merge measured
// here is added to DriverTime and ServerTime. Merge sees no scatter, so a
// coordinator that clocked its own (fleet.Cluster) replaces ServerTime with
// that wall.
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
		var err error
		if out.Cols, err = mergeGroups(pl, sets); err != nil {
			return nil, err
		}
	}

	merge := time.Since(start)
	out.Metrics.DriverTime += merge
	out.Metrics.ServerTime += merge
	return out, nil
}

// DeflateGroups merges suffix-inflated groups back together (§4.5: "the
// client has to perform the remaining aggregations"): groups that differ only
// in their inflation suffix fold into one, through the same merge the shards'
// results take — c's identifier lists in either form in, decoded out. pl is
// the plan that produced c, its Codec resolved.
func DeflateGroups(pl *Plan, c *GroupCols) (*GroupCols, error) {
	for _, a := range pl.Aggs {
		if a.Kind == AggPlainMedian || a.Kind == AggOpeMedian {
			return nil, fmt.Errorf("engine: deflate: a median cannot be merged from per-suffix medians")
		}
	}
	flat := *c
	flat.Suffix = nil
	return mergeGroups(pl, []*GroupCols{&flat})
}

// mergeGroups folds column sets through the engine's own reduce: each set is
// viewed as merge input, one groupMerger folds same-key groups (adding lanes,
// or merging partials for Paillier/OPE/median mixes) and finishes them
// (collapses medians) exactly as an in-process reducer does, and the gather
// merges their identifier lists into decoded columns. Within one set keys may
// repeat. It returns the merged columns, in key order.
func mergeGroups(pl *Plan, sets []*GroupCols) (*GroupCols, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	codec := pl.EffectiveCodec()
	for i, a := range pl.Aggs {
		if a.Kind == AggPaillierSum && a.PK == nil {
			return nil, fmt.Errorf("engine: merge: Paillier aggregate %d without public key", i)
		}
	}
	inputs := make([]groupSel, len(sets))
	for i, c := range sets {
		if c.KeyKind != sets[0].KeyKind {
			return nil, fmt.Errorf("engine: merge: shard groups mix key kinds (%v and %v)", sets[0].KeyKind, c.KeyKind)
		}
		in, err := pl.taskGroupsFromCols(c, codec)
		if err != nil {
			return nil, err
		}
		inputs[i] = groupSel{set: in}
	}
	mg := mergeGroupSets(pl, inputs)
	if err := mg.finish(nil); err != nil {
		return nil, err
	}
	cols, err := gatherGroups([]*groupMerger{mg})
	if err != nil {
		return nil, err
	}
	cols.codec = codec
	return cols, nil
}

// fillPartial loads group g of one shard's result columns into p, the
// engine's in-flight accumulator representation — the inverse of finishAggs
// for a Partial plan — so the coordinator's reduce runs through mergePartial
// unchanged. p.aggs must hold one aggState per aggregate. Field copies only —
// an ASHE sum's identifier list stays in its column for the merge to read
// (idLists) — and no aggregation semantics live here.
func fillPartial(p *partial, c *GroupCols, g int) error {
	rows := c.Rows[g]
	for i := range c.Aggs {
		col, st := &c.Aggs[i], &p.aggs[i]
		st.kind = col.Kind
		switch col.Kind {
		case AggCount, AggPlainSum, AggPlainSumSq, AggAsheSum:
			st.u64 = col.Lane[g]
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
// for the slowest), sizes and counts sum.
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
	dst.ShuffleListBytes += src.ShuffleListBytes
	dst.ResultBytes += src.ResultBytes
	dst.ResultListBytes += src.ResultListBytes
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
