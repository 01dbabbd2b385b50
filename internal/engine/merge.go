package engine

import (
	"cmp"
	"fmt"
	"slices"
)

// This file exports the merge step of a scatter-gather deployment: a
// coordinating proxy fans a Plan out to N shards (each holding a disjoint row
// range of the logical table), collects one Result per shard, and folds them
// into the Result a single engine over the whole table would have produced.
// Shard result columns are the engine's own merge input form (taskGroups) as
// they are, folded by the same groupMerger the in-process shuffle+reduce uses,
// so proxy-side reduce never re-implements aggregation semantics. The shards'
// identifier sections are not merged at all: each stays encoded, a part of
// the merged section with the map from its tags to the merged groups, for
// client.Decrypt to decode where it decrypts (ids.go).
//
// Every merge is exact because Seabed's aggregates are shard-decomposable:
//
//   - ASHE sums commute: an ASHE ciphertext is (Σ values mod 2^64, id-list),
//     and addition unions identifier multisets, so summing per-shard bodies
//     and taking the union of per-shard sections equals encrypting the global
//     sum (§4.2).
//   - Paillier sums commute: E(a)·E(b) mod N² = E(a+b), and modular
//     multiplication is associative, so the product of per-shard products is
//     the product over all rows.
//   - Counts, plain sums, and sums of squares are ordinary integer sums.
//   - Min/max take the extreme of per-shard extremes (OPE comparison needs
//     no key); a group of no rows — an ungrouped shard that selected nothing
//     — is the identity of every fold and is skipped.
//   - Medians do NOT decompose, so Partial plans ship each shard's collected
//     inputs and the coordinator selects over the concatenation.
//
// Group-by results concatenate the shards' groups and fold same-key groups
// together, exactly the shuffle+reduce the engine performs between its own map
// tasks (§4.5); an ungrouped result is the one group keyed 0. The merged groups
// come out in first-seen order, not key order: the client orders rows by
// plaintext key, and Result.View by ciphertext key.

// MergeResults is Merge for callers that read groups as rows: it returns with
// the row view (Result.View) built, each group's identifier list rebuilt and
// encoded.
func MergeResults(pl *Plan, partials []*Result) (*Result, error) {
	out, err := Merge(pl, partials)
	if err != nil {
		return nil, err
	}
	out.View()
	return out, nil
}

// Merge folds the shards' results (in shard order) into the result a
// single engine over the union of the shards' rows would produce, columns in
// and columns out. pl is the original, unscoped plan: its Aggs supply Paillier
// public keys and merge kinds, and its Codec — which must be the codec the
// shards actually used — is the merged columns'; no list is decoded. Shard
// results must come from Partial plan executions (or
// be median-free). Metrics combine as counts: byte/task/row counts sum —
// ResultBytes is therefore the shards' results added up, the bytes that
// reached the coordinator — and FirstChunk takes the earliest shard's. Merge
// takes no clock: a coordinator that times its merge does so with a span
// (fleet's gather).
func Merge(pl *Plan, partials []*Result) (*Result, error) {
	out := &Result{}
	for _, r := range partials {
		mergeMetrics(&out.Metrics, &r.Metrics)
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
			if r.Cols.Len() > 0 {
				sets = append(sets, r.Cols)
			}
		}
		var err error
		if out.Cols, err = mergeGroups(pl, sets); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DeflateGroups merges suffix-inflated groups back together (§4.5: "the
// client has to perform the remaining aggregations"): groups that differ only
// in their inflation suffix fold into one, through the same merge the shards'
// results take — c's identifier section renumbered, not read. pl is the plan
// that produced c, its Codec resolved.
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
// checked and taken as merge input, and one groupMerger folds same-key groups
// (adding lanes, folding values) and finishes them (collapses medians) exactly
// as an in-process reducer does. Each set's identifier section joins the
// merged one part for part, its tags mapped to the merged groups. Within one
// set keys may repeat. It returns the merged columns, each key once, in the
// order the sets first name it.
func mergeGroups(pl *Plan, sets []*GroupCols) (*GroupCols, error) {
	if len(sets) == 0 {
		return nil, nil
	}
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
		in, err := pl.taskGroupsFromCols(c)
		if err != nil {
			return nil, err
		}
		inputs[i] = groupSel{set: in}
	}
	mg := mergeGroupSets(pl, inputs, 0)
	mg.finishCols()
	cols := gatherGroups([]*groupMerger{mg})
	cols.Codec = pl.EffectiveCodec()
	at := 0
	for _, c := range sets {
		cols.IDs = append(cols.IDs, remapParts(c.IDs, mg.dst[at:at+c.Len()])...)
		at += c.Len()
	}
	return cols, nil
}

// mergeMetrics combines one shard's metrics into the accumulator: sizes and
// counts sum, FirstChunk takes the earliest.
func mergeMetrics(dst, src *Metrics) {
	dst.ShuffleBytes += src.ShuffleBytes
	dst.ShuffleListBytes += src.ShuffleListBytes
	dst.ResultBytes += src.ResultBytes
	dst.ResultListBytes += src.ResultListBytes
	dst.MapTasks += src.MapTasks
	dst.ReduceTasks += src.ReduceTasks
	dst.RowsScanned += src.RowsScanned
	dst.RowsSelected += src.RowsSelected
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
