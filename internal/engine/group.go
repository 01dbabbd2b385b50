package engine

import (
	"fmt"
	"slices"
	"sort"

	"seabed/internal/idlist"
	"seabed/internal/ope"
	"seabed/internal/store"
)

// This file holds the group-by machinery every stage shares. A group is a
// slot: slotTable interns group keys of any kind (u64, DET/OPE bytes, strings,
// each with an optional inflation suffix) into dense slot numbers, and
// groupAcc keeps the per-slot accumulators in the result's own column form
// (AggCol): a flat []uint64 lane for each aggregate that has one, an AggValue
// per slot for the rest (Paillier, OPE extremes, medians) — chosen by each
// aggregate's kind, never by the plan. An ungrouped plan is the one-group case,
// keyed U64 0. The map-side grouper (batch.go) fills a table per task; the
// task's columns travel to the reducer as they are (taskGroups); reduceGroups,
// the driver's fold of an ungrouped plan and the coordinator's merge fold
// inputs of that one form through groupMerger; and gatherGroups, the last
// step, concatenates the mergers' slots into the result's columns (GroupCols,
// cols.go) — the columns carried the rest of the way, in no key order.
//
// An ASHE sum's identifier lists have one life: built once, a row or a run at
// a time, by the map task (idChains); laid out once, at task end, as one
// contiguous run per slot (idChains.layout); merged slot by slot through one
// reused buffer (idRun); and passed through the codec only where a result
// frame is written (a run's reducers and its driver) or read (a shard result's
// column at the coordinator). A merge whose consumer is in this process leaves
// them decoded (AggCol).
//
// A slot that no row reached — an ungrouped plan's that selected nothing —
// has row count 0, the identity of every fold: the merge skips it, and it
// finishes as a plain minimum of 0, an empty OPE extreme and a Paillier 1.

// LaneKind reports whether an aggregate accumulates in a flat u64 lane.
func LaneKind(k AggKind) bool {
	switch k {
	case AggCount, AggPlainSum, AggPlainSumSq, AggAsheSum, AggPlainMin, AggPlainMax:
		return true
	}
	return false
}

// room returns s with capacity for n more elements, doubling when it must
// grow: the fallback where no last run sized a group-by (grouper.init). The
// group-by vectors reach megabytes one element at a time; append's own policy
// for large slices (about 1.25×) would re-copy them several times over.
func room[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), max(2*cap(s), len(s)+n, 64))
	copy(out, s)
	return out
}

// --- keys and the slot table ---

// groupKeys stores one key per slot, a flat vector per component: the value
// itself for u64 keys, a span of one shared byte arena for byte and string
// keys, and the inflation suffix when the plan inflates groups. A slot table's
// byte and string keys also carry their hash, which travels with a map task's
// output so its reducer interns them without re-hashing.
type groupKeys struct {
	kind     store.Kind
	inflated bool
	u64      []uint64 // store.U64: the key per slot
	off      []uint64 // other kinds: key s is arena[off[s]:off[s+1]]
	arena    []byte
	sfx      []int32  // inflation suffix per slot; unused (suffix −1) unless inflated
	hash     []uint64 // other kinds: hashKey of slot s's key and suffix; nil when not kept
}

func (k *groupKeys) init(kind store.Kind, inflated bool) {
	*k = groupKeys{kind: kind, inflated: inflated}
	if kind != store.U64 {
		k.off = []uint64{0}
	}
}

func (k *groupKeys) len() int {
	if k.kind == store.U64 {
		return len(k.u64)
	}
	return len(k.off) - 1
}

// bytesAt returns slot s's byte or string key, aliasing the arena.
func (k *groupKeys) bytesAt(s int) []byte {
	return k.arena[k.off[s]:k.off[s+1]:k.off[s+1]]
}

func (k *groupKeys) suffixAt(s int) int32 {
	if !k.inflated {
		return -1
	}
	return k.sfx[s]
}

// keyLen returns the mean length of the byte or string keys held, rounded up.
func (k *groupKeys) keyLen() int {
	n := k.len()
	if n == 0 {
		return 0
	}
	return (len(k.arena) + n - 1) / n
}

// reserve makes room for n more keys of about keyLen bytes each.
func (k *groupKeys) reserve(n, keyLen int) {
	if k.kind == store.U64 {
		k.u64 = room(k.u64, n)
	} else {
		k.off = room(k.off, n)
		k.arena = room(k.arena, n*keyLen)
	}
	if k.inflated {
		k.sfx = room(k.sfx, n)
	}
}

func (k *groupKeys) appendU64(v uint64, sfx int32) {
	k.u64 = append(room(k.u64, 1), v)
	if k.inflated {
		k.sfx = append(room(k.sfx, 1), sfx)
	}
}

func appendKey[T ~string | ~[]byte](k *groupKeys, key T, sfx int32) {
	k.arena = append(room(k.arena, len(key)), key...)
	k.off = append(room(k.off, 1), uint64(len(k.arena)))
	if k.inflated {
		k.sfx = append(room(k.sfx, 1), sfx)
	}
}

// hashU64 hashes a u64 group key for the slot table, mixing the inflation
// suffix so equal values with different suffixes land apart.
func hashU64(v uint64, sfx int32) uint64 {
	return splitmix64(v ^ uint64(uint32(sfx))*0x9e3779b97f4a7c15)
}

// hashKey hashes a byte or string group key eight bytes at a time — DET
// ciphertexts are two words — with the suffix and length mixed in.
func hashKey[T ~string | ~[]byte](k T, sfx int32) uint64 {
	h := uint64(len(k)) ^ uint64(uint32(sfx))*0x9e3779b97f4a7c15
	i := 0
	for ; i+8 <= len(k); i += 8 {
		w := uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
			uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
		h = (h ^ w) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	for ; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 0x100000001b3
	}
	return splitmix64(h)
}

// slotTable interns group keys into slots: an open-addressed, linear-probing
// table indexed by the hash's high bits and holding slot+1 (0 = empty), over
// the groupKeys that map each slot back to its key. It doubles at half load;
// used counts its entries, which a grouper's dense-indexed slots are not among.
// Byte and string keys also keep their hash per slot (groupKeys.hash), so
// probes reject on one word before comparing bytes and growth never re-reads
// the arena.
type slotTable struct {
	groupKeys
	table []int32
	shift uint
	used  int
}

// init readies a table expected to hold about expect keys (1 Ki entries at
// least).
func (t *slotTable) init(kind store.Kind, inflated bool, expect int) {
	t.groupKeys.init(kind, inflated)
	bits := uint(10)
	for 1<<bits < 2*expect {
		bits++
	}
	t.table = make([]int32, 1<<bits)
	t.shift = 64 - bits
}

// reserve makes room for n more slots with keys of about keyLen bytes each.
func (t *slotTable) reserve(n, keyLen int) {
	t.groupKeys.reserve(n, keyLen)
	if t.kind != store.U64 {
		t.hash = room(t.hash, n)
	}
}

// slotU64 resolves a u64 key to its slot, adding one on first sight.
func (t *slotTable) slotU64(v uint64, sfx int32, h uint64) int32 {
	if t.used*2 >= len(t.table) {
		t.grow()
	}
	mask := uint64(len(t.table) - 1)
	for idx := h >> t.shift; ; idx = (idx + 1) & mask {
		s := t.table[idx]
		if s == 0 {
			t.appendU64(v, sfx)
			t.used++
			t.table[idx] = int32(len(t.u64))
			return int32(len(t.u64) - 1)
		}
		if t.u64[s-1] == v && t.suffixAt(int(s-1)) == sfx {
			return s - 1
		}
	}
}

// slotKeyed is slotU64 for byte and string keys: a first sight copies the key
// into the arena.
func slotKeyed[T ~string | ~[]byte](t *slotTable, key T, sfx int32, h uint64) int32 {
	if t.used*2 >= len(t.table) {
		t.grow()
	}
	mask := uint64(len(t.table) - 1)
	for idx := h >> t.shift; ; idx = (idx + 1) & mask {
		s := t.table[idx]
		if s == 0 {
			appendKey(&t.groupKeys, key, sfx)
			t.hash = append(room(t.hash, 1), h)
			t.used++
			t.table[idx] = int32(len(t.hash))
			return int32(len(t.hash) - 1)
		}
		if t.hash[s-1] == h && string(t.bytesAt(int(s-1))) == string(key) && t.suffixAt(int(s-1)) == sfx {
			return s - 1
		}
	}
}

// grow doubles the table and reinserts every resident slot at its new
// high-bits position.
func (t *slotTable) grow() {
	old := t.table
	t.table = make([]int32, len(old)*2)
	t.shift--
	mask := uint64(len(t.table) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		var h uint64
		if t.kind == store.U64 {
			h = hashU64(t.u64[s-1], t.suffixAt(int(s-1)))
		} else {
			h = t.hash[s-1]
		}
		idx := h >> t.shift
		for t.table[idx] != 0 {
			idx = (idx + 1) & mask
		}
		t.table[idx] = s
	}
}

// reducerBucket deterministically assigns slot s's key to one of n reducer
// buckets: the key's hash modulo n — for a byte or string key the kept hash
// when the table kept one, else hashKey, which is that same value. Both
// executors and every shard must agree on the assignment, so the hash covers
// only the key's material and inflation suffix, never a table's layout.
func (k *groupKeys) reducerBucket(s, n int) int {
	if n <= 1 {
		return 0
	}
	var h uint64
	switch {
	case k.kind == store.U64:
		h = hashU64(k.u64[s], k.suffixAt(s))
	case k.hash != nil:
		h = k.hash[s]
	default:
		h = hashKey(k.bytesAt(s), k.suffixAt(s))
	}
	return int(h % uint64(n))
}

// --- identifier-list lanes ---

// idChains holds one ASHE aggregate's identifier list for every slot of a
// map task's table while the task runs. The lists grow a row at a time,
// interleaved, so a range is a node of one shared arena, in arrival order, that
// names its slot: no list ever allocates on its own, and layout, at task end,
// writes every slot's ranges side by side.
type idChains struct {
	nodes []idNode
	slots []idSlot
}

type idNode struct {
	lo, hi uint64
	slot   int32
}

// idSlot is one slot's list: its last node (−1 when it has none) and its range
// count.
type idSlot struct{ tail, count int32 }

func (c *idChains) addSlot() {
	c.slots = append(room(c.slots, 1), idSlot{tail: -1})
}

// appendRange adds the identifiers lo..hi to slot s, as List.AppendRange
// does: it extends the last range when the run abuts it, and is a range of its
// own otherwise.
func (c *idChains) appendRange(s int32, lo, hi uint64) {
	sl := &c.slots[s]
	if sl.tail >= 0 {
		if t := &c.nodes[sl.tail]; lo == t.hi+1 && t.hi != ^uint64(0) {
			t.hi = hi
			return
		}
	}
	sl.tail = int32(len(c.nodes))
	sl.count++
	c.nodes = append(room(c.nodes, 1), idNode{lo: lo, hi: hi, slot: s})
}

// appendSel adds a batch's survivors' identifiers to slot s: each run of
// consecutive identifiers is gathered here and appended whole, with exactly
// the outcome of appending them one by one.
func (c *idChains) appendSel(s int32, startID uint64, sel []int32) {
	if len(sel) == 0 {
		return
	}
	lo := startID + uint64(sel[0])
	hi := lo
	for _, i := range sel[1:] {
		if id := startID + uint64(i); id != hi+1 || hi == ^uint64(0) {
			c.appendRange(s, lo, hi)
			lo, hi = id, id
		} else {
			hi = id
		}
	}
	c.appendRange(s, lo, hi)
}

// layout writes every slot's ranges contiguously, in list order: one counting
// pass over the slots, then one scatter of the nodes in arrival order (the
// bySlot idiom). The chains are spent afterwards — each slot's tail serves as
// its write cursor — and the node arena is free for the run's next task. The
// result is a decoded column's lists: slot s's are ranges[off[s]:off[s+1]].
func (c *idChains) layout() (ranges []idlist.Range, off []uint64) {
	off = make([]uint64, len(c.slots)+1)
	for s := range c.slots {
		c.slots[s].tail = int32(off[s])
		off[s+1] = off[s] + uint64(c.slots[s].count)
	}
	ranges = make([]idlist.Range, len(c.nodes))
	for i := range c.nodes {
		n := &c.nodes[i]
		at := &c.slots[n.slot].tail
		ranges[*at] = idlist.Range{Lo: n.lo, Hi: n.hi}
		*at++
	}
	return ranges, off
}

// idRun is one slot's identifier list while a merge builds it: the slot's
// input lists merge into one reused buffer, in input order, and the finished
// list is written out — encoded, or copied into a decoded column — before the
// next slot's begins, so a merge holds one list of its own at a time however
// many groups it folds. ragged marks a list that is not both sorted by Lo and
// free of abutting neighbours, on which merge takes its general path.
type idRun struct {
	ranges []idlist.Range
	ragged bool
}

// set makes rs the list, verbatim: List.Clone. rs may be the run's own
// buffer.
func (r *idRun) set(rs []idlist.Range) {
	r.ranges, r.ragged = rs, false
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo < rs[i-1].Lo || (rs[i].Lo == rs[i-1].Hi+1 && rs[i-1].Hi != ^uint64(0)) {
			r.ragged = true
		}
	}
}

// merge unions the list rs into the run with exactly List.Merge's outcome. Map
// tasks and shards hold ascending, disjoint identifier runs, so nearly every
// merge finds rs starting at or after the list's last range — the Lo-ordered
// merge then emits the list's ranges unchanged followed by rs, which is an
// append (each range extending the last when it abuts it). Interleaved inputs
// (appended batches) take the general merge into scratch, which then trades
// places with the list's buffer.
func (r *idRun) merge(rs []idlist.Range, scratch *[]idlist.Range) {
	switch {
	case len(rs) == 0:
	case len(r.ranges) == 0:
		r.set(append(r.ranges, rs...))
	case !r.ragged && r.ranges[len(r.ranges)-1].Lo <= rs[0].Lo:
		r.ranges = slices.Grow(r.ranges, len(rs))
		for _, next := range rs {
			last := &r.ranges[len(r.ranges)-1]
			if next.Lo == last.Hi+1 && last.Hi != ^uint64(0) {
				last.Hi = next.Hi
				continue
			}
			if next.Lo < last.Lo {
				r.ragged = true
			}
			r.ranges = append(r.ranges, next)
		}
	default:
		merged := idlist.MergeRanges((*scratch)[:0], r.ranges, rs)
		*scratch = r.ranges
		r.set(merged)
	}
}

// idWork is the working storage of one identifier-list merge loop: the run,
// the buffer an encoded input list decodes into, and idRun.merge's scratch.
type idWork struct {
	run           idRun
	list, scratch []idlist.Range
}

// --- accumulators ---

// groupAcc is the per-slot accumulator storage beside a slotTable: the row
// counts and one column per aggregate in the result's own form (AggCol) — a
// lane for a lane kind, an AggValue per slot for the rest, which the map-side
// kernels, the merge and the result all read and write as it is. A map task
// keeps its ASHE sums' identifier lists beside the lanes (ids); a merge builds
// them slot by slot in finish.
type groupAcc struct {
	aggs []Agg
	rows []uint64
	cols []AggCol
	ids  []idChains // [aggregate]; a map task's, nil when no aggregate is an ASHE sum
}

// init readies the accumulators, with no slots, for a plan's aggregates; a map
// task's (chains) also keep identifier lists.
func (a *groupAcc) init(aggs []Agg, chains bool) {
	*a = groupAcc{aggs: aggs, cols: make([]AggCol, len(aggs))}
	for ai, agg := range aggs {
		a.cols[ai].Kind = agg.Kind
		if chains && agg.Kind == AggAsheSum && a.ids == nil {
			a.ids = make([]idChains, len(aggs))
		}
	}
}

// reserve makes room for n more slots in the row counts, every column and the
// identifier lists beside them, so that growing to them copies nothing.
func (a *groupAcc) reserve(n int) {
	a.rows = room(a.rows, n)
	for ai := range a.cols {
		col := &a.cols[ai]
		if LaneKind(col.Kind) {
			col.Lane = room(col.Lane, n)
		} else {
			col.Vals = room(col.Vals, n)
		}
		if a.ids != nil && col.Kind == AggAsheSum {
			a.ids[ai].slots = room(a.ids[ai].slots, n)
		}
	}
}

// grow extends the accumulators, and the identifier lists beside them, to n
// slots, each new one empty: every lane at its fold's identity (a minimum's is
// the largest value), every value empty but a Paillier sum's, which starts at
// the product's identity. A column only ever grows, so the capacity past its
// length is as make zeroed it, and a new slot is set only where empty is not
// zero. A map task grows its accumulators to its table once a batch's keys
// are resolved; a merge, which knows its slot count first, grows them once.
func (a *groupAcc) grow(n int) {
	from := len(a.rows)
	if n <= from {
		return
	}
	a.rows = room(a.rows, n-from)[:n]
	for ai := range a.cols {
		col := &a.cols[ai]
		if LaneKind(col.Kind) {
			col.Lane = room(col.Lane, n-from)[:n]
			if col.Kind == AggPlainMin {
				for s := from; s < n; s++ {
					col.Lane[s] = ^uint64(0)
				}
			}
		} else {
			col.Vals = room(col.Vals, n-from)[:n]
			for s := from; s < n; s++ {
				col.Vals[s].Kind = col.Kind
				if col.Kind == AggPaillierSum {
					col.Vals[s].Pail = a.aggs[ai].PK.EncryptZero()
				}
			}
		}
		if a.ids != nil && col.Kind == AggAsheSum {
			for range n - from {
				a.ids[ai].addSlot()
			}
		}
	}
}

// foldValue folds src into dst for aggregate ai, a kind without a lane: a
// Paillier product, an OPE extreme — an empty one is unseen, and ties keep the
// first — or a median's collection.
func (pl *Plan) foldValue(ai int, dst, src *AggValue) {
	switch pl.Aggs[ai].Kind {
	case AggPaillierSum:
		pl.Aggs[ai].PK.AddInto(dst.Pail, src.Pail)
	case AggOpeMin:
		if len(src.Ope) > 0 && (len(dst.Ope) == 0 || ope.Less(src.Ope, dst.Ope)) {
			dst.Ope, dst.ArgID, dst.U64, dst.CompanionBytes = src.Ope, src.ArgID, src.U64, src.CompanionBytes
		}
	case AggOpeMax:
		if len(src.Ope) > 0 && (len(dst.Ope) == 0 || ope.Less(dst.Ope, src.Ope)) {
			dst.Ope, dst.ArgID, dst.U64, dst.CompanionBytes = src.Ope, src.ArgID, src.U64, src.CompanionBytes
		}
	case AggPlainMedian:
		dst.MedU64 = append(dst.MedU64, src.MedU64...)
	case AggOpeMedian:
		dst.MedOpe = append(dst.MedOpe, src.MedOpe...)
		dst.MedIDs = append(dst.MedIDs, src.MedIDs...)
		dst.MedComp = append(dst.MedComp, src.MedComp...)
	}
}

// finishCol readies column ai of the merged slots for the result — a plain
// minimum no row reached reads 0, and a median collapses unless the plan is
// one shard's slice, whose collection the coordinator's merge needs — and
// returns the column's serialized size, identifier lists excepted.
func (pl *Plan) finishCol(ai int, col *AggCol, rows []uint64) int {
	switch col.Kind {
	case AggPlainMin:
		for s, r := range rows {
			if r == 0 {
				col.Lane[s] = 0
			}
		}
	case AggPaillierSum:
		return len(rows) * pl.Aggs[ai].PK.CiphertextSize()
	}
	if col.Lane != nil {
		return 8 * len(rows)
	}
	bytes := 0
	for s := range col.Vals {
		av := &col.Vals[s]
		switch col.Kind {
		case AggOpeMin, AggOpeMax:
			bytes += len(av.Ope) + 16 + len(av.CompanionBytes)
		case AggPlainMedian:
			if pl.Partial {
				bytes += 8 * len(av.MedU64)
				continue
			}
			if n := len(av.MedU64); n > 0 {
				slices.Sort(av.MedU64)
				av.U64 = av.MedU64[n/2]
			}
			av.MedU64 = nil
			bytes += 8
		case AggOpeMedian:
			if pl.Partial {
				bytes += opeMedianBytes(av.MedOpe)
				continue
			}
			av.Ope, av.ArgID, av.U64 = collapseOpeMedian(av.MedOpe, av.MedIDs, av.MedComp)
			av.MedOpe, av.MedIDs, av.MedComp = nil, nil, nil
			bytes += len(av.Ope) + 16
		}
	}
	return bytes
}

// collapseOpeMedian selects the middle element of an OPE-encrypted value
// collection by order-revealing comparison (Table 6: "Median … Using OPE") —
// the server needs no key. It returns the winning ciphertext, its row
// identifier, and its companion value (0 when no companions were collected).
// medIDs holds one identifier per ciphertext (taskGroupsFromCols refuses a
// shard's collection that does not).
func collapseOpeMedian(medOpe [][]byte, medIDs, medComp []uint64) (opeVal []byte, argID, comp uint64) {
	n := len(medOpe)
	if n == 0 {
		return nil, 0, 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ope.Less(medOpe[idx[a]], medOpe[idx[b]]) })
	mid := idx[n/2]
	opeVal, argID = medOpe[mid], medIDs[mid]
	if len(medComp) == n {
		comp = medComp[mid]
	}
	return opeVal, argID, comp
}

// --- the merge input form ---

// taskGroups is a set of groups with distinct keys and their accumulated
// state: what a map task hands its reducers or its driver, what a shard's
// result is viewed as at the coordinator, and so the one input form of
// groupMerger. Its columns are the result's form: an ASHE sum's lists are
// decoded (a map task's, laid out) or encoded with codec (a shard result's),
// and an encoded one is decoded only where the merge reaches it.
type taskGroups struct {
	keys  groupKeys
	rows  []uint64
	cols  []AggCol
	codec idlist.Codec
	// order lists the groups partitioned by reducer: bucket b's groups are
	// order[start[b]:start[b+1]]. A group-by's map tasks only.
	order []int32
	start []int32
}

// idsAt returns group g's list of aggregate ai: a view of a decoded column, or
// an encoded list decoded into scratch, which the result then aliases until
// the next call.
func (tg *taskGroups) idsAt(ai, g int, scratch *[]idlist.Range) ([]idlist.Range, error) {
	col := &tg.cols[ai]
	if col.RangeOff != nil {
		return col.DecodedIDs(g), nil
	}
	rs, err := tg.codec.AppendDecode((*scratch)[:0], col.EncodedIDs(g))
	if err != nil {
		return nil, fmt.Errorf("engine: merge: decode id list: %v", err)
	}
	*scratch = rs
	return rs, nil
}

// numRanges returns the range count of group g's list of aggregate ai without
// decoding it. An encoded list does not know it: a list of n identifiers — the
// group's rows — has at most n ranges and, under the variable-byte codecs, no
// fewer bytes, so the smaller of the two bounds it (Deflate can beat the
// second; the count is a capacity hint there, and exact everywhere else).
func (tg *taskGroups) numRanges(ai, g int) int {
	col := &tg.cols[ai]
	if col.RangeOff != nil {
		return int(col.RangeOff[g+1] - col.RangeOff[g])
	}
	return int(min(tg.rows[g], col.IDOff[g+1]-col.IDOff[g]))
}

// encodedHint guesses the encoded size of group g's list of aggregate ai: the
// encoding itself when the list arrived encoded, else a few bytes per range.
func (tg *taskGroups) encodedHint(ai, g int) int {
	if col := &tg.cols[ai]; col.IDOff != nil {
		return int(col.IDOff[g+1] - col.IDOff[g])
	}
	return 2 + 4*tg.numRanges(ai, g)
}

// bucket returns the groups reducerBucket assigns to reducer b.
func (tg *taskGroups) bucket(b int) []int32 { return tg.order[tg.start[b]:tg.start[b+1]] }

// partition buckets the groups for n reducers with one counting sort, so the
// shuffle hands each reducer its share of every task without re-hashing.
func (tg *taskGroups) partition(n int) {
	groups := tg.keys.len()
	of := make([]int32, groups)
	tg.start = make([]int32, n+1)
	for s := range of {
		b := tg.keys.reducerBucket(s, n)
		of[s] = int32(b)
		tg.start[b+1]++
	}
	for b := 0; b < n; b++ {
		tg.start[b+1] += tg.start[b]
	}
	tg.order = make([]int32, groups)
	next := slices.Clone(tg.start[:n])
	for s, b := range of {
		tg.order[next[b]] = int32(s)
		next[b]++
	}
}

// heldBytes is the set's size as map output, as the task holds it — plain
// arithmetic: keys (an ungrouped plan's one key is implied), row counts,
// lanes, values, and identifier lists raw at 16 bytes a range (lists, the
// second result, is that share). Values are sized by their lengths, as
// finishCol sizes the result: an OPE extreme's ciphertext, a median's
// collection.
func (tg *taskGroups) heldBytes(pl *Plan) (total, lists int) {
	n := tg.keys.len()
	total = 8 * n // row counts
	if pl.GroupBy != nil {
		if tg.keys.kind == store.U64 {
			total += 8 * n
		} else {
			total += len(tg.keys.arena)
		}
		if tg.keys.inflated {
			for _, sfx := range tg.keys.sfx {
				if sfx >= 0 {
					total += 2
				}
			}
		}
	}
	for ai := range tg.cols {
		switch col := &tg.cols[ai]; col.Kind {
		case AggPaillierSum:
			total += n * pl.Aggs[ai].PK.CiphertextSize()
		case AggOpeMin, AggOpeMax:
			for s := range col.Vals {
				total += len(col.Vals[s].Ope)
			}
		case AggPlainMedian:
			for s := range col.Vals {
				total += 8 * len(col.Vals[s].MedU64)
			}
		case AggOpeMedian:
			for s := range col.Vals {
				total += opeMedianBytes(col.Vals[s].MedOpe)
			}
		case AggAsheSum:
			lists += 16 * len(col.Ranges)
			total += 8 * n
		default:
			total += 8 * n
		}
	}
	return total + lists, lists
}

// --- the merge ---

// groupSel is one input of a merge: the groups sel selects from set — all of
// them when sel is nil.
type groupSel struct {
	set *taskGroups
	sel []int32
}

func (in groupSel) len() int {
	if in.sel == nil {
		return in.set.keys.len()
	}
	return len(in.sel)
}

func (in groupSel) at(i int) int {
	if in.sel == nil {
		return i
	}
	return int(in.sel[i])
}

// groupMerger is the one merge of group sets into a slot table: the reduce of
// a run's map tasks (one merger per reducer bucket), the driver's fold of an
// ungrouped plan's tasks and the coordinator's merge of shard results are all
// this routine. Columns fold as columns (lanes add, values through foldValue);
// identifier lists merge slot by slot (mergeIDs) where they are written out:
// encoded by finish, or decoded, in slot order, by gatherGroups.
type groupMerger struct {
	pl  *Plan
	t   slotTable
	acc groupAcc
	// The inputs and, per input group in input order, the slot it folded into;
	// from them bySlot lists each slot's input groups (refs[start[s]:start[s+1]]),
	// which is where its identifier lists are.
	inputs []groupSel
	dst    []int32
	start  []int32
	refs   []groupRef

	// bytes is the groups' serialized size, which finish totals when it
	// readies the accumulators' columns for the result.
	bytes int
}

// mergeGroupSets folds the inputs (at least one, in order) into a new
// merger, in two passes: intern every input key, which fixes the slot count,
// then accumulate into vectors allocated at exactly that size — so a merge
// allocates a fixed number of blocks however many groups it folds. hint is the
// slot count a reducer of the same plan last merged (0 for none): the keys are
// reserved for it plus a quarter, between the largest input and the total.
func mergeGroupSets(pl *Plan, inputs []groupSel, hint int) *groupMerger {
	m := &groupMerger{pl: pl, inputs: inputs}
	m.acc.init(pl.Aggs, false)
	total, largest := 0, 0
	for _, in := range inputs {
		total += in.len()
		largest = max(largest, in.len())
	}
	// Every input holds distinct keys, so the largest one is a floor on the
	// slot count and their sum a ceiling: reserve keys for the floor (or the
	// hint, if above), size the table (4 bytes a slot) for the ceiling.
	keys := &inputs[0].set.keys
	inflated := false
	for _, in := range inputs {
		inflated = inflated || in.set.keys.inflated
	}
	m.t.init(keys.kind, inflated, total)
	m.t.reserve(min(total, max(largest, hint+hint/4)), keys.keyLen())

	m.dst = make([]int32, total)
	at := 0
	for _, in := range inputs {
		m.intern(in, m.dst[at:at+in.len()])
		at += in.len()
	}
	m.acc.grow(m.t.len())
	at = 0
	for _, in := range inputs {
		m.fold(in, m.dst[at:at+in.len()])
		at += in.len()
	}
	return m
}

// intern resolves each group of in to its slot in dst, adding slots for keys
// not seen before. A map task's byte keys arrive with the hash its table kept.
func (m *groupMerger) intern(in groupSel, dst []int32) {
	keys := &in.set.keys
	for i := range dst {
		g := in.at(i)
		sfx := keys.suffixAt(g)
		if keys.kind == store.U64 {
			v := keys.u64[g]
			dst[i] = m.t.slotU64(v, sfx, hashU64(v, sfx))
			continue
		}
		key := keys.bytesAt(g)
		var h uint64
		if keys.hash != nil {
			h = keys.hash[g]
		} else {
			h = hashKey(key, sfx)
		}
		dst[i] = slotKeyed(&m.t, key, sfx, h)
	}
}

// fold accumulates the groups of in into the slots dst resolved them to. A
// group of no rows is the identity: extremes and values skip it.
func (m *groupMerger) fold(in groupSel, dst []int32) {
	src := in.set
	rows := m.acc.rows
	for i, d := range dst {
		rows[d] += src.rows[in.at(i)]
	}
	for ai := range m.acc.cols {
		to, from := &m.acc.cols[ai], &src.cols[ai]
		switch to.Kind {
		case AggCount, AggPlainSum, AggPlainSumSq, AggAsheSum:
			// An ASHE sum's bodies add here; its identifier lists merge in finish.
			for i, d := range dst {
				to.Lane[d] += from.Lane[in.at(i)]
			}
		case AggPlainMin:
			for i, d := range dst {
				if g := in.at(i); src.rows[g] > 0 {
					to.Lane[d] = min(to.Lane[d], from.Lane[g])
				}
			}
		case AggPlainMax:
			for i, d := range dst {
				if g := in.at(i); src.rows[g] > 0 {
					to.Lane[d] = max(to.Lane[d], from.Lane[g])
				}
			}
		default:
			for i, d := range dst {
				if g := in.at(i); src.rows[g] > 0 {
					m.pl.foldValue(ai, &to.Vals[d], &from.Vals[g])
				}
			}
		}
	}
}

// groupRef names group g of a merge's input number in.
type groupRef struct{ in, g int32 }

// bySlot lists the merge's input groups under the slots they folded into:
// slot s's are refs[start[s]:start[s+1]], in input order. One counting sort.
func (m *groupMerger) bySlot() {
	n := m.t.len()
	m.start = make([]int32, n+1)
	for _, d := range m.dst {
		m.start[d+1]++
	}
	for s := 0; s < n; s++ {
		m.start[s+1] += m.start[s]
	}
	m.refs = make([]groupRef, len(m.dst))
	next := slices.Clone(m.start[:n])
	at := 0
	for ii, in := range m.inputs {
		for i := 0; i < in.len(); i++ {
			d := m.dst[at]
			m.refs[next[d]] = groupRef{int32(ii), int32(in.at(i))}
			next[d]++
			at++
		}
	}
}

// mergeIDs merges slot s's input lists of ASHE aggregate ai into w.run, in
// input order (decoding those that arrived encoded), and returns the inputs'
// range count: what the merged list, which only coalesces, cannot exceed.
func (m *groupMerger) mergeIDs(ai, s int, w *idWork) (ranges int, err error) {
	if m.refs == nil {
		m.bySlot()
	}
	refs := m.refs[m.start[s]:m.start[s+1]]
	for _, r := range refs {
		ranges += m.inputs[r.in].set.numRanges(ai, int(r.g))
	}
	// Reserved once, at the inputs' count, so the run never regrows however
	// many inputs feed it.
	w.run.set(slices.Grow(w.run.ranges[:0], ranges))
	for _, r := range refs {
		src, err := m.inputs[r.in].set.idsAt(ai, int(r.g), &w.list)
		if err != nil {
			return 0, err
		}
		w.run.merge(src, &w.scratch)
	}
	return ranges, nil
}

// finish readies the merged slots' columns — the accumulators themselves, in
// slot order — for the result (finishCol) and totals the groups' serialized
// size. With a codec it also merges and encodes the ASHE identifier lists, for
// a result a daemon frames: it is then the reducer's last measured step. A nil
// codec leaves the lists to gatherGroups, which writes them decoded for a
// consumer in this process.
func (m *groupMerger) finish(codec idlist.Codec) error {
	n := m.t.len()
	m.bytes = 8 * n // key + row count, roughly
	if m.t.kind != store.U64 {
		m.bytes += len(m.t.arena)
	}
	for ai := range m.acc.cols {
		m.bytes += m.pl.finishCol(ai, &m.acc.cols[ai], m.acc.rows)
	}
	if codec == nil {
		return nil
	}
	var w idWork
	for ai := range m.acc.cols {
		col := &m.acc.cols[ai]
		if col.Kind != AggAsheSum {
			continue
		}
		// One block for the aggregate's encodings, started at a guess of what
		// the lists need so that it seldom regrows.
		hint := 2 * n
		for _, in := range m.inputs {
			for i := 0; i < in.len(); i++ {
				hint += in.set.encodedHint(ai, in.at(i))
			}
		}
		col.IDs = make([]byte, 0, hint)
		col.IDOff = make([]uint64, n+1)
		for s := 0; s < n; s++ {
			if _, err := m.mergeIDs(ai, s, &w); err != nil {
				return err
			}
			var err error
			if col.IDs, err = codec.AppendEncode(col.IDs, idlist.View(w.run.ranges)); err != nil {
				return fmt.Errorf("engine: encode result id list: %v", err)
			}
			col.IDOff[s+1] = uint64(len(col.IDs))
		}
		m.bytes += len(col.IDs)
	}
	return nil
}

// gatherGroups writes the result columns from finished mergers whose key sets
// are disjoint: every group of every merger, concatenated — mergers in order,
// each one's groups in slot order — in no key order. A result's key order is
// its reader's: the client orders rows by plaintext key, and Result.View by
// ciphertext key. Where finish encoded the identifier lists their encodings
// are copied; where it left them alone each slot's are merged here, once,
// straight into the decoded column at the group's final place.
func gatherGroups(ms []*groupMerger) (*GroupCols, error) {
	total, arena := 0, 0
	for _, m := range ms {
		total += m.t.len()
		arena += len(m.t.arena)
	}
	if total == 0 {
		return nil, nil
	}
	kind, pl := ms[0].t.kind, ms[0].pl
	out := &GroupCols{KeyKind: kind, Rows: make([]uint64, 0, total), Aggs: newAggCols(pl.Aggs, total)}
	var keys groupKeys
	keys.init(kind, ms[0].t.inflated)
	keys.reserve(total, (arena+total-1)/total)
	for _, m := range ms {
		at := len(out.Rows)
		out.Rows = append(out.Rows, m.acc.rows...)
		for s := range m.t.len() {
			if kind == store.U64 {
				keys.appendU64(m.t.u64[s], m.t.suffixAt(s))
			} else {
				appendKey(&keys, m.t.bytesAt(s), m.t.suffixAt(s))
			}
		}
		for ai := range out.Aggs {
			if col := &out.Aggs[ai]; col.Lane != nil {
				copy(col.Lane[at:], m.acc.cols[ai].Lane)
			} else {
				copy(col.Vals[at:], m.acc.cols[ai].Vals)
			}
		}
	}
	out.KeyU64, out.KeyOff, out.KeyArena, out.Suffix = keys.u64, keys.off, keys.arena, keys.sfx
	var w idWork
	for ai := range out.Aggs {
		col := &out.Aggs[ai]
		switch {
		case col.Kind != AggAsheSum:
		case ms[0].acc.cols[ai].IDOff != nil:
			block := 0
			for _, m := range ms {
				block += len(m.acc.cols[ai].IDs)
			}
			col.IDs = make([]byte, 0, block)
			col.IDOff = make([]uint64, 1, total+1)
			for _, m := range ms {
				src, base := &m.acc.cols[ai], uint64(len(col.IDs))
				col.IDs = append(col.IDs, src.IDs...)
				for _, off := range src.IDOff[1:] {
					col.IDOff = append(col.IDOff, base+off)
				}
			}
		default:
			// The column is allocated when the first list is known, for that
			// list and the most the lists still to come can need: exactly
			// right for decoded inputs and for a single group, a little over
			// for encoded ones (taskGroups.numRanges).
			left := 0
			for _, m := range ms {
				for _, in := range m.inputs {
					for i := 0; i < in.len(); i++ {
						left += in.set.numRanges(ai, in.at(i))
					}
				}
			}
			col.RangeOff = make([]uint64, 1, total+1)
			for _, m := range ms {
				for s := range m.t.len() {
					used, err := m.mergeIDs(ai, s, &w)
					if err != nil {
						return nil, err
					}
					left -= used
					if cap(col.Ranges)-len(col.Ranges) < len(w.run.ranges) {
						col.Ranges = slices.Grow(col.Ranges, len(w.run.ranges)+left)
					}
					col.Ranges = append(col.Ranges, w.run.ranges...)
					col.RangeOff = append(col.RangeOff, uint64(len(col.Ranges)))
				}
			}
			col.Ranges = slices.Clip(col.Ranges)
		}
	}
	return out, nil
}
