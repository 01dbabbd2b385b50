package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"seabed/internal/idlist"
	"seabed/internal/store"
)

// This file holds the group-by machinery every stage shares. A group is a
// slot: slotTable interns group keys of any kind (u64, DET/OPE bytes, strings,
// each with an optional inflation suffix) into dense slot numbers, and
// groupAcc keeps the per-slot accumulators as flat lanes — one []uint64 per
// aggregate — or, for aggregate mixes the lanes cannot represent (Paillier, OPE
// extremes, medians), as one partial per slot. The map-side grouper (batch.go)
// fills a table per task; the task's lanes travel to the reducer as they are
// (taskGroups); reduceGroups and the coordinator's merge fold inputs of that
// one form through groupMerger; and gatherGroups, the last step, writes the
// result's columns (GroupCols, cols.go) in key order — the lanes carried the
// rest of the way.
//
// An ASHE sum's identifier lists have one life in every mode: built once, a
// row at a time, by the map task (idChains in lane mode, the slot's partial
// otherwise); laid out once, at task end, as one contiguous run per slot
// (idChains.layout); merged slot by slot through one reused buffer (idRun);
// and passed through the codec only where a result frame is written (a run's
// reducers, mergeSingle) or read (a shard result's column at the coordinator).
// A merge whose consumer is in this process leaves them decoded (AggCol).

// LaneKind reports whether an aggregate accumulates in a flat u64 lane.
func LaneKind(k AggKind) bool {
	switch k {
	case AggCount, AggPlainSum, AggPlainSumSq, AggAsheSum, AggPlainMin, AggPlainMax:
		return true
	}
	return false
}

// groupLanes reports whether the plan's groups accumulate in flat lanes: a
// group-by whose every aggregate is lane-eligible. Every stage derives the
// choice from the plan alone, so a task's output always has the form its
// reducer expects. Ungrouped plans keep partials: their single group may have
// selected no rows, a state lanes do not represent.
func (pl *Plan) groupLanes() bool {
	if pl.GroupBy == nil {
		return false
	}
	for _, a := range pl.Aggs {
		if !LaneKind(a.Kind) {
			return false
		}
	}
	return true
}

// room returns s with capacity for n more elements, doubling when it must
// grow. The group-by vectors reach megabytes one element at a time; append's
// own policy for large slices (about 1.25×) would re-copy them several times
// over.
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

// slotU64 resolves a u64 key to its slot, adding one on first sight; fresh
// tells the caller to grow its per-slot state.
func (t *slotTable) slotU64(v uint64, sfx int32, h uint64) (s int32, fresh bool) {
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
			return int32(len(t.u64) - 1), true
		}
		if t.u64[s-1] == v && t.suffixAt(int(s-1)) == sfx {
			return s - 1, false
		}
	}
}

// slotKeyed is slotU64 for byte and string keys: a first sight copies the key
// into the arena.
func slotKeyed[T ~string | ~[]byte](t *slotTable, key T, sfx int32, h uint64) (s int32, fresh bool) {
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
			return int32(len(t.hash) - 1), true
		}
		if t.hash[s-1] == h && string(t.bytesAt(int(s-1))) == string(key) && t.suffixAt(int(s-1)) == sfx {
			return s - 1, false
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
// buckets. Both executors and every shard must agree on the assignment, so it
// hashes only the key's value material (splitmix64 over u64 keys, FNV-1a over
// string/byte keys, the inflation suffix mixed in) and never a table's layout.
func (k *groupKeys) reducerBucket(s, n int) int {
	if n <= 1 {
		return 0
	}
	h := splitmix64(uint64(int64(k.suffixAt(s))) ^ 0x5eabed)
	if k.kind == store.U64 {
		h = splitmix64(h ^ k.u64[s])
	} else {
		f := uint64(14695981039346656037)
		for _, c := range k.bytesAt(s) {
			f = (f ^ uint64(c)) * 1099511628211
		}
		h = splitmix64(h ^ f)
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

// appendID adds one row identifier to slot s, as List.Append does: it extends
// the last range when it abuts it, and is a range of its own otherwise.
func (c *idChains) appendID(s int32, id uint64) {
	sl := &c.slots[s]
	if sl.tail >= 0 {
		if t := &c.nodes[sl.tail]; id == t.hi+1 && t.hi != ^uint64(0) {
			t.hi = id
			return
		}
	}
	sl.tail = int32(len(c.nodes))
	sl.count++
	c.nodes = append(room(c.nodes, 1), idNode{lo: id, hi: id, slot: s})
}

// layout writes every slot's ranges contiguously, in list order: one counting
// pass over the slots, then one scatter of the nodes in arrival order (the
// bySlot idiom). The chains are spent afterwards — each slot's tail serves as
// its write cursor — and the node arena is free for the run's next task.
func (c *idChains) layout() idLists {
	off := make([]uint64, len(c.slots)+1)
	for s := range c.slots {
		c.slots[s].tail = int32(off[s])
		off[s+1] = off[s] + uint64(c.slots[s].count)
	}
	ranges := make([]idlist.Range, len(c.nodes))
	for i := range c.nodes {
		n := &c.nodes[i]
		at := &c.slots[n.slot].tail
		ranges[*at] = idlist.Range{Lo: n.lo, Hi: n.hi}
		*at++
	}
	return idLists{ranges: ranges, off: off}
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

// groupAcc is the per-slot accumulator storage beside a slotTable, in one of
// two modes fixed by the plan (Plan.groupLanes): flat lanes — one u64 lane per
// aggregate, beside which a map task keeps the ASHE sums' identifier lists
// (idChains; a merge builds them slot by slot in finish) — or one generic
// partial per slot. The row-count lane serves both modes; a slot's partial leaves its own
// rows field unused.
type groupAcc struct {
	aggs  []Agg
	lanes bool
	rows  []uint64
	vals  [][]uint64 // [aggregate][slot], lane mode
	parts []partial  // [slot], generic mode
	// states is the block the next generic slots' aggStates are carved from.
	states []aggState
}

func (a *groupAcc) init(pl *Plan) {
	*a = groupAcc{aggs: pl.Aggs, lanes: pl.groupLanes()}
	if a.lanes {
		a.vals = make([][]uint64, len(a.aggs))
	}
}

// alloc sizes the accumulators for exactly n zeroed slots: what a merge, which
// knows its slot count before it accumulates, uses in place of addSlot.
func (a *groupAcc) alloc(n int) {
	a.rows = make([]uint64, n)
	if !a.lanes {
		na := len(a.aggs)
		a.parts = make([]partial, n)
		states := make([]aggState, n*na)
		for s := range a.parts {
			initPartial(&a.parts[s], a.aggs, states[s*na:(s+1)*na:(s+1)*na])
		}
		return
	}
	for ai, agg := range a.aggs {
		a.vals[ai] = make([]uint64, n)
		if agg.Kind == AggPlainMin {
			for s := range a.vals[ai] {
				a.vals[ai][s] = ^uint64(0)
			}
		}
	}
}

// addSlot grows the accumulators by one zeroed slot.
func (a *groupAcc) addSlot() {
	a.rows = append(room(a.rows, 1), 0)
	if !a.lanes {
		n := len(a.aggs)
		if len(a.states) < n {
			a.states = make([]aggState, 64*n)
		}
		a.parts = append(room(a.parts, 1), partial{})
		initPartial(&a.parts[len(a.parts)-1], a.aggs, a.states[:n:n])
		a.states = a.states[n:]
		return
	}
	for ai := range a.aggs {
		zero := uint64(0)
		if a.aggs[ai].Kind == AggPlainMin {
			zero = ^uint64(0)
		}
		a.vals[ai] = append(room(a.vals[ai], 1), zero)
	}
}

// --- the merge input form ---

// taskGroups is a set of groups with distinct keys and their accumulated
// state: what a map task hands its reducers, what a shard's result converts
// to at the coordinator, and so the one input form of groupMerger. Its mode
// (lanes or parts) is the plan's.
type taskGroups struct {
	keys  groupKeys
	rows  []uint64
	vals  [][]uint64 // lane mode: [aggregate][group]
	parts []partial  // generic mode
	ids   []idLists  // [aggregate], the zero value for non-ASHE aggregates
	// order lists the groups partitioned by reducer: bucket b's groups are
	// order[start[b]:start[b+1]]. Map tasks only.
	order []int32
	start []int32
}

// idLists is one ASHE aggregate's identifier list per group, in the form the
// set's producer left them: flat, one contiguous run per group (a lane-mode
// map task's after layout, a decoded result column's); inside the groups'
// partials (a generic-mode map task's, the reference evaluator's); or
// codec-encoded in a shard result's column (enc) until the merge reaches them.
type idLists struct {
	ranges []idlist.Range // flat: group g's list is ranges[off[g]:off[g+1]]
	off    []uint64
	parts  []partial // in partials: group g's list is its aggregate's ids
	enc    *AggCol
	codec  idlist.Codec
}

// idsAt returns group g's list of aggregate ai: a view of the flat run or of
// the partial's list, or an encoded list decoded into scratch, which the
// result then aliases until the next call.
func (tg *taskGroups) idsAt(ai, g int, scratch *[]idlist.Range) ([]idlist.Range, error) {
	switch l := &tg.ids[ai]; {
	case l.off != nil:
		return l.ranges[l.off[g]:l.off[g+1]], nil
	case l.enc != nil:
		rs, err := l.codec.AppendDecode((*scratch)[:0], l.enc.EncodedIDs(g))
		if err != nil {
			return nil, fmt.Errorf("engine: merge: decode id list: %v", err)
		}
		*scratch = rs
		return rs, nil
	default:
		return l.parts[g].aggs[ai].ids.Ranges(), nil
	}
}

// numRanges returns the range count of group g's list of aggregate ai without
// laying it out. An encoded list does not know it: a list of n identifiers —
// the group's rows — has at most n ranges and, under the variable-byte codecs,
// no fewer bytes, so the smaller of the two bounds it (Deflate can beat the
// second; the count is a capacity hint there, and exact everywhere else).
func (tg *taskGroups) numRanges(ai, g int) int {
	switch l := &tg.ids[ai]; {
	case l.off != nil:
		return int(l.off[g+1] - l.off[g])
	case l.enc != nil:
		return int(min(tg.rows[g], l.enc.IDOff[g+1]-l.enc.IDOff[g]))
	default:
		return l.parts[g].aggs[ai].ids.NumRanges()
	}
}

// encodedHint guesses the encoded size of group g's list of aggregate ai: the
// encoding itself when the list arrived encoded, else a few bytes per range.
func (tg *taskGroups) encodedHint(ai, g int) int {
	if enc := tg.ids[ai].enc; enc != nil {
		return int(enc.IDOff[g+1] - enc.IDOff[g])
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
// arithmetic, the accounting Plan.sizeOutput applies to an ungrouped partial:
// keys, row counts, lanes or partials, and identifier lists raw at 16 bytes a
// range (lists, the second result, is that share).
func (tg *taskGroups) heldBytes(pl *Plan) (total, lists int) {
	n := tg.keys.len()
	total = 8 * n // row counts
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
	if tg.vals == nil { // generic mode: the partials hold their lists
		for i := range tg.parts {
			t, l := pl.aggBytes(&tg.parts[i])
			total, lists = total+t, lists+l
		}
		return total, lists
	}
	total += 8 * n * len(pl.Aggs)
	for ai := range tg.ids {
		l := &tg.ids[ai]
		lists += 16 * len(l.ranges)
		for g := range l.parts { // the reference evaluator's
			lists += 16 * l.parts[g].aggs[ai].ids.NumRanges()
		}
	}
	return total + lists, lists
}

// taskGroupsFromMap converts the reference evaluator's key-addressed map into
// the task-output form — the only step of that evaluator that knows about
// slots and lanes.
func (pl *Plan) taskGroupsFromMap(groups map[groupKey]*partial, kind store.Kind, inflated bool, buckets int) *taskGroups {
	tg := &taskGroups{rows: make([]uint64, 0, len(groups)), ids: make([]idLists, len(pl.Aggs))}
	tg.keys.init(kind, inflated)
	parts := make([]partial, 0, len(groups))
	if pl.groupLanes() {
		tg.vals = make([][]uint64, len(pl.Aggs))
	}
	for k, p := range groups {
		if kind == store.U64 {
			tg.keys.appendU64(k.u64, int32(k.suffix))
		} else {
			appendKey(&tg.keys, k.str, int32(k.suffix))
		}
		tg.rows = append(tg.rows, p.rows)
		parts = append(parts, *p)
		for ai := range tg.vals {
			tg.vals[ai] = append(tg.vals[ai], p.aggs[ai].u64)
		}
	}
	if tg.vals == nil {
		tg.parts = parts
	}
	tg.asheIDs(pl, parts)
	tg.partition(buckets)
	return tg
}

// asheIDs points the set's ASHE aggregates at the identifier lists its groups'
// partials hold.
func (tg *taskGroups) asheIDs(pl *Plan, parts []partial) {
	for ai, a := range pl.Aggs {
		if a.Kind == AggAsheSum {
			tg.ids[ai] = idLists{parts: parts}
		}
	}
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
// a run's map tasks (one merger per reducer bucket) and the coordinator's
// merge of shard results are both this routine. Lanes add as lanes; generic
// slots fold through mergePartial; identifier lists merge slot by slot
// (mergeIDs) where they are written out: encoded by finish, or decoded, in key
// order, by gatherGroups.
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

	// finish's output: the slots' aggregate columns, in slot order — lanes
	// are the accumulators themselves, identifier lists are encoded into one
	// block per aggregate or left to gatherGroups — and the groups' serialized
	// size.
	aggs  []AggCol
	bytes int
}

// mergeGroupSets folds the inputs (at least one, in order) into a new
// merger, in two passes: intern every input key, which fixes the slot count,
// then accumulate into vectors allocated at exactly that size — so a merge
// allocates a fixed number of blocks however many groups it folds.
func mergeGroupSets(pl *Plan, inputs []groupSel) *groupMerger {
	m := &groupMerger{pl: pl, inputs: inputs}
	m.acc.init(pl)
	total, largest := 0, 0
	for _, in := range inputs {
		total += in.len()
		largest = max(largest, in.len())
	}
	// Every input holds distinct keys, so the largest one is a floor on the
	// slot count and their sum a ceiling: reserve keys for the floor, size the
	// table (4 bytes a slot) for the ceiling.
	keys := &inputs[0].set.keys
	inflated := false
	for _, in := range inputs {
		inflated = inflated || in.set.keys.inflated
	}
	m.t.init(keys.kind, inflated, total)
	m.t.reserve(largest, keys.keyLen())

	m.dst = make([]int32, total)
	at := 0
	for _, in := range inputs {
		m.intern(in, m.dst[at:at+in.len()])
		at += in.len()
	}
	m.acc.alloc(m.t.len())
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
			dst[i], _ = m.t.slotU64(v, sfx, hashU64(v, sfx))
			continue
		}
		key := keys.bytesAt(g)
		var h uint64
		if keys.hash != nil {
			h = keys.hash[g]
		} else {
			h = hashKey(key, sfx)
		}
		dst[i], _ = slotKeyed(&m.t, key, sfx, h)
	}
}

// fold accumulates the groups of in into the slots dst resolved them to.
func (m *groupMerger) fold(in groupSel, dst []int32) {
	rows := m.acc.rows
	for i, d := range dst {
		rows[d] += in.set.rows[in.at(i)]
	}
	if !m.acc.lanes {
		for i, d := range dst {
			mergePartial(m.pl, &m.acc.parts[d], &in.set.parts[in.at(i)])
		}
		return
	}
	for ai, a := range m.pl.Aggs {
		lane, src := m.acc.vals[ai], in.set.vals[ai]
		switch a.Kind {
		case AggCount, AggPlainSum, AggPlainSumSq, AggAsheSum:
			// An ASHE sum's bodies add here; its identifier lists merge in finish.
			for i, d := range dst {
				lane[d] += src[in.at(i)]
			}
		case AggPlainMin:
			for i, d := range dst {
				lane[d] = min(lane[d], src[in.at(i)])
			}
		case AggPlainMax:
			for i, d := range dst {
				lane[d] = max(lane[d], src[in.at(i)])
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
	w.run.set(w.run.ranges[:0])
	for _, r := range m.refs[m.start[s]:m.start[s+1]] {
		set := m.inputs[r.in].set
		ranges += set.numRanges(ai, int(r.g))
		src, err := set.idsAt(ai, int(r.g), &w.list)
		if err != nil {
			return 0, err
		}
		w.run.merge(src, &w.scratch)
	}
	return ranges, nil
}

// finish converts the merged slots into result columns, in slot order,
// collapsing medians, and totals the groups' serialized size. With a codec it
// also merges and encodes the ASHE identifier lists, for a result a daemon
// frames: it is then the reducer's last measured step. A nil codec leaves the
// lists to gatherGroups, which writes them decoded for a consumer in this
// process.
func (m *groupMerger) finish(codec idlist.Codec) error {
	n, na := m.t.len(), len(m.pl.Aggs)
	m.bytes = 8 * n // key + row count, roughly
	if m.t.kind != store.U64 {
		m.bytes += len(m.t.arena)
	}
	if m.acc.lanes {
		m.bytes += 8 * n * na
		m.aggs = make([]AggCol, na)
		for ai, a := range m.pl.Aggs {
			m.aggs[ai].Kind, m.aggs[ai].Lane = a.Kind, m.acc.vals[ai]
		}
	} else {
		m.aggs = newAggCols(m.pl.Aggs, n)
		for s := range m.acc.parts {
			m.bytes += m.pl.finishAggs(&m.acc.parts[s], m.aggs, s)
		}
	}
	if codec == nil {
		return nil
	}
	var w idWork
	for ai := range m.aggs {
		col := &m.aggs[ai]
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
// are disjoint: every group of every merger, in key order (u64 key, then
// bytes, then string, then suffix — a result has one key kind, so the order is
// key then suffix). The order comes from sorting 16-byte references to the
// slots, typed by key kind; each column is then gathered through them. Where
// finish encoded the identifier lists their encodings are copied; where it
// left them alone each slot's are merged here, once, straight into the decoded
// column at the group's final place.
func gatherGroups(ms []*groupMerger) (*GroupCols, error) {
	total, arena := 0, 0
	for _, m := range ms {
		total += m.t.len()
		arena += len(m.t.arena)
	}
	if total == 0 {
		return nil, nil
	}
	// ref addresses slot s of merger m; p is the key itself for u64 keys and
	// its first eight bytes, big-endian, otherwise — so most comparisons never
	// touch the arenas.
	type ref struct {
		p    uint64
		m, s int32
	}
	kind := ms[0].t.kind
	refs := make([]ref, 0, total)
	for mi, m := range ms {
		for s := 0; s < m.t.len(); s++ {
			r := ref{m: int32(mi), s: int32(s)}
			if kind == store.U64 {
				r.p = m.t.u64[s]
			} else {
				for i, c := range m.t.bytesAt(s) {
					if i == 8 {
						break
					}
					r.p |= uint64(c) << (56 - 8*i)
				}
			}
			refs = append(refs, r)
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := cmp.Compare(a.p, b.p); c != 0 {
			return c
		}
		ma, mb := ms[a.m], ms[b.m]
		if kind != store.U64 {
			if c := bytes.Compare(ma.t.bytesAt(int(a.s)), mb.t.bytesAt(int(b.s))); c != 0 {
				return c
			}
		}
		return cmp.Compare(ma.t.suffixAt(int(a.s)), mb.t.suffixAt(int(b.s)))
	})

	pl := ms[0].pl
	out := &GroupCols{KeyKind: kind, Rows: make([]uint64, total), Aggs: newAggCols(pl.Aggs, total)}
	var keys groupKeys
	keys.init(kind, ms[0].t.inflated)
	keys.reserve(total, (arena+total-1)/total)
	for i, r := range refs {
		m, s := ms[r.m], int(r.s)
		out.Rows[i] = m.acc.rows[s]
		if kind == store.U64 {
			keys.appendU64(m.t.u64[s], m.t.suffixAt(s))
		} else {
			appendKey(&keys, m.t.bytesAt(s), m.t.suffixAt(s))
		}
	}
	out.KeyU64, out.KeyOff, out.KeyArena, out.Suffix = keys.u64, keys.off, keys.arena, keys.sfx
	var w idWork
	for ai := range out.Aggs {
		col := &out.Aggs[ai]
		if col.Lane == nil {
			for i, r := range refs {
				col.Vals[i] = ms[r.m].aggs[ai].Vals[r.s]
			}
			continue
		}
		for i, r := range refs {
			col.Lane[i] = ms[r.m].aggs[ai].Lane[r.s]
		}
		switch {
		case col.Kind != AggAsheSum:
		case ms[0].aggs[ai].IDOff != nil:
			block := 0
			for _, m := range ms {
				block += len(m.aggs[ai].IDs)
			}
			col.IDs = make([]byte, 0, block)
			col.IDOff = make([]uint64, total+1)
			for i, r := range refs {
				col.IDs = append(col.IDs, ms[r.m].aggs[ai].EncodedIDs(int(r.s))...)
				col.IDOff[i+1] = uint64(len(col.IDs))
			}
		default:
			// The column is allocated when the first list is known, for that
			// list and the most the lists still to come can need: exactly
			// right for flat inputs and for a single group, a little over for
			// encoded ones (taskGroups.numRanges).
			left := 0
			for _, m := range ms {
				for _, in := range m.inputs {
					for i := 0; i < in.len(); i++ {
						left += in.set.numRanges(ai, in.at(i))
					}
				}
			}
			col.RangeOff = make([]uint64, total+1)
			for i, r := range refs {
				used, err := ms[r.m].mergeIDs(ai, int(r.s), &w)
				if err != nil {
					return nil, err
				}
				left -= used
				if cap(col.Ranges)-len(col.Ranges) < len(w.run.ranges) {
					col.Ranges = slices.Grow(col.Ranges, len(w.run.ranges)+left)
				}
				col.Ranges = append(col.Ranges, w.run.ranges...)
				col.RangeOff[i+1] = uint64(len(col.Ranges))
			}
			col.Ranges = slices.Clip(col.Ranges)
		}
	}
	return out, nil
}
