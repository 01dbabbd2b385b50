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
// aggregate plus arena-chained identifier lists — or, for aggregate mixes the
// lanes cannot represent (Paillier, OPE extremes, medians), as one partial per
// slot. The map-side grouper (batch.go) fills a table per task; the task's
// lanes travel to the reducer as they are (taskGroups); reduceGroups and
// the coordinator's merge fold inputs of that one form through groupMerger;
// and gatherGroups, the last step, writes the result's columns (GroupCols,
// cols.go) in key order — the lanes carried the rest of the way.

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
// map task's table. The lists grow a row at a time, interleaved, so a slot's
// ranges are a linked run of nodes in one shared arena: no list ever
// allocates on its own.
type idChains struct {
	nodes []idNode
	slots []idSlot
}

type idNode struct {
	lo, hi uint64
	next   int32
}

// idSlot is one slot's list: its chain, its range count, and its identifier
// count n (with multiplicity, as idlist.List keeps it).
type idSlot struct {
	n          uint64
	head, tail int32
	count      int32
}

func (c *idChains) addSlot() {
	c.slots = append(room(c.slots, 1), idSlot{head: -1, tail: -1})
}

// appendID adds one row identifier to slot s, as List.Append does: it extends
// the last range when it abuts it, and is a range of its own otherwise.
func (c *idChains) appendID(s int32, id uint64) {
	sl := &c.slots[s]
	sl.n++
	if sl.tail >= 0 {
		if t := &c.nodes[sl.tail]; id == t.hi+1 && t.hi != ^uint64(0) {
			t.hi = id
			return
		}
	}
	at := int32(len(c.nodes))
	c.nodes = append(room(c.nodes, 1), idNode{lo: id, hi: id, next: -1})
	if sl.tail < 0 {
		sl.head = at
	} else {
		c.nodes[sl.tail].next = at
	}
	sl.tail = at
	sl.count++
}

// appendRanges appends slot s's ranges to dst in list order.
func (c *idChains) appendRanges(dst []idlist.Range, s int) []idlist.Range {
	for at := c.slots[s].head; at >= 0; at = c.nodes[at].next {
		dst = append(dst, idlist.Range{Lo: c.nodes[at].lo, Hi: c.nodes[at].hi})
	}
	return dst
}

// idRun is one slot's identifier list while a merge builds it: the slot's
// input lists merge into one reused buffer, in input order, and the finished
// list is encoded before the next slot's begins, so a merge holds one decoded
// list at a time however many groups it folds. n is the identifier count (with
// multiplicity, as idlist.List keeps it); ragged marks a list that is not both
// sorted by Lo and free of abutting neighbours, on which merge takes its
// general path.
type idRun struct {
	ranges []idlist.Range
	n      uint64
	ragged bool
}

// set makes rs, n identifiers, the list, verbatim: List.Clone. rs may be the
// run's own buffer.
func (r *idRun) set(rs []idlist.Range, n uint64) {
	r.ranges, r.n, r.ragged = rs, n, false
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo < rs[i-1].Lo || (rs[i].Lo == rs[i-1].Hi+1 && rs[i-1].Hi != ^uint64(0)) {
			r.ragged = true
		}
	}
}

// merge unions src into the list with exactly List.Merge's outcome. Map tasks
// and shards hold ascending, disjoint identifier runs, so nearly every merge
// finds src starting at or after the list's last range — the Lo-ordered merge
// then emits the list's ranges unchanged followed by src's, which is an append
// (each range extending the last when it abuts it). Interleaved inputs
// (appended batches) take the general merge into scratch, which then trades
// places with the list's buffer.
func (r *idRun) merge(src idlist.List, scratch *[]idlist.Range) {
	if src.Empty() {
		return
	}
	rs := src.Ranges()
	switch {
	case r.n == 0:
		r.set(append(r.ranges[:0], rs...), src.Len())
	case !r.ragged && r.ranges[len(r.ranges)-1].Lo <= rs[0].Lo:
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
		r.n += src.Len()
	default:
		merged := idlist.MergeRanges((*scratch)[:0], r.ranges, rs)
		*scratch = r.ranges
		r.set(merged, r.n+src.Len())
	}
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
	ids   []idLists  // lane mode: [aggregate], empty for non-ASHE aggregates
	parts []partial  // generic mode
	// order lists the groups partitioned by reducer: bucket b's groups are
	// order[start[b]:start[b+1]]. Map tasks only.
	order []int32
	start []int32
	// bytes is the serialized size of the set as shuffle traffic.
	bytes int
}

// idLists is one ASHE aggregate's identifier list per group, in whichever
// form the set's producer already had: a map task's lists stay chained in the
// grouper's arena; the reference evaluator's are lists of their own; a shard
// result's stay codec-encoded in its column (enc) until the merge reaches them.
type idLists struct {
	chains *idChains
	lists  []idlist.List
	enc    *AggCol
	codec  idlist.Codec
}

// at returns group g's list; a chained or encoded list is laid out in scratch,
// which the returned list aliases until the next call.
func (l *idLists) at(g int, scratch *[]idlist.Range) (idlist.List, error) {
	switch {
	case l.chains != nil:
		*scratch = l.chains.appendRanges((*scratch)[:0], g)
	case l.enc != nil:
		rs, err := l.codec.AppendDecode((*scratch)[:0], l.enc.EncodedIDs(g))
		if err != nil {
			return idlist.List{}, fmt.Errorf("engine: merge: decode id list: %v", err)
		}
		*scratch = rs
	default:
		return l.lists[g], nil
	}
	return idlist.View(*scratch), nil
}

// numRanges returns the range count of group g's list, which a chained list
// or a list of its own knows without being laid out (an encoded one does not:
// only sizeShuffle asks, and only of a map task's or the reference
// evaluator's).
func (l *idLists) numRanges(g int) int {
	if l.chains == nil {
		return l.lists[g].NumRanges()
	}
	return int(l.chains.slots[g].count)
}

// encodedHint guesses the encoded size of group g's list: the encoding itself
// when the list arrived encoded, else a few bytes per range — or per
// identifier, for short lists.
func (l *idLists) encodedHint(g int) int {
	switch {
	case l.enc != nil:
		return int(l.enc.IDOff[g+1] - l.enc.IDOff[g])
	case l.chains != nil:
		sl := &l.chains.slots[g]
		return 2 + 4*int(min(sl.n, 2*uint64(sl.count)))
	}
	return 2 + 4*int(min(l.lists[g].Len(), 2*uint64(l.lists[g].NumRanges())))
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

// sizeShuffle computes the set's shuffle size (the same accounting as
// Plan.partialBytes applies to an ungrouped partial). Unless the plan
// compresses at the driver, every ASHE identifier list is priced at its
// worker-compressed size (§4.5) by encoding it into one reused buffer.
func (tg *taskGroups) sizeShuffle(pl *Plan, codec idlist.Codec) error {
	n := tg.keys.len()
	total := 8 * n // row counts
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
	var scratch []byte
	if tg.vals == nil { // generic mode
		for i := range tg.parts {
			p := &tg.parts[i]
			if !pl.CompressAtDriver {
				if err := encodePartialIDs(p, codec, &scratch); err != nil {
					return err
				}
			}
			total += pl.aggBytes(p)
		}
		tg.bytes = total
		return nil
	}
	total += 8 * n * len(pl.Aggs)
	var ranges []idlist.Range
	for ai, a := range pl.Aggs {
		if a.Kind != AggAsheSum {
			continue
		}
		lists := &tg.ids[ai]
		for g := 0; g < n; g++ {
			if pl.CompressAtDriver {
				total += 16 * lists.numRanges(g) // raw ranges on the wire
				continue
			}
			list, err := lists.at(g, &ranges)
			if err != nil {
				return err
			}
			if scratch, err = codec.AppendEncode(scratch[:0], list); err != nil {
				return fmt.Errorf("engine: encode id list: %v", err)
			}
			total += len(scratch)
		}
	}
	tg.bytes = total
	return nil
}

// taskGroupsFromMap converts the reference evaluator's key-addressed map into
// the task-output form — the only step of that evaluator that knows about
// slots and lanes.
func (pl *Plan) taskGroupsFromMap(groups map[groupKey]*partial, kind store.Kind, inflated bool, buckets int, codec idlist.Codec) (*taskGroups, error) {
	tg := &taskGroups{rows: make([]uint64, 0, len(groups))}
	tg.keys.init(kind, inflated)
	lanes := pl.groupLanes()
	if lanes {
		tg.vals = make([][]uint64, len(pl.Aggs))
		tg.ids = make([]idLists, len(pl.Aggs))
	} else {
		tg.parts = make([]partial, 0, len(groups))
	}
	for k, p := range groups {
		if kind == store.U64 {
			tg.keys.appendU64(k.u64, int32(k.suffix))
		} else {
			appendKey(&tg.keys, k.str, int32(k.suffix))
		}
		tg.rows = append(tg.rows, p.rows)
		if !lanes {
			tg.parts = append(tg.parts, *p)
			continue
		}
		for ai := range p.aggs {
			tg.vals[ai] = append(tg.vals[ai], p.aggs[ai].u64)
			if p.aggs[ai].kind == AggAsheSum {
				tg.ids[ai].lists = append(tg.ids[ai].lists, p.aggs[ai].ids)
			}
		}
	}
	tg.partition(buckets)
	return tg, tg.sizeShuffle(pl, codec)
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
// slots fold through mergePartial; identifier lists merge slot by slot as
// finish encodes them.
type groupMerger struct {
	pl  *Plan
	t   slotTable
	acc groupAcc
	// The inputs and, per input group in input order, the slot it folded into:
	// what finish needs to find each slot's identifier lists.
	inputs []groupSel
	dst    []int32

	// finish's output: the slots' aggregate columns, in slot order — lanes
	// are the accumulators themselves, identifier lists are encoded into one
	// block per aggregate — and the groups' serialized size.
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
func (m *groupMerger) bySlot() (start []int32, refs []groupRef) {
	n := m.t.len()
	start = make([]int32, n+1)
	for _, d := range m.dst {
		start[d+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	refs = make([]groupRef, len(m.dst))
	next := slices.Clone(start[:n])
	at := 0
	for ii, in := range m.inputs {
		for i := 0; i < in.len(); i++ {
			d := m.dst[at]
			refs[next[d]] = groupRef{int32(ii), int32(in.at(i))}
			next[d]++
			at++
		}
	}
	return start, refs
}

// finish converts the merged slots into result columns, in slot order —
// merging and encoding ASHE identifier lists for the client, collapsing
// medians — and totals the groups' serialized size. It is the reducer's last
// measured step.
func (m *groupMerger) finish(codec idlist.Codec) error {
	n, na := m.t.len(), len(m.pl.Aggs)
	m.bytes = 8 * n // key + row count, roughly
	if m.t.kind != store.U64 {
		m.bytes += len(m.t.arena)
	}
	if !m.acc.lanes {
		m.aggs = newAggCols(m.pl.Aggs, n)
		for s := range m.acc.parts {
			b, err := m.pl.finishAggs(&m.acc.parts[s], m.aggs, s, codec)
			if err != nil {
				return err
			}
			m.bytes += b
		}
		return nil
	}
	m.bytes += 8 * n * na
	m.aggs = make([]AggCol, na)
	var (
		start         []int32
		refs          []groupRef
		run           idRun
		list, scratch []idlist.Range // an input list laid out; idRun.merge's general path
	)
	for ai, a := range m.pl.Aggs {
		col := &m.aggs[ai]
		col.Kind, col.Lane = a.Kind, m.acc.vals[ai]
		if a.Kind != AggAsheSum {
			continue
		}
		if refs == nil {
			start, refs = m.bySlot()
		}
		// One block for the aggregate's encodings, started at a guess of what
		// the lists need so that it seldom regrows.
		hint := 2 * n
		for _, in := range m.inputs {
			lists := &in.set.ids[ai]
			for i := 0; i < in.len(); i++ {
				hint += lists.encodedHint(in.at(i))
			}
		}
		col.IDs = make([]byte, 0, hint)
		col.IDOff = make([]uint64, n+1)
		// Each slot's list is the merge of its inputs' lists, in input order
		// (decoded here when they arrived encoded), and is encoded at once.
		for s := 0; s < n; s++ {
			run.set(run.ranges[:0], 0)
			for _, r := range refs[start[s]:start[s+1]] {
				src, err := m.inputs[r.in].set.ids[ai].at(int(r.g), &list)
				if err != nil {
					return err
				}
				run.merge(src, &scratch)
			}
			var err error
			if col.IDs, err = codec.AppendEncode(col.IDs, idlist.View(run.ranges)); err != nil {
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
// slots, typed by key kind; each column is then gathered through them.
func gatherGroups(ms []*groupMerger) *GroupCols {
	total, arena := 0, 0
	for _, m := range ms {
		total += m.t.len()
		arena += len(m.t.arena)
	}
	if total == 0 {
		return nil
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
		if col.Kind != AggAsheSum {
			continue
		}
		block := 0
		for _, m := range ms {
			block += len(m.aggs[ai].IDs)
		}
		col.IDs = make([]byte, 0, block)
		for i, r := range refs {
			col.IDs = append(col.IDs, ms[r.m].aggs[ai].EncodedIDs(int(r.s))...)
			col.IDOff[i+1] = uint64(len(col.IDs))
		}
	}
	return out
}
