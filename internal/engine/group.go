package engine

import (
	"encoding/binary"
	"slices"
	"sort"

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
// keyed U64 0. A group-by on a coded key with lane aggregates has no slot
// table at all — its slots are the key's table-wide codes (codes.go). Any
// other group-by fills a table per map task (the grouper, batch.go); the
// task's columns travel to the reducer as they are (taskGroups);
// reduceGroups, the driver's fold of an ungrouped plan and the coordinator's
// merge fold inputs of that one form through groupMerger; and gatherGroups,
// the last step, concatenates the reducers' slots into the result's columns
// (GroupCols, cols.go) — the columns carried the rest of the way, in no key
// order.
//
// No group keeps identifiers. A run's ASHE sums share one identifier section
// (ids.go): each map task keeps its survivors' identifiers and each one's
// slot, and the driver writes the section once the reducers have numbered the
// groups.
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
// keys, and the inflation suffix when the plan inflates groups.
type groupKeys struct {
	kind     store.Kind
	inflated bool
	u64      []uint64 // store.U64: the key per slot
	off      []uint64 // other kinds: key s is arena[off[s]:off[s+1]]
	arena    []byte
	sfx      []int32 // inflation suffix per slot; unused (suffix −1) unless inflated
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
// ciphertexts are two words, mixed without a loop (hashWords) — with the
// suffix and length mixed in. Each word is one little-endian load: for a
// []byte key the conversion is the slice itself, and a string key's eight
// bytes convert on the stack.
func hashKey[T ~string | ~[]byte](k T, sfx int32) uint64 {
	if len(k) == 16 {
		return hashWords(binary.LittleEndian.Uint64([]byte(k[:8])), binary.LittleEndian.Uint64([]byte(k[8:16])), sfx)
	}
	h := uint64(len(k)) ^ uint64(uint32(sfx))*0x9e3779b97f4a7c15
	i := 0
	for ; i+8 <= len(k); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64([]byte(k[i:i+8]))) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	for ; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 0x100000001b3
	}
	return splitmix64(h)
}

// hashWords is hashKey of the 16-byte key whose little-endian words are a
// and b, mixed in line: every DET and OPE value is such a key.
func hashWords(a, b uint64, sfx int32) uint64 {
	h := (16 ^ uint64(uint32(sfx))*0x9e3779b97f4a7c15 ^ a) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>29 ^ b) * 0xbf58476d1ce4e5b9
	return splitmix64(h ^ h>>29)
}

// slotTable interns group keys into slots: an open-addressed, linear-probing
// table indexed by the hash's high bits and holding slot+1 (0 = empty), over
// the groupKeys that map each slot back to its key. It doubles at half load;
// used counts its entries, which a grouper's dense-indexed slots are not among.
// A probe compares a candidate's key and suffix, and growth re-hashes the keys
// the table holds.
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

// slotKeyed is slotU64 for byte and string keys, h being hashKey(key, sfx): a
// first sight copies the key into the arena.
func slotKeyed[T ~string | ~[]byte](t *slotTable, key T, sfx int32, h uint64) int32 {
	if t.used*2 >= len(t.table) {
		t.grow()
	}
	mask := uint64(len(t.table) - 1)
	for idx := h >> t.shift; ; idx = (idx + 1) & mask {
		s := t.table[idx]
		if s == 0 {
			appendKey(&t.groupKeys, key, sfx)
			t.used++
			t.table[idx] = int32(t.len())
			return int32(t.len() - 1)
		}
		if sameKey(t.bytesAt(int(s-1)), key) && t.suffixAt(int(s-1)) == sfx {
			return s - 1
		}
	}
}

// sameKey reports whether a is key: a 16-byte key, a DET or OPE value,
// compared as two words.
func sameKey[T ~string | ~[]byte](a []byte, key T) bool {
	if len(key) != 16 || len(a) != 16 {
		return string(a) == string(key)
	}
	return binary.LittleEndian.Uint64(a) == binary.LittleEndian.Uint64([]byte(key[:8])) &&
		binary.LittleEndian.Uint64(a[8:]) == binary.LittleEndian.Uint64([]byte(key[8:16]))
}

// grow doubles the table and reinserts every resident slot at its new
// high-bits position, re-hashing its key.
func (t *slotTable) grow() {
	old := t.table
	t.table = make([]int32, len(old)*2)
	t.shift--
	mask := uint64(len(t.table) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		idx := t.hashAt(int(s-1)) >> t.shift
		for t.table[idx] != 0 {
			idx = (idx + 1) & mask
		}
		t.table[idx] = s
	}
}

// hashAt is slot s's key hashed with its suffix, as the slot table hashes it.
func (k *groupKeys) hashAt(s int) uint64 {
	if k.kind == store.U64 {
		return hashU64(k.u64[s], k.suffixAt(s))
	}
	return hashKey(k.bytesAt(s), k.suffixAt(s))
}

// reducerBucket deterministically assigns slot s's key to one of n reducer
// buckets: the key's hash modulo n. Both executors and every shard must agree
// on the assignment, so the hash covers only the key's material and inflation
// suffix, never a table's layout.
func (k *groupKeys) reducerBucket(s, n int) int {
	if n <= 1 {
		return 0
	}
	return int(k.hashAt(s) % uint64(n))
}

// --- accumulators ---

// groupAcc is the per-slot accumulator storage beside a slotTable: the row
// counts and one column per aggregate in the result's own form (AggCol) — a
// lane for a lane kind, an AggValue per slot for the rest, which the map-side
// kernels, the merge and the result all read and write as it is.
type groupAcc struct {
	aggs []Agg
	rows []uint64
	cols []AggCol
}

// init readies the accumulators, with no slots, for a plan's aggregates.
func (a *groupAcc) init(aggs []Agg) {
	*a = groupAcc{aggs: aggs, cols: make([]AggCol, len(aggs))}
	for ai, agg := range aggs {
		a.cols[ai].Kind = agg.Kind
	}
}

// reserve makes room for n more slots in the row counts and every column, so
// that growing to them copies nothing.
func (a *groupAcc) reserve(n int) {
	a.rows = room(a.rows, n)
	for ai := range a.cols {
		col := &a.cols[ai]
		if LaneKind(col.Kind) {
			col.Lane = room(col.Lane, n)
		} else {
			col.Vals = room(col.Vals, n)
		}
	}
}

// grow extends the accumulators to n slots, each new one empty: every lane at
// its fold's identity (a minimum's is the largest value), every value empty
// but a Paillier sum's, which starts at the product's identity. A column only ever grows, so the capacity past its
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
// returns the column's serialized size.
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
// groupMerger. Its columns are the result's form.
type taskGroups struct {
	keys groupKeys
	rows []uint64
	cols []AggCol
	// order lists the groups partitioned by reducer: bucket b's groups are
	// order[start[b]:start[b+1]]. A group-by's map tasks only.
	order []int32
	start []int32
	// remap numbers each group in the run's result, once the reducers have
	// merged them (groupSection); the driver reads it to write the identifier
	// section.
	remap []int32
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
// arithmetic: keys (an ungrouped plan's one key is implied), row counts, lanes
// and values. Values are sized by their lengths, as finishCol sizes the
// result: an OPE extreme's ciphertext, a median's collection.
func (tg *taskGroups) heldBytes(pl *Plan) int {
	n := tg.keys.len()
	total := 8 * n // row counts
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
		default:
			total += 8 * n
		}
	}
	return total
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
// this routine. Columns fold as columns (lanes add, values through foldValue).
type groupMerger struct {
	pl  *Plan
	t   slotTable
	acc groupAcc
	// The inputs and, per input group in input order, the slot it folded into:
	// how each input group is numbered in the result.
	inputs []groupSel
	dst    []int32

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
	m.acc.init(pl.Aggs)
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
// not seen before.
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
		dst[i] = slotKeyed(&m.t, key, sfx, hashKey(key, sfx))
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

// finishCols readies the slots' columns — the accumulators themselves, in
// slot order — for the result (finishCol) and totals the groups' serialized
// size, the identifier section excepted.
func (m *groupMerger) finishCols() {
	n := m.t.len()
	m.bytes = 8 * n // key + row count, roughly
	if m.t.kind != store.U64 {
		m.bytes += len(m.t.arena)
	}
	for ai := range m.acc.cols {
		m.bytes += m.pl.finishCol(ai, &m.acc.cols[ai], m.acc.rows)
	}
}

// gatherGroups writes the result columns from finished mergers whose key sets
// are disjoint: every group of every merger, concatenated — mergers in order,
// each one's groups in slot order — in no key order. A result's key order is its reader's: the client
// orders rows by plaintext key, and Result.View by ciphertext key.
func gatherGroups(ms []*groupMerger) *GroupCols {
	total, arena := 0, 0
	for _, m := range ms {
		total += m.t.len()
		arena += len(m.t.arena)
	}
	if total == 0 {
		return nil
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
	return out
}
