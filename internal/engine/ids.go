package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"seabed/internal/idlist"
)

// This file holds a result's identifier section (docs/FORMAT.md §3.1). Every
// ASHE sum of a plan aggregates the same rows, so a result carries their
// identifiers once, for all of them: the selected identifiers as one list,
// ascending, encoded with the plan's codec, and — when the result has more
// than one group — runs over that list, in its order, each a length and the
// group that holds those identifiers. §4.5 notes that a group's rows are
// scattered, so range encoding buys a list per group nothing; one list of the
// selection keeps whatever ranges the filter left, and a run costs a byte or
// three.
//
// A daemon builds its section in the order rows already arrive. Each map task
// keeps its survivors' identifiers as ranges and, in a group-by, each
// survivor's slot in the task's table (or a lane group-by's, its lane); once
// the reducers have numbered the result's groups, the driver walks the tasks
// in partition order through those numbers (sectionWriter). The coordinator's merge and DeflateGroups keep each
// input's section encoded, as a part with the map from its tags to the merged
// groups (IDPart.Remap); client.Decrypt decodes each part once and sweeps the
// PRF over all of them.

// IDPart is one identifier section: what one run wrote, or, in a merged
// result, one input's section with its groups renumbered. Decoded from a frame
// its List and Runs alias the frame.
type IDPart struct {
	// Selected counts the identifiers List holds, which its runs add up to.
	Selected uint64
	// List is the selected identifiers, ascending, encoded with the holding
	// columns' codec (GroupCols.Codec).
	List []byte
	// Runs is the runs over List's identifiers, in list order, packed one
	// word each (appendRun) — a run of up to three identifiers costs its tag's
	// bits and two more, two bytes for 16,384 groups and one for 24. Empty
	// when Groups is 1: the one run is all of Selected.
	Runs []byte
	// Groups is the number of tags: the group count of the result that wrote
	// the part.
	Groups int
	// Remap maps a tag to its group in the holding columns; nil when the tags
	// are those groups.
	Remap []int32
	// tagged is Runs decoded by DecodeRuns, one idlist.Run a packed run with
	// its tag as Group; nil until then.
	tagged []idlist.Run
}

// tagBits is the number of low bits a packed run of a part of groups groups
// spends on its tag.
func tagBits(groups int) uint { return uint(bits.Len(uint(max(groups, 1) - 1))) }

// runWord is the width in bytes of a packed run's word: its tag's bits and
// two for its length.
func runWord(bits uint) int { return int(bits+2+7) / 8 }

// appendRun packs the run of n ≥ 1 identifiers tagged tag onto dst: one word
// of runWord(bits) bytes, little-endian, holding the tag in its low bits and
// above them c = min(n, 4) − 1; when c is 3 a uvarint of n − 4 follows. A
// run's size depends on its length and the part's group count, never on its
// tag, so a result is the same number of bytes however its groups are
// numbered.
func appendRun(dst []byte, n uint64, tag int, bits uint) []byte {
	w := uint64(tag) | (min(n, 4)-1)<<bits
	for i := range runWord(bits) {
		dst = append(dst, byte(w>>(8*i)))
	}
	if n >= 4 {
		dst = binary.AppendUvarint(dst, n-4)
	}
	return dst
}

// DecodeRuns checks the part's runs and keeps them decoded, one idlist.Run a
// packed run with its tag as Group, for Tags to hand out, so that no reader
// walks the packed runs again: every run's tag is below Groups, and together
// they hold exactly Selected identifiers (a run holds at least one: the
// packing has no way to say none). It refuses a run longer than
// idlist.MaxRun, so what it keeps is bounded by the bytes it reads; a part of
// one group has no runs, its identifiers all WholeGroup's. Remap is the
// caller's to check against the holding columns (GroupCols.CheckPlan).
func (p *IDPart) DecodeRuns() error {
	runs, err := p.walkRuns(nil)
	if err == nil {
		p.tagged = runs
	}
	return err
}

// Tags returns the part's runs, each with its tag as Group — Remap is the
// reader's to apply: the runs DecodeRuns kept, or else the packed runs
// decoded onto *scratch after DecodeRuns' checks, which is then grown.
func (p *IDPart) Tags(scratch *[]idlist.Run) ([]idlist.Run, error) {
	if p.tagged != nil {
		return p.tagged, nil
	}
	from := len(*scratch)
	runs, err := p.walkRuns(*scratch)
	if err != nil {
		return nil, err
	}
	*scratch = runs
	return runs[from:len(runs):len(runs)], nil
}

// DecodeList appends the part's list, decoded with codec, to ranges after
// checking it: no range ends below its start, and together the ranges hold
// exactly Selected identifiers. It reports whether the list ascends without
// overlapping, as every run writes it. Any further check of the identifiers
// is the caller's.
func (p *IDPart) DecodeList(codec idlist.Codec, ranges []idlist.Range) (_ []idlist.Range, ascending bool, err error) {
	from := len(ranges)
	ranges, err = codec.AppendDecode(ranges, p.List)
	if err != nil {
		return ranges, false, fmt.Errorf("engine: decode id list: %v", err)
	}
	held, ascending := uint64(0), true
	for i, r := range ranges[from:] {
		if r.Lo > r.Hi || r.Span() > p.Selected-held {
			return ranges, false, fmt.Errorf("engine: identifier section part lists more than its %d identifiers (malformed or hostile result)", p.Selected)
		}
		held += r.Span()
		ascending = ascending && (i == 0 || r.Lo > ranges[from+i-1].Hi)
	}
	if held != p.Selected {
		return ranges, false, fmt.Errorf("engine: identifier section part lists %d of its %d identifiers (malformed or hostile result)", held, p.Selected)
	}
	return ranges, ascending, nil
}

// WholeGroup is the group in the holding columns that a part of one group,
// which has no runs, hands all its identifiers to.
func (p *IDPart) WholeGroup() int32 { return int32(p.group(0)) }

// walkRuns checks the part's packed runs and appends them to dst, tagged. A
// run's word is read with one 8-byte load while eight bytes remain, and a run
// of fewer than four identifiers — a wide group-by's every run, nearly — is
// checked against the count left and nothing else.
func (p *IDPart) walkRuns(dst []idlist.Run) ([]idlist.Run, error) {
	if p.Groups <= 1 {
		if len(p.Runs) > 0 {
			return nil, fmt.Errorf("engine: identifier section of one group carries runs (malformed or hostile result)")
		}
		return dst, nil
	}
	groups, shift := p.Groups, tagBits(p.Groups)
	width, mask, left := runWord(shift), uint64(1)<<shift-1, p.Selected
	wordMask := uint64(1)<<(8*width) - 1
	dst = slices.Grow(dst, len(p.Runs)/width) // a run takes a word at least
	for b, i := p.Runs, 0; i < len(b); {
		var w uint64
		switch {
		case len(b)-i >= 8:
			w = binary.LittleEndian.Uint64(b[i:]) & wordMask
		case len(b)-i >= width:
			for j := range width {
				w |= uint64(b[i+j]) << (8 * j)
			}
		default:
			return nil, fmt.Errorf("engine: identifier section: run cut short (malformed or hostile result)")
		}
		i += width
		code, tag := w>>shift, int(w&mask)
		if code > 3 || tag >= groups {
			return nil, fmt.Errorf("engine: identifier section: run word %#x: tag %d of %d groups, length code %d (malformed or hostile result)", w, tag, groups, code)
		}
		n := code + 1
		if code == 3 {
			v, m := binary.Uvarint(b[i:])
			if m <= 0 {
				return nil, fmt.Errorf("engine: identifier section: run cut short (malformed or hostile result)")
			}
			i += m
			if v > left || left-v < 4 {
				return nil, fmt.Errorf("engine: identifier section: runs hold more than the %d identifiers selected (malformed or hostile result)", p.Selected)
			}
			if n = v + 4; n > idlist.MaxRun {
				return nil, fmt.Errorf("engine: identifier section: a run of %d identifiers, more than %d (malformed or hostile result)", n, uint64(idlist.MaxRun))
			}
		}
		if n > left {
			return nil, fmt.Errorf("engine: identifier section: runs hold more than the %d identifiers selected (malformed or hostile result)", p.Selected)
		}
		left -= n
		dst = append(dst, idlist.Run{Len: uint32(n), Group: int32(tag)})
	}
	if left > 0 {
		return nil, fmt.Errorf("engine: identifier section: runs hold %d of the %d identifiers selected (malformed or hostile result)", p.Selected-left, p.Selected)
	}
	return dst, nil
}

// group is tag's group in the holding columns.
func (p *IDPart) group(tag int) int {
	if p.Remap == nil {
		return tag
	}
	return int(p.Remap[tag])
}

// checkParts verifies what indexing the holding columns' n groups through a
// part takes: a part without Remap has exactly n tags, and a Remap maps each
// of a part's tags to one of the n groups.
func checkParts(parts []IDPart, n int) error {
	for i := range parts {
		p := &parts[i]
		switch {
		case p.Remap == nil && p.Groups != n:
			return fmt.Errorf("engine: identifier section part %d tags %d groups of %d (malformed or hostile result)", i, p.Groups, n)
		case p.Remap != nil && len(p.Remap) != p.Groups:
			return fmt.Errorf("engine: identifier section part %d maps %d of its %d tags", i, len(p.Remap), p.Groups)
		}
		for _, g := range p.Remap {
			if g < 0 || int(g) >= n {
				return fmt.Errorf("engine: identifier section part %d maps a tag to group %d of %d", i, g, n)
			}
		}
	}
	return nil
}

// remapParts returns parts renumbered into a merge's groups: dst maps each of
// the holding columns' groups to its merged group.
func remapParts(parts []IDPart, dst []int32) []IDPart {
	out := make([]IDPart, len(parts))
	for i, p := range parts {
		remap := make([]int32, p.Groups)
		for tag := range remap {
			remap[tag] = dst[p.group(tag)]
		}
		p.Remap = remap
		out[i] = p
	}
	return out
}

// sectionWriter builds a run's identifier section from its map tasks'
// survivors, added in identifier order: the selected identifiers as ranges,
// coalesced where tasks meet, and for a grouped run the packed runs of their
// groups.
type sectionWriter struct {
	ranges []idlist.Range
	runs   []byte
	groups int
	bits   uint
	n      uint64
	// The open run: its length and group.
	run uint64
	tag int32
}

func newSectionWriter(groups, ranges int) *sectionWriter {
	return &sectionWriter{ranges: make([]idlist.Range, 0, ranges), groups: groups, bits: tagBits(groups)}
}

// add appends one task's survivors: their identifiers, ascending and above
// every identifier added before, and for a grouped run each survivor's group
// in the result, in the same order.
func (w *sectionWriter) add(ids []idlist.Range, groups []int32) {
	for _, r := range ids {
		w.n += r.Span()
		if k := len(w.ranges); k > 0 && r.Lo == w.ranges[k-1].Hi+1 && w.ranges[k-1].Hi != ^uint64(0) {
			w.ranges[k-1].Hi = r.Hi
			continue
		}
		w.ranges = append(w.ranges, r)
	}
	if w.groups <= 1 {
		return
	}
	for _, g := range groups {
		if g == w.tag && w.run > 0 && w.run < idlist.MaxRun { // a longer stretch is several runs
			w.run++
			continue
		}
		if w.run > 0 {
			w.runs = appendRun(w.runs, w.run, int(w.tag), w.bits)
		}
		w.run, w.tag = 1, g
	}
}

// finish encodes the list with codec and closes the last run.
func (w *sectionWriter) finish(codec idlist.Codec) (IDPart, error) {
	if w.run > 0 {
		w.runs = appendRun(w.runs, w.run, int(w.tag), w.bits)
	}
	list, err := codec.AppendEncode(nil, idlist.View(w.ranges))
	if err != nil {
		return IDPart{}, fmt.Errorf("engine: encode the identifier list: %v", err)
	}
	return IDPart{Selected: w.n, List: list, Runs: w.runs, Groups: w.groups}, nil
}

// appendSel appends a batch's survivors' identifiers to ids: each run of
// consecutive identifiers as one range, extending the last range when it
// abuts it.
func appendSel(ids []idlist.Range, startID uint64, sel []int32) []idlist.Range {
	if len(sel) == 0 {
		return ids
	}
	lo := startID + uint64(sel[0])
	hi := lo
	for _, i := range sel[1:] {
		if id := startID + uint64(i); id != hi+1 || hi == ^uint64(0) {
			ids = appendRange(ids, lo, hi)
			lo, hi = id, id
		} else {
			hi = id
		}
	}
	return appendRange(ids, lo, hi)
}

// appendRange appends the identifiers lo..hi to ids, ascending: it extends the
// last range when the run abuts it.
func appendRange(ids []idlist.Range, lo, hi uint64) []idlist.Range {
	if k := len(ids); k > 0 && lo == ids[k-1].Hi+1 && ids[k-1].Hi != ^uint64(0) {
		ids[k-1].Hi = hi
		return ids
	}
	return append(room(ids, 1), idlist.Range{Lo: lo, Hi: hi})
}

// groupLists rebuilds one identifier list per group from the columns' section
// for the row view: each part decoded with the columns' codec and cut along
// its runs into pieces, the pieces gathered by group (parts in order, each
// part's in list order) and put in identifier order where parts of a merged
// result interleave, abutting ones coalesced, and every group's list encoded
// with the codec into one block. It reports false, and builds nothing, when
// there is no codec or a part does not decode or cover its list exactly.
func (c *GroupCols) groupLists() (lists [][]byte, ok bool) {
	n := c.Len()
	if c.Codec == nil || checkParts(c.IDs, n) != nil {
		return nil, false
	}
	type piece struct {
		g      int
		lo, hi uint64
	}
	var pieces []piece
	var ranges []idlist.Range
	var scratch []idlist.Run
	for pi := range c.IDs {
		p := &c.IDs[pi]
		var err error
		if ranges, _, err = p.DecodeList(c.Codec, ranges[:0]); err != nil {
			return nil, false
		}
		scratch = scratch[:0]
		runs, err := p.Tags(&scratch)
		if err != nil {
			return nil, false
		}
		var walk idlist.Pieces
		for walk.Reset(ranges, runs, p.WholeGroup()); !walk.Done(); {
			lo, hi, g := walk.Piece()
			if len(runs) > 0 {
				g = int32(p.group(int(g)))
			}
			pieces = append(pieces, piece{int(g), lo, hi})
			walk.Next(lo, hi)
		}
	}
	// Gather the pieces by group with one counting sort.
	start := make([]int, n+1)
	for _, pc := range pieces {
		start[pc.g+1]++
	}
	for g := range n {
		start[g+1] += start[g]
	}
	byGroup := make([]idlist.Range, len(pieces))
	next := slices.Clone(start[:n])
	for _, pc := range pieces {
		byGroup[next[pc.g]] = idlist.Range{Lo: pc.lo, Hi: pc.hi}
		next[pc.g]++
	}
	off := make([]int, n+1)
	var block []byte
	var list []idlist.Range
	for g := range n {
		rs := byGroup[start[g]:start[g+1]]
		if !slices.IsSortedFunc(rs, func(a, b idlist.Range) int { return cmp.Compare(a.Lo, b.Lo) }) {
			slices.SortStableFunc(rs, func(a, b idlist.Range) int { return cmp.Compare(a.Lo, b.Lo) })
		}
		list = list[:0]
		for _, r := range rs {
			list = appendRange(list, r.Lo, r.Hi)
		}
		var err error
		if block, err = c.Codec.AppendEncode(block, idlist.View(list)); err != nil {
			return nil, false
		}
		off[g+1] = len(block)
	}
	lists = make([][]byte, n)
	for g := range lists {
		lists[g] = block[off[g]:off[g+1]:off[g+1]]
	}
	return lists, true
}

// groupSection writes a grouped run's identifier section: every map task's
// survivors, in partition order, each under its group's number in the
// gathered columns, which number the reducers' groups bucket by bucket, each
// reducer's in slot order (gatherGroups). A task finds its groups' numbers
// where the reducers merged them (taskGroups.remap, filled here from each
// merge's dst). mergers is reduceGroups', in bucket order. A lane group-by's tags
// are lanes, which byLane numbers (gatherCoded); it has no mergers.
func groupSection(results []*mapResult, mergers []*groupMerger, byLane []int32, groups int, codec idlist.Codec) (IDPart, error) {
	// Runs are at most one a survivor, each one word when survivors seldom
	// share a run with their neighbours; one group writes none.
	ranges, survivors := 0, 0
	for _, r := range results {
		ranges += len(r.ids)
		survivors += len(r.tags)
		if byLane == nil {
			r.groups.remap = make([]int32, r.groups.keys.len())
		}
	}
	at := int32(0)
	for _, mg := range mergers {
		k := 0
		for _, in := range mg.inputs {
			for i := range in.len() {
				in.set.remap[in.at(i)] = at + mg.dst[k]
				k++
			}
		}
		at += int32(mg.t.len())
	}
	w := newSectionWriter(groups, ranges)
	if groups > 1 {
		w.runs = make([]byte, 0, survivors*runWord(w.bits))
	}
	for _, r := range results {
		tags, number := r.tags, byLane
		if number == nil {
			number = r.groups.remap
		}
		for k, s := range tags {
			tags[k] = number[s]
		}
		w.add(r.ids, tags)
	}
	return w.finish(codec)
}
