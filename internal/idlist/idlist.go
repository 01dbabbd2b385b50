// Package idlist implements the identifier-list data structure that forms the
// second component of an ASHE ciphertext, together with the family of
// encodings Seabed uses to keep the lists small (§4.5, Table 3): range
// encoding, variable-byte (VB) encoding, differential encoding, Deflate
// compression, and a bitmap baseline.
//
// The default codec for aggregation, Adaptive, departs from §6.4's choice —
// ranges, VB, diff and Deflate(fast) — only for dense lists. §6.4 set bitmaps
// aside because sparse lists bloat them; but a dense random selection is a
// short range every few identifiers, which Deflate cannot code in much under
// a bit an identifier, while a word bitmap — which skips the words that hold
// none of the list's identifiers — spends one. Each list travels as whichever
// of the two is smaller (docs/FORMAT.md §3.2), the per-container choice of
// Roaring bitmaps made per list.
//
// A List is a multiset of 64-bit identifiers held as ordered inclusive
// ranges. Multiset semantics matter: ASHE's homomorphic addition unions the
// identifier multisets of its operands, and decryption must add
// F(i)−F(i−1) once per occurrence of i. Ranges that merely abut ([1,5] then
// [6,9]) coalesce; ranges that overlap (genuine duplicates) are preserved.
package idlist

import (
	"fmt"
	"math"
)

// Range is an inclusive identifier interval [Lo, Hi].
type Range struct {
	Lo, Hi uint64
}

// Span returns the number of identifiers the range covers.
func (r Range) Span() uint64 { return r.Hi - r.Lo + 1 }

// Run is a stretch of a list's identifiers, taken in list order, that one
// group holds: the next Len identifiers belong to group Group. A grouped
// result tags its one list of selected identifiers with runs instead of
// carrying a list per group (docs/FORMAT.md §3.1). Eight bytes, so a proxy
// decoding a wide group-by's runs holds half what it would at 64-bit fields;
// a result of one group has no runs, and a longer run is refused.
type Run struct {
	Len   uint32
	Group int32
}

// MaxRun is the most identifiers one Run holds.
const MaxRun = 1<<32 - 1

// Pieces walks a list's ranges and the runs over them together, a piece at a
// time: a piece is a stretch of identifiers [lo, hi] that lies in one range
// and one run, so it belongs to one group. Every run must hold at least one
// identifier, and the runs as many identifiers as the ranges; Done reports
// the end of whichever ends first. Without runs, each range is one piece of
// the group Reset names. The zero value is exhausted.
type Pieces struct {
	ranges []Range
	runs   []Run
	r, run int
	pos    uint64 // the next identifier of ranges[r]
	left   uint64 // identifiers left in runs[run]; without runs, all of them
	group  int32  // runs[run]'s group; without runs, every range's
}

// Reset starts the walk at the first piece of ranges and runs, or, with no
// runs, of ranges all in group.
func (c *Pieces) Reset(ranges []Range, runs []Run, group int32) {
	*c = Pieces{ranges: ranges, runs: runs, left: math.MaxUint64, group: group}
	if len(ranges) > 0 {
		c.pos = ranges[0].Lo
	}
	if len(runs) > 0 {
		c.left, c.group = uint64(runs[0].Len), runs[0].Group
	}
}

// Done reports whether every piece has been walked.
func (c *Pieces) Done() bool {
	return c.r >= len(c.ranges) || len(c.runs) > 0 && c.run >= len(c.runs)
}

// Piece returns the current piece and its group: from where the walk stands
// to the end of its range or of its run, whichever comes first.
func (c *Pieces) Piece() (lo, hi uint64, group int32) {
	lo, hi = c.pos, c.ranges[c.r].Hi
	if c.left-1 < hi-lo {
		hi = lo + c.left - 1
	}
	return lo, hi, c.group
}

// Next moves past the piece [lo, hi] that Piece returned.
func (c *Pieces) Next(lo, hi uint64) {
	c.left -= hi - lo + 1
	if hi == c.ranges[c.r].Hi {
		if c.r++; c.r < len(c.ranges) {
			c.pos = c.ranges[c.r].Lo
		}
	} else {
		c.pos = hi + 1
	}
	if c.left == 0 {
		if c.run++; c.run < len(c.runs) {
			c.left, c.group = uint64(c.runs[c.run].Len), c.runs[c.run].Group
		}
	}
}

// List is a multiset of identifiers stored as ranges ordered by Lo.
// The zero value is an empty list ready to use.
type List struct {
	ranges []Range
	n      uint64 // total identifier count, with multiplicity
}

// FromRange returns a list containing every identifier in [lo, hi].
func FromRange(lo, hi uint64) List {
	var l List
	l.AppendRange(lo, hi)
	return l
}

// View wraps a range decomposition as a List without copying it: the list
// aliases rs, which must not be modified while the list is in use (appending
// to the list is safe — the slice is capped, so growth reallocates). It is
// how the engine and the client carve many lists out of one backing array. It
// applies no coalescing or re-sorting, so a list survives a Ranges → View
// round trip, and an inverted range is counted with wrap-around instead of
// panicking, because callers hand it ranges decoded from an untrusted peer.
func View(rs []Range) List {
	l := List{ranges: rs[:len(rs):len(rs)]}
	for _, r := range rs {
		l.n += r.Span()
	}
	return l
}

// Append adds a single identifier. Appending ids in ascending order is the
// fast path: an id that extends the last range costs no allocation.
func (l *List) Append(id uint64) {
	l.AppendRange(id, id)
}

// AppendRange adds every identifier in [lo, hi]. It panics if lo > hi.
func (l *List) AppendRange(lo, hi uint64) {
	if lo > hi {
		panic(fmt.Sprintf("idlist: AppendRange(%d, %d): lo > hi", lo, hi))
	}
	l.n += hi - lo + 1
	if k := len(l.ranges); k > 0 {
		last := &l.ranges[k-1]
		if lo == last.Hi+1 && last.Hi != ^uint64(0) {
			last.Hi = hi
			return
		}
		if lo <= last.Hi && lo >= last.Lo && hi <= last.Hi {
			// Duplicate inside the last range: must keep as separate range to
			// preserve multiset semantics. Fall through to append.
			l.ranges = append(l.ranges, Range{lo, hi})
			return
		}
		if lo <= last.Hi {
			// Out-of-order or overlapping append; keep as-is and let Merge
			// re-sort lazily via mergeSorted when combined with others.
			l.ranges = append(l.ranges, Range{lo, hi})
			return
		}
	}
	l.ranges = append(l.ranges, Range{lo, hi})
}

// Len returns the number of identifiers in the multiset, with multiplicity.
func (l List) Len() uint64 { return l.n }

// NumRanges returns the number of stored ranges.
func (l List) NumRanges() int { return len(l.ranges) }

// Empty reports whether the list holds no identifiers.
func (l List) Empty() bool { return l.n == 0 }

// Ranges returns the underlying ranges. The slice must not be modified.
func (l List) Ranges() []Range { return l.ranges }

// Clone returns a deep copy of the list.
func (l List) Clone() List {
	c := List{n: l.n}
	if len(l.ranges) > 0 {
		c.ranges = make([]Range, len(l.ranges))
		copy(c.ranges, l.ranges)
	}
	return c
}

// Merge unions another list into l (multiset union). Both lists' ranges are
// merged in Lo order; abutting ranges coalesce, overlapping ranges are kept
// separate so duplicates survive.
func (l *List) Merge(other List) {
	if other.n == 0 {
		return
	}
	if l.n == 0 {
		*l = other.Clone()
		return
	}
	l.ranges = mergeRanges(make([]Range, 0, len(l.ranges)+len(other.ranges)), l.ranges, other.ranges)
	l.n += other.n
}

// mergeRanges appends the Lo-ordered merge of two non-empty lists' range
// decompositions to dst and returns it — the body of Merge. Ties take a first;
// a range that abuts the one before it in the output coalesces into it. dst
// must not alias a or b.
func mergeRanges(dst, a, b []Range) []Range {
	base := len(dst)
	push := func(r Range) {
		if k := len(dst); k > base {
			last := &dst[k-1]
			if r.Lo == last.Hi+1 && last.Hi != ^uint64(0) {
				last.Hi = r.Hi
				return
			}
		}
		dst = append(dst, r)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Lo <= b[j].Lo {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return dst
}

// IDs expands the list into individual identifiers, with multiplicity. It is
// intended for tests and for the VB+Diff group-by codec; expanding a list
// covering billions of identifiers will allocate accordingly.
func (l List) IDs() []uint64 {
	out := make([]uint64, 0, l.n)
	for _, r := range l.ranges {
		for id := r.Lo; ; id++ {
			out = append(out, id)
			if id == r.Hi {
				break
			}
		}
	}
	return out
}

// Equal reports whether two lists hold the same multiset in the same range
// decomposition.
func (l List) Equal(other List) bool {
	if l.n != other.n || len(l.ranges) != len(other.ranges) {
		return false
	}
	for i, r := range l.ranges {
		if other.ranges[i] != r {
			return false
		}
	}
	return true
}

// String renders the list compactly, e.g. "[2-14,19-23]".
func (l List) String() string {
	s := "["
	for i, r := range l.ranges {
		if i > 0 {
			s += ","
		}
		if r.Lo == r.Hi {
			s += fmt.Sprintf("%d", r.Lo)
		} else {
			s += fmt.Sprintf("%d-%d", r.Lo, r.Hi)
		}
	}
	return s + "]"
}
