// Package idlist implements the identifier-list data structure that forms the
// second component of an ASHE ciphertext, together with the family of
// encodings Seabed uses to keep the lists small (§4.5, Table 3): range
// encoding, variable-byte (VB) encoding, differential encoding, Deflate
// compression, and a bitmap baseline.
//
// The default codec for aggregation, Adaptive, departs from §6.4's choice —
// ranges, VB, diff and Deflate(fast) — only for dense lists. §6.4 set bitmaps
// aside because sparse lists bloat them; but a list that selects a large
// share of its span at random is a short range every few identifiers, which
// Deflate cannot code in much under a bit an identifier, while a word bitmap
// spends exactly one. So each list travels as whichever of the two is
// smaller (docs/FORMAT.md §3.2), the per-container choice of Roaring bitmaps
// made per list.
//
// A List is a multiset of 64-bit identifiers held as ordered inclusive
// ranges. Multiset semantics matter: ASHE's homomorphic addition unions the
// identifier multisets of its operands, and decryption must add
// F(i)−F(i−1) once per occurrence of i. Ranges that merely abut ([1,5] then
// [6,9]) coalesce; ranges that overlap (genuine duplicates) are preserved.
package idlist

import "fmt"

// Range is an inclusive identifier interval [Lo, Hi].
type Range struct {
	Lo, Hi uint64
}

// Span returns the number of identifiers the range covers.
func (r Range) Span() uint64 { return r.Hi - r.Lo + 1 }

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
	l.ranges = MergeRanges(make([]Range, 0, len(l.ranges)+len(other.ranges)), l.ranges, other.ranges)
	l.n += other.n
}

// MergeRanges appends the Lo-ordered merge of two non-empty lists' range
// decompositions to dst and returns it — the body of Merge, for callers that
// keep ranges in storage of their own. Ties take a first; a range that abuts
// the one before it in the output coalesces into it. dst must not alias a or
// b.
func MergeRanges(dst, a, b []Range) []Range {
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
