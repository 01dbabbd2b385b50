// Package store implements Seabed's columnar table storage: partitioned,
// in-memory column vectors with one binary encoding, the table image
// (image.go). It plays the role HDFS + Protobuf serialization play in the
// paper's prototype (§6.1) and provides the disk/memory accounting behind
// Table 5.
//
// Tables are split into contiguous row partitions. Row identifiers are
// global, 1-based, and contiguous (partition p covers [StartID, StartID+len)),
// which is exactly the property ASHE's range encoding exploits (§4.2, §4.5):
// the identifier never needs to be materialized as a physical column.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind is the physical type of a column vector.
type Kind int

const (
	// U64 columns hold 64-bit words: plaintext integers or ASHE ciphertext
	// bodies.
	U64 Kind = iota
	// Bytes columns hold per-row byte strings of varying length: DET
	// ciphertexts of strings, Paillier ciphertexts.
	Bytes
	// Str columns hold plaintext strings (NoEnc baseline only).
	Str
	// Fixed columns hold byte strings of one constant length — DET(u64) and
	// OPE ciphertexts — as rows × Width bytes in one flat buffer: no offset
	// table on disk, no slice header per row in memory.
	Fixed
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case U64:
		return "u64"
	case Bytes:
		return "bytes"
	case Str:
		return "str"
	case Fixed:
		return "fixed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column is one column vector within a partition. Exactly one of the value
// slices is populated, matching Kind; a Fixed column also carries its Width.
type Column struct {
	Name  string
	Kind  Kind
	U64   []uint64
	Bytes [][]byte
	Str   []string
	// Fixed holds a Fixed column's values back to back: row i is
	// Fixed[i*Width : (i+1)*Width]. Width is part of the column's layout, like
	// Kind: every partition of a table carries the same one.
	Fixed []byte
	Width int
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case U64:
		return len(c.U64)
	case Bytes:
		return len(c.Bytes)
	case Fixed:
		if c.Width < 1 {
			return 0
		}
		return len(c.Fixed) / c.Width
	default:
		return len(c.Str)
	}
}

// BytesAt returns row i of a Bytes or Fixed column. A Fixed column's value is
// a capacity-clipped window of the flat buffer, so appending to it never
// writes into the next row.
func (c *Column) BytesAt(i int) []byte {
	if c.Kind == Fixed {
		lo, hi := i*c.Width, (i+1)*c.Width
		return c.Fixed[lo:hi:hi]
	}
	return c.Bytes[i]
}

// Meta returns the column's layout without its data.
func (c *Column) Meta() ColMeta { return ColMeta{Name: c.Name, Kind: c.Kind, Width: c.Width} }

// AppendRows appends o's rows to c, a column of o's kind, which takes o's
// width: how a partitioned column is flattened into one.
func (c *Column) AppendRows(o *Column) {
	c.Width = o.Width
	c.U64 = append(c.U64, o.U64...)
	c.Bytes = append(c.Bytes, o.Bytes...)
	c.Str = append(c.Str, o.Str...)
	c.Fixed = append(c.Fixed, o.Fixed...)
}

// check rejects a Fixed column whose buffer is not whole values.
func (c *Column) check() error {
	if c.Kind == Fixed && (c.Width < 1 || len(c.Fixed)%c.Width != 0) {
		return fmt.Errorf("store: column %q: %d bytes are not whole values of width %d", c.Name, len(c.Fixed), c.Width)
	}
	return nil
}

// slice returns the column restricted to rows [lo, hi).
func (c *Column) slice(lo, hi int) Column {
	out := Column{Name: c.Name, Kind: c.Kind, Width: c.Width}
	switch c.Kind {
	case U64:
		out.U64 = c.U64[lo:hi]
	case Bytes:
		out.Bytes = c.Bytes[lo:hi]
	case Fixed:
		out.Fixed = c.Fixed[lo*c.Width : hi*c.Width]
	default:
		out.Str = c.Str[lo:hi]
	}
	return out
}

// memBytes estimates the in-memory footprint of the column.
func (c *Column) memBytes() uint64 {
	var n uint64
	switch c.Kind {
	case U64:
		n = uint64(len(c.U64)) * 8
	case Bytes:
		for _, b := range c.Bytes {
			n += uint64(len(b)) + 24 // slice header
		}
	case Fixed:
		n = uint64(len(c.Fixed))
	default:
		for _, s := range c.Str {
			n += uint64(len(s)) + 16 // string header
		}
	}
	return n
}

// Partition is a contiguous horizontal slice of a table. A partition is
// either heap-resident (Cols own their vectors) or a view (Cols carry layout
// only and vectors fault in from a backing segment via Pin — see view.go).
type Partition struct {
	// StartID is the global 1-based row identifier of the partition's first
	// row.
	StartID uint64
	Cols    []Column

	// view, when non-nil, marks a lazily loaded partition: Cols' vectors may
	// be absent until pinned and may be evicted while unpinned.
	view *partView

	// dicts holds the columns' dictionaries (dict.go), replaced under dictMu.
	dictMu sync.Mutex
	dicts  atomic.Pointer[[]*Dict]
}

// NumRows returns the number of rows in the partition. For a view partition
// the count comes from the view's metadata, so it is valid even while the
// column vectors are not resident.
func (p *Partition) NumRows() int {
	if p.view != nil {
		return p.view.rows
	}
	if len(p.Cols) == 0 {
		return 0
	}
	return p.Cols[0].Len()
}

// Col returns the named column, or nil.
func (p *Partition) Col(name string) *Column {
	if i := p.ColIndex(name); i >= 0 {
		return &p.Cols[i]
	}
	return nil
}

// ColIndex returns the position of the named column in the partition's
// layout, or -1. Every partition of a table shares one layout (Build slices
// whole columns and appends validate names and kinds), so an index resolved
// against any partition addresses the same column in all of them — the
// property a compile-once query executor needs to bind names once per run
// instead of once per partition.
func (p *Partition) ColIndex(name string) int {
	for i := range p.Cols {
		if p.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// Table is a partitioned columnar table.
type Table struct {
	Name  string
	Parts []*Partition
	rows  uint64
}

// Build splits full-length columns into numParts contiguous partitions with
// global row identifiers starting at 1. All columns must have equal length;
// numParts is clamped to [1, rows] (an empty table gets one empty partition).
func Build(name string, cols []Column, numParts int) (*Table, error) {
	return BuildFrom(name, cols, numParts, 1)
}

// BuildFrom is Build with an explicit first global row identifier, used when
// appending batches to an existing table (§4.1: uploads are "a continuing
// process"). startID must be ≥ 1.
func BuildFrom(name string, cols []Column, numParts int, startID uint64) (*Table, error) {
	if startID == 0 {
		return nil, fmt.Errorf("store: row identifiers start at 1")
	}
	rows := -1
	for i := range cols {
		if err := cols[i].check(); err != nil {
			return nil, err
		}
		if rows == -1 {
			rows = cols[i].Len()
		} else if cols[i].Len() != rows {
			return nil, fmt.Errorf("store: column %q has %d rows, want %d", cols[i].Name, cols[i].Len(), rows)
		}
	}
	if rows < 0 {
		rows = 0
	}
	if numParts < 1 {
		numParts = 1
	}
	if numParts > rows && rows > 0 {
		numParts = rows
	}
	t := &Table{Name: name, rows: uint64(rows)}
	if rows == 0 {
		part := &Partition{StartID: startID}
		for i := range cols {
			part.Cols = append(part.Cols, cols[i].slice(0, 0))
		}
		t.Parts = []*Partition{part}
		return t, nil
	}
	per := rows / numParts
	extra := rows % numParts
	lo := 0
	for p := 0; p < numParts; p++ {
		n := per
		if p < extra {
			n++
		}
		hi := lo + n
		part := &Partition{StartID: startID + uint64(lo)}
		for i := range cols {
			part.Cols = append(part.Cols, cols[i].slice(lo, hi))
		}
		t.Parts = append(t.Parts, part)
		lo = hi
	}
	return t, nil
}

// AppendTable appends another table's partitions to t. The tables must have
// identical column layouts and the other table's identifiers must all come
// after t's, preserving the range-compression property (§4.2). Gaps are
// permitted — a shard table owns only its slice of each append batch, so the
// batches it receives skip the identifiers routed to other shards — but
// identifiers never rewind or overlap.
func (t *Table) AppendTable(other *Table) error {
	if err := t.appendCheck(other); err != nil {
		return err
	}
	t.Parts = append(t.Parts, other.Parts...)
	t.rows += other.rows
	return nil
}

// WithAppended returns a new table holding t's partitions followed by
// other's, leaving t untouched — copy-on-write append, so readers iterating
// t's partitions concurrently (e.g. queries in flight on a server) never see
// a mutating slice. Validation matches AppendTable.
func (t *Table) WithAppended(other *Table) (*Table, error) {
	if err := t.appendCheck(other); err != nil {
		return nil, err
	}
	grown := &Table{Name: t.Name, rows: t.rows + other.rows}
	grown.Parts = make([]*Partition, 0, len(t.Parts)+len(other.Parts))
	grown.Parts = append(grown.Parts, t.Parts...)
	grown.Parts = append(grown.Parts, other.Parts...)
	return grown, nil
}

// appendCheck validates that other's layout matches t's and that its
// identifiers come strictly after t's (contiguously for a whole table,
// possibly with gaps for a shard table).
func (t *Table) appendCheck(other *Table) error {
	tNames, oNames := t.ColNames(), other.ColNames()
	if len(tNames) != len(oNames) {
		return fmt.Errorf("store: append: column counts differ (%d vs %d)", len(tNames), len(oNames))
	}
	for i := range tNames {
		if tNames[i] != oNames[i] {
			return fmt.Errorf("store: append: column %d is %q, want %q", i, oNames[i], tNames[i])
		}
		tk, _ := t.ColKind(tNames[i])
		ok, _ := other.ColKind(oNames[i])
		if tk != ok {
			return fmt.Errorf("store: append: column %q kind mismatch (%v vs %v)", tNames[i], ok, tk)
		}
		if tw, ow := t.Parts[0].Cols[i].Width, other.Parts[0].Cols[i].Width; tw != ow {
			return fmt.Errorf("store: append: column %q holds %d-byte values, the table's are %d bytes", tNames[i], ow, tw)
		}
	}
	// Validate the batch's position even when it holds no rows: an empty
	// partition with a rewound StartID would poison EndID and let later
	// overlapping appends through.
	if len(other.Parts) > 0 && other.Parts[0].StartID < t.EndID()+1 {
		return fmt.Errorf("store: append: batch identifiers start at %d, want ≥ %d", other.Parts[0].StartID, t.EndID()+1)
	}
	return nil
}

// NumRows returns the table's total row count.
func (t *Table) NumRows() uint64 { return t.rows }

// EndID returns the global identifier of the table's last row. For a table
// whose identifiers start at 1 and run contiguously this equals NumRows; for
// a shard table holding a later identifier range (or one with gaps between
// appended batches) it is the last partition's StartID + rows − 1. An empty
// table reports StartID − 1 (or 0 with no partitions), so EndID()+1 is always
// the next acceptable append identifier.
func (t *Table) EndID() uint64 {
	if len(t.Parts) == 0 {
		return 0
	}
	last := t.Parts[len(t.Parts)-1]
	return last.StartID + uint64(last.NumRows()) - 1
}

// Envelope returns the identifiers of the table's first and last rows, or
// the inverted [1, 0] of a table with none: the identifier range a shard
// table covers, as the fleet records it and a segment listing reports it.
// Empty partitions — an empty range's placeholder, say — do not move it.
func (t *Table) Envelope() (lo, hi uint64) {
	for _, p := range t.Parts {
		if p.NumRows() > 0 {
			return p.StartID, t.EndID()
		}
	}
	return 1, 0
}

// Snapshot returns a shallow copy of the table: a fresh Parts slice holding
// the same (immutable) partitions. Appends to either the original or the
// snapshot never disturb the other, so a coordinator can hold a consistent
// view of a table whose owner keeps growing it in place.
func (t *Table) Snapshot() *Table {
	return &Table{Name: t.Name, Parts: append([]*Partition(nil), t.Parts...), rows: t.rows}
}

// Covers reports whether every identifier in [lo, hi] is present in the
// table. Partitions are ordered by StartID (appends are monotone), so one
// forward sweep suffices. It is how a server distinguishes a replayed append
// batch (its identifiers all exist already) from a misplaced one.
func (t *Table) Covers(lo, hi uint64) bool {
	if lo > hi {
		return false
	}
	next := lo
	for _, p := range t.Parts {
		n := uint64(p.NumRows())
		if n == 0 || p.StartID+n-1 < next {
			continue
		}
		if p.StartID > next {
			return false // gap at next
		}
		if p.StartID+n-1 >= hi {
			return true
		}
		next = p.StartID + n
	}
	return false
}

// SplitRanges range-partitions the table into n sub-tables by row identifier:
// sub-table i holds the i-th of n contiguous, balanced row ranges (the same
// per/extra split Build uses). Column vectors are shared with t, not copied,
// and partitions overlapping a range boundary are sliced, so the split is
// O(partitions). Every sub-table keeps its rows' global StartIDs, preserving
// ASHE's range-encoding property (§4.2) shard-locally. Ranges left empty when
// rows < n yield sub-tables with one empty partition carrying the column
// layout, positioned after the last row, so they still register and append
// cleanly. n < 1 is treated as 1.
func (t *Table) SplitRanges(n int) []*Table {
	if n < 1 {
		n = 1
	}
	rows := int(t.rows)
	per, extra := rows/n, rows%n
	out := make([]*Table, n)
	part, off := 0, 0 // cursor: partition index and row offset within it
	for i := 0; i < n; i++ {
		want := per
		if i < extra {
			want++
		}
		sub := &Table{Name: t.Name, rows: uint64(want)}
		if want == 0 {
			// Empty shard: one empty partition with the layout, placed after
			// the table's end so EndID()+1 continues the global sequence.
			empty := &Partition{StartID: t.EndID() + 1}
			if len(t.Parts) > 0 {
				for _, c := range t.Parts[0].Cols {
					empty.Cols = append(empty.Cols, c.slice(0, 0))
				}
			}
			sub.Parts = []*Partition{empty}
			out[i] = sub
			continue
		}
		for want > 0 {
			p := t.Parts[part]
			avail := p.NumRows() - off
			take := avail
			if take > want {
				take = want
			}
			sp := &Partition{StartID: p.StartID + uint64(off)}
			for j := range p.Cols {
				sp.Cols = append(sp.Cols, p.Cols[j].slice(off, off+take))
			}
			sub.Parts = append(sub.Parts, sp)
			want -= take
			off += take
			if off == p.NumRows() {
				part++
				off = 0
			}
		}
		out[i] = sub
	}
	return out
}

// ColNames returns the table's column names in declaration order.
func (t *Table) ColNames() []string {
	if len(t.Parts) == 0 {
		return nil
	}
	names := make([]string, len(t.Parts[0].Cols))
	for i := range t.Parts[0].Cols {
		names[i] = t.Parts[0].Cols[i].Name
	}
	return names
}

// HasCol reports whether the table has the named column.
func (t *Table) HasCol(name string) bool {
	return len(t.Parts) > 0 && t.Parts[0].Col(name) != nil
}

// ColKind returns the kind of the named column.
func (t *Table) ColKind(name string) (Kind, error) {
	if len(t.Parts) == 0 {
		return 0, fmt.Errorf("store: table %q is empty", t.Name)
	}
	c := t.Parts[0].Col(name)
	if c == nil {
		return 0, fmt.Errorf("store: table %q has no column %q", t.Name, name)
	}
	return c.Kind, nil
}

// MemBytes estimates the table's in-memory footprint (Table 5's "memory
// size"). View partitions contribute only their currently resident vectors,
// so a mapped table served under a residency budget reports its true heap
// pressure, not its on-disk size.
func (t *Table) MemBytes() uint64 {
	var n uint64
	for _, p := range t.Parts {
		n += p.MemBytes()
	}
	return n
}
