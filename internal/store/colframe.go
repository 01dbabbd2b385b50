package store

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Column extents: the one column-major encoding Seabed uses from disk to
// wire. A table image (image.go) stores each column of each partition as one
// extent (8-aligned so a segment file can be memory-mapped, or a frame
// received, and the vectors aliased in place), and a MsgResultChunk carries
// each projected column of a scan batch as one extent (packed, no alignment —
// the receiving buffer decides). docs/FORMAT.md is the authoritative spec;
// this file is its implementation.
//
// Extent layouts, by column kind (all integers little-endian, fixed width —
// no varints, so an extent can be consumed without a sequential scan):
//
//	U64:       rows × 8-byte words.
//	Fixed:     rows × width bytes, the values back to back. The width is not
//	           in the extent: the container carries it beside the kind (the
//	           image's column directory, the scan chunk header), and an
//	           extent whose size is not rows × width is refused whole — there
//	           is no per-value length to check.
//	Bytes/Str: (rows+1) × 8-byte offsets into the blob heap that follows,
//	           with off[0] == 0 and off[rows] == total blob bytes; row i's
//	           value is heap[off[i]:off[i+1]]. Offsets are relative to the
//	           heap base (the byte after the offset array).
//
// Decoding aliases rather than copies wherever the platform allows: a U64
// extent that is 8-byte-aligned on a little-endian host becomes the []uint64
// vector itself (an unaligned one is copied to a new vector in one block), a
// Fixed extent always is the column's buffer (O(1), no allocation, at any
// alignment), and Bytes/Str rows alias the blob heap. The
// caller therefore must keep the backing buffer immutable and alive for as
// long as the decoded column is reachable — exactly the contract a read-only
// mmap or a received wire frame satisfies.

// hostLittleEndian reports whether this machine can alias little-endian
// extents in place. Every supported Go platform today is little-endian; the
// check keeps the copy fallback honest rather than theoretical.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// ColumnExtentSize returns the exact encoded size of c's extent.
func ColumnExtentSize(c *Column) int {
	switch c.Kind {
	case U64:
		return 8 * len(c.U64)
	case Fixed:
		return len(c.Fixed)
	case Bytes:
		n := 8 * (len(c.Bytes) + 1)
		for _, b := range c.Bytes {
			n += len(b)
		}
		return n
	default:
		n := 8 * (len(c.Str) + 1)
		for _, s := range c.Str {
			n += len(s)
		}
		return n
	}
}

// ExtentView returns c's extent without encoding anything when the in-memory
// vector already is the encoding — a Fixed column's buffer, a U64 column's
// words on a little-endian host — and false otherwise. The bytes alias the
// column: read them (checksum, write out), never append to them.
func ExtentView(c *Column) ([]byte, bool) {
	switch {
	case c.Kind == Fixed:
		return c.Fixed, true
	case c.Kind == U64 && hostLittleEndian:
		if len(c.U64) == 0 {
			return nil, true
		}
		return unsafe.Slice((*byte)(unsafe.Pointer(&c.U64[0])), 8*len(c.U64)), true
	}
	return nil, false
}

// AppendColumnExtent appends c's extent encoding to buf and returns the
// extended slice. It allocates only when buf lacks capacity, so an encoder
// reusing its buffer appends whole columns without per-row allocations.
func AppendColumnExtent(buf []byte, c *Column) []byte {
	if raw, ok := ExtentView(c); ok {
		return append(buf, raw...)
	}
	switch c.Kind {
	case U64:
		for _, v := range c.U64 {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		return buf
	case Bytes:
		off := uint64(0)
		buf = binary.LittleEndian.AppendUint64(buf, 0)
		for _, b := range c.Bytes {
			off += uint64(len(b))
			buf = binary.LittleEndian.AppendUint64(buf, off)
		}
		for _, b := range c.Bytes {
			buf = append(buf, b...)
		}
		return buf
	default:
		off := uint64(0)
		buf = binary.LittleEndian.AppendUint64(buf, 0)
		for _, s := range c.Str {
			off += uint64(len(s))
			buf = binary.LittleEndian.AppendUint64(buf, off)
		}
		for _, s := range c.Str {
			buf = append(buf, s...)
		}
		return buf
	}
}

// aligned8 reports whether b's first byte sits on an 8-byte boundary.
func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// DecodeColumnExtent decodes one extent of the given layout and row count
// from the front of data, returning the column vectors and the bytes
// consumed. The returned column aliases data wherever possible (see the
// package comment above for the immutability contract); lengths and offsets
// are validated against len(data), never trusted, so a truncated or hostile
// buffer yields an error rather than an out-of-bounds vector.
func DecodeColumnExtent(m ColMeta, rows int, data []byte) (Column, int, error) {
	name, kind := m.Name, m.Kind
	c := Column{Name: name, Kind: kind}
	if rows < 0 {
		return c, 0, fmt.Errorf("store: extent %q: negative row count", name)
	}
	if fixed := kind == Fixed; fixed && m.Width < 1 || !fixed && m.Width != 0 {
		return c, 0, fmt.Errorf("store: extent %q: %v column with value width %d", name, kind, m.Width)
	}
	switch kind {
	case Fixed:
		// Compared by division: rows*width overflows for a hostile pair.
		if rows > len(data)/m.Width {
			return c, 0, fmt.Errorf("store: extent %q: %d bytes for %d values of width %d", name, len(data), rows, m.Width)
		}
		need := rows * m.Width
		c.Width, c.Fixed = m.Width, data[:need:need]
		return c, need, nil
	case U64:
		// Compared by division: 8*rows overflows for a hostile row count.
		if rows > len(data)/8 {
			return c, 0, fmt.Errorf("store: extent %q: %d bytes for %d u64 rows", name, len(data), rows)
		}
		need := 8 * rows
		if rows == 0 {
			c.U64 = []uint64{}
			return c, 0, nil
		}
		switch {
		case hostLittleEndian && aligned8(data):
			c.U64 = unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), rows)
		case hostLittleEndian: // one block copy, not a load and a store a value
			c.U64 = make([]uint64, rows)
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&c.U64[0])), need), data)
		default:
			c.U64 = make([]uint64, rows)
			for i := range c.U64 {
				c.U64[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
		}
		return c, need, nil
	case Bytes, Str:
		if rows >= len(data)/8 {
			return c, 0, fmt.Errorf("store: extent %q: %d bytes for %d offset entries", name, len(data), uint64(rows)+1)
		}
		offBytes := 8 * (rows + 1)
		heap := data[offBytes:]
		prev := binary.LittleEndian.Uint64(data)
		if prev != 0 {
			return c, 0, fmt.Errorf("store: extent %q: first offset %d, want 0", name, prev)
		}
		if kind == Bytes {
			c.Bytes = make([][]byte, rows)
		} else {
			c.Str = make([]string, rows)
		}
		for i := 0; i < rows; i++ {
			next := binary.LittleEndian.Uint64(data[8*(i+1):])
			if next < prev || next > uint64(len(heap)) {
				return c, 0, fmt.Errorf("store: extent %q: offset %d out of order or past heap (%d after %d, heap %d)",
					name, i+1, next, prev, len(heap))
			}
			blob := heap[prev:next]
			if kind == Bytes {
				if len(blob) > 0 {
					c.Bytes[i] = blob
				}
			} else if len(blob) > 0 {
				// Alias the heap as a string: the backing buffer is immutable
				// by the decode contract, which is what makes this safe.
				c.Str[i] = unsafe.String(&blob[0], len(blob))
			}
			prev = next
		}
		return c, offBytes + int(prev), nil
	}
	return c, 0, fmt.Errorf("store: extent %q: unknown kind %d", name, int(kind))
}

// AppendBlobExtent appends a Bytes/Str extent whose rows the caller holds
// flat — row i is heap[off[i]:off[i+1]], with off[0] == 0 and len(off) ==
// rows+1 — and returns the extended slice: the bytes AppendColumnExtent writes
// for the same rows, without a slice header per row.
func AppendBlobExtent(buf []byte, off []uint64, heap []byte) []byte {
	buf = AppendColumnExtent(buf, &Column{Kind: U64, U64: off})
	return append(buf, heap[:off[len(off)-1]]...)
}

// DecodeBlobExtent decodes a Bytes/Str extent of the given row count from the
// front of data and keeps it flat: the rows+1 offsets (aliasing data when it
// is aligned, copied otherwise, as a U64 extent's words are) and the heap they
// index, which always aliases data. The offsets are validated as
// DecodeColumnExtent validates them — first zero, never decreasing, none past
// the bytes present — so every heap[off[i]:off[i+1]] is in bounds.
func DecodeBlobExtent(name string, rows int, data []byte) (off []uint64, heap []byte, n int, err error) {
	if rows < 0 || rows >= len(data)/8 {
		return nil, nil, 0, fmt.Errorf("store: extent %q: %d bytes for %d offset entries", name, len(data), uint64(rows)+1)
	}
	col, n, err := DecodeColumnExtent(ColMeta{Name: name, Kind: U64}, rows+1, data)
	if err != nil {
		return nil, nil, 0, err
	}
	off, heap = col.U64, data[n:]
	if off[0] != 0 {
		return nil, nil, 0, fmt.Errorf("store: extent %q: first offset %d, want 0", name, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] || off[i] > uint64(len(heap)) {
			return nil, nil, 0, fmt.Errorf("store: extent %q: offset %d out of order or past heap (%d after %d, heap %d)",
				name, i, off[i], off[i-1], len(heap))
		}
	}
	return off, heap[:off[rows]], n + int(off[rows]), nil
}
