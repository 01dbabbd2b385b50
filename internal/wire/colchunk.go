package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"seabed/internal/engine"
	"seabed/internal/store"
)

// Columnar scan chunks: a MsgResultChunk in the same column-extent
// encoding durable segments use (store.AppendColumnExtent, specified in
// docs/FORMAT.md), so the server streams the executor's column chunks
// column-at-a-time instead of re-encoding them row-major. Layout:
//
//	rows     uvarint
//	width    uvarint (projected columns)
//	kinds    per column its store.Kind, one byte (the receiver cannot infer
//	         a column's kind from row cells, which are ambiguous when empty),
//	         and after a Fixed kind the column's value width, uvarint — 0 only
//	         in a chunk of no rows, which has no value to take it from
//	ids      row-identifier extent: rows × 8 bytes little-endian
//	extents  one store column extent per projected column, in order, packed
//	         (no alignment: after the header's few bytes the u64 extents,
//	         the ids included, seldom start 8-aligned in the frame, and the
//	         decoder copies each such extent to its vector in one block)
//
// The decoder decodes each extent once into one engine.ScanChunk that
// aliases the frame — Bytes and Str values point into it, a Fixed column is
// its extent — and hands out cursors into that chunk, so a streamed scan's
// dominant payload (ciphertext blobs) crosses decode with zero copies.

// AppendScanChunk appends a columnar chunk for rows to buf and returns the
// extended slice. kinds is the plan's projected column kinds in Plan.Project
// order (engine.ProjectKinds). The rows may span chunks: each chunk's width,
// kinds and Fixed widths are checked once, and each column is gathered through
// the rows' cursors. It allocates only when buf lacks capacity — a server
// streaming a large scan reuses one buffer, paying zero allocations per row.
func AppendScanChunk(buf []byte, rows []engine.ScanRow, kinds []store.Kind) ([]byte, error) {
	width := len(kinds)
	var first, last *engine.ScanChunk
	for i := range rows {
		ch := rows[i].Chunk()
		if i > 0 && ch == last {
			continue
		}
		if rows[i].Width() != width {
			return nil, fmt.Errorf("wire: encode chunk: scan row %d has %d columns, want %d", i, rows[i].Width(), width)
		}
		if i == 0 {
			first = ch
		}
		for j, k := range kinds {
			c := &ch.Cols[j]
			if c.Kind != k {
				return nil, fmt.Errorf("wire: encode chunk: column %d of scan row %d is %v, want %v", j, i, c.Kind, k)
			}
			if k == store.Fixed && (c.Width < 1 || c.Width != first.Cols[j].Width) {
				return nil, fmt.Errorf("wire: encode chunk: fixed-width column %d is %d bytes wide in row %d, %d in row 0", j, c.Width, i, first.Cols[j].Width)
			}
		}
		last = ch
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(width))
	for j, k := range kinds {
		buf = append(buf, byte(k))
		if k == store.Fixed {
			w := 0
			if len(rows) > 0 {
				w = first.Cols[j].Width
			}
			buf = binary.AppendUvarint(buf, uint64(w))
		}
	}
	for i := range rows {
		buf = binary.LittleEndian.AppendUint64(buf, rows[i].ID)
	}
	for j, k := range kinds {
		switch k {
		case store.U64:
			for i := range rows {
				buf = binary.LittleEndian.AppendUint64(buf, rows[i].U64(j))
			}
		case store.Fixed:
			for i := range rows {
				buf = append(buf, rows[i].Bytes(j)...)
			}
		case store.Bytes, store.Str:
			// The other kind's accessor reads empty: a cell is its Bytes and its Str.
			var off uint64
			buf = binary.LittleEndian.AppendUint64(buf, 0)
			for i := range rows {
				off += uint64(len(rows[i].Bytes(j)) + len(rows[i].Str(j)))
				buf = binary.LittleEndian.AppendUint64(buf, off)
			}
			for i := range rows {
				buf = append(append(buf, rows[i].Bytes(j)...), rows[i].Str(j)...)
			}
		default:
			return nil, fmt.Errorf("wire: encode chunk: column %d has unknown kind %d", j, int(k))
		}
	}
	return buf, nil
}

// DecodeScanChunk parses a MsgResultChunk payload; version must be Version.
// The returned rows are cursors into one chunk that aliases p (Bytes values
// point into the frame), so the caller must not reuse p's backing array
// afterwards — ReadFrame allocates per frame, which satisfies this.
func DecodeScanChunk(p []byte, version uint64) ([]engine.ScanRow, error) {
	if err := checkVersion(version, "decode scan chunk"); err != nil {
		return nil, err
	}
	d := newDec(p)
	nRows := d.uint()
	width := d.uint()
	// Bounds before any allocation: each row costs ≥ 8 id bytes, each column
	// ≥ 1 kind byte now and its share of every row later (perRow, below).
	if !d.checkCount(nRows, 8, "scan rows") || !d.checkCount(width, 1, "scan columns") {
		return nil, d.close("scan chunk")
	}
	cols := make([]store.Column, width)
	perRow := uint64(8) // extent bytes a row costs at least: its id, then per column
	for j := range cols {
		cols[j] = store.Column{Name: "chunk column", Kind: store.Kind(d.uint())}
		switch k := cols[j].Kind; {
		case d.err != nil:
		case k == store.Fixed:
			w := d.uint()
			if d.err == nil && (w > math.MaxInt32 || (w == 0) != (nRows == 0)) {
				return nil, fmt.Errorf("wire: decode scan chunk: fixed-width column %d: %d rows of width %d", j, nRows, w)
			}
			cols[j].Width = int(w)
			perRow += w
		case k != store.U64 && k != store.Bytes && k != store.Str:
			return nil, fmt.Errorf("wire: decode scan chunk: column %d has unknown kind %d", j, int(k))
		default:
			perRow += 8 // a word, or an offset-table entry
		}
	}
	if d.err != nil {
		return nil, d.close("scan chunk")
	}
	ext := d.buf[d.off:]
	if nRows > 0 && perRow > uint64(len(ext))/nRows {
		return nil, fmt.Errorf("wire: decode scan chunk: %d columns × %d rows exceed %d payload bytes", width, nRows, len(ext))
	}
	rows := int(nRows)
	ids, n, err := store.DecodeColumnExtent(store.ColMeta{Name: "ids", Kind: store.U64}, rows, ext)
	if err != nil {
		return nil, fmt.Errorf("wire: decode scan chunk: %v", err)
	}
	ext = ext[n:]
	for j := range cols {
		if rows == 0 && cols[j].Kind == store.Fixed {
			continue // no rows, no width, no bytes
		}
		if cols[j], n, err = store.DecodeColumnExtent(cols[j].Meta(), rows, ext); err != nil {
			return nil, fmt.Errorf("wire: decode scan chunk: column %d: %v", j, err)
		}
		ext = ext[n:]
	}
	if len(ext) != 0 {
		return nil, fmt.Errorf("wire: decode scan chunk: %d trailing bytes", len(ext))
	}
	return (&engine.ScanChunk{IDs: ids.U64, Cols: cols}).Rows(), nil
}
