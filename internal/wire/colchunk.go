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
// docs/FORMAT.md), so the server streams the executor's arena batches
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
//	         (no alignment: wire buffers land at arbitrary offsets anyway,
//	         and the decoder's copy fallback covers unaligned u64 extents)
//
// The decoder carves the rows out of per-chunk arenas and aliases Bytes
// values straight into the received frame — a Fixed column's are
// capacity-clipped windows of its extent — so a streamed scan's dominant
// payload (ciphertext blobs) crosses decode with zero copies.

// AppendScanChunk appends a columnar chunk for rows to buf and returns the
// extended slice. kinds is the plan's projected column kinds in Plan.Project
// order (engine.ProjectKinds). It allocates only when buf lacks capacity — a server
// streaming a large scan reuses one buffer across chunks, paying zero
// allocations per row.
func AppendScanChunk(buf []byte, rows []engine.ScanRow, kinds []store.Kind) ([]byte, error) {
	width := len(kinds)
	for i := range rows {
		r := &rows[i]
		if len(r.U64s) != width || len(r.Bytes) != width || len(r.Strs) != width {
			return nil, fmt.Errorf("wire: encode chunk: scan row %d has ragged projections (%d/%d/%d, want %d)",
				i, len(r.U64s), len(r.Bytes), len(r.Strs), width)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(width))
	for j, k := range kinds {
		buf = append(buf, byte(k))
		if k != store.Fixed {
			continue
		}
		// A Fixed column's width is its values' one length.
		w := 0
		for i := range rows {
			n := len(rows[i].Bytes[j])
			if i == 0 {
				w = n
			}
			if n != w || n == 0 {
				return nil, fmt.Errorf("wire: encode chunk: fixed-width column %d holds a %d-byte value in row %d, after %d-byte ones", j, n, i, w)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	for i := range rows {
		buf = binary.LittleEndian.AppendUint64(buf, rows[i].ID)
	}
	for j, k := range kinds {
		switch k {
		case store.U64:
			for i := range rows {
				buf = binary.LittleEndian.AppendUint64(buf, rows[i].U64s[j])
			}
		case store.Fixed:
			for i := range rows {
				buf = append(buf, rows[i].Bytes[j]...)
			}
		case store.Bytes:
			var off uint64
			buf = binary.LittleEndian.AppendUint64(buf, 0)
			for i := range rows {
				off += uint64(len(rows[i].Bytes[j]))
				buf = binary.LittleEndian.AppendUint64(buf, off)
			}
			for i := range rows {
				buf = append(buf, rows[i].Bytes[j]...)
			}
		case store.Str:
			var off uint64
			buf = binary.LittleEndian.AppendUint64(buf, 0)
			for i := range rows {
				off += uint64(len(rows[i].Strs[j]))
				buf = binary.LittleEndian.AppendUint64(buf, off)
			}
			for i := range rows {
				buf = append(buf, rows[i].Strs[j]...)
			}
		default:
			return nil, fmt.Errorf("wire: encode chunk: column %d has unknown kind %d", j, int(k))
		}
	}
	return buf, nil
}

// DecodeScanChunk parses a MsgResultChunk payload; version must be Version.
// The returned rows may alias p (Bytes values point into the frame), so the
// caller must not reuse p's backing array afterwards — ReadFrame allocates
// per frame, which satisfies this.
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
	cols := make([]store.ColMeta, width)
	perRow := uint64(8) // extent bytes a row costs at least: its id, then per column
	for j := range cols {
		cols[j] = store.ColMeta{Name: "chunk column", Kind: store.Kind(d.uint())}
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
	// One arena per value slice: rows share backing arrays, carved per row
	// below, exactly like the executor's scan arenas on the sending side.
	u64s := make([]uint64, rows*int(width))
	byts := make([][]byte, rows*int(width))
	strs := make([]string, rows*int(width))
	for j := 0; j < int(width); j++ {
		if rows == 0 && cols[j].Kind == store.Fixed {
			continue // no rows, no width, no bytes
		}
		col, n, err := store.DecodeColumnExtent(cols[j], rows, ext)
		if err != nil {
			return nil, fmt.Errorf("wire: decode scan chunk: column %d: %v", j, err)
		}
		ext = ext[n:]
		switch col.Kind {
		case store.U64:
			for i := 0; i < rows; i++ {
				u64s[i*int(width)+j] = col.U64[i]
			}
		case store.Bytes, store.Fixed:
			for i := 0; i < rows; i++ {
				byts[i*int(width)+j] = col.BytesAt(i)
			}
		case store.Str:
			for i := 0; i < rows; i++ {
				strs[i*int(width)+j] = col.Str[i]
			}
		}
	}
	if len(ext) != 0 {
		return nil, fmt.Errorf("wire: decode scan chunk: %d trailing bytes", len(ext))
	}
	out := make([]engine.ScanRow, rows)
	w := int(width)
	for i := 0; i < rows; i++ {
		out[i] = engine.ScanRow{
			ID:    ids.U64[i],
			U64s:  u64s[i*w : (i+1)*w : (i+1)*w],
			Bytes: byts[i*w : (i+1)*w : (i+1)*w],
			Strs:  strs[i*w : (i+1)*w : (i+1)*w],
		}
	}
	return out, nil
}
