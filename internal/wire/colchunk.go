package wire

import (
	"encoding/binary"
	"fmt"

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
//	kinds    width bytes (store.Kind per column — the receiver cannot infer
//	         a column's kind from row cells, which are ambiguous when empty)
//	ids      row-identifier extent: rows × 8 bytes little-endian
//	extents  one store column extent per projected column, in order, packed
//	         (no alignment: wire buffers land at arbitrary offsets anyway,
//	         and the decoder's copy fallback covers unaligned u64 extents)
//
// The decoder carves the rows out of per-chunk arenas and aliases Bytes
// values straight into the received frame, so a streamed scan's dominant
// payload (ciphertext blobs) crosses decode with zero copies.

// AppendScanChunk appends a columnar chunk for rows to buf and returns the
// extended slice. kinds is the plan's projected column kinds in Plan.Project
// order (engine.ProjectKinds). It allocates only when buf lacks capacity — a server
// streaming a large scan reuses one buffer across chunks, paying zero
// allocations per row.
func AppendScanChunk(buf []byte, rows []engine.ScanRow, kinds []store.Kind) ([]byte, error) {
	width := len(kinds)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(width))
	for _, k := range kinds {
		buf = append(buf, byte(k))
	}
	for i := range rows {
		r := &rows[i]
		if len(r.U64s) != width || len(r.Bytes) != width || len(r.Strs) != width {
			return nil, fmt.Errorf("wire: encode chunk: scan row %d has ragged projections (%d/%d/%d, want %d)",
				i, len(r.U64s), len(r.Bytes), len(r.Strs), width)
		}
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	}
	for j, k := range kinds {
		switch k {
		case store.U64:
			for i := range rows {
				buf = binary.LittleEndian.AppendUint64(buf, rows[i].U64s[j])
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
	// ≥ 1 kind byte now and ≥ 8·rows extent bytes later.
	if !d.checkCount(nRows, 8, "scan rows") || !d.checkCount(width, 1, "scan columns") {
		return nil, d.close("scan chunk")
	}
	kinds := make([]store.Kind, width)
	for j := range kinds {
		k := store.Kind(d.uint())
		if d.err == nil && k != store.U64 && k != store.Bytes && k != store.Str {
			return nil, fmt.Errorf("wire: decode scan chunk: column %d has unknown kind %d", j, int(k))
		}
		kinds[j] = k
	}
	if d.err != nil {
		return nil, d.close("scan chunk")
	}
	ext := d.buf[d.off:]
	if nRows > 0 && width > uint64(len(ext))/(8*nRows) {
		return nil, fmt.Errorf("wire: decode scan chunk: %d columns × %d rows exceed %d payload bytes", width, nRows, len(ext))
	}
	rows := int(nRows)
	ids, n, err := store.DecodeColumnExtent("ids", store.U64, rows, ext)
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
		col, n, err := store.DecodeColumnExtent("chunk column", kinds[j], rows, ext)
		if err != nil {
			return nil, fmt.Errorf("wire: decode scan chunk: column %d: %v", j, err)
		}
		ext = ext[n:]
		switch kinds[j] {
		case store.U64:
			for i := 0; i < rows; i++ {
				u64s[i*int(width)+j] = col.U64[i]
			}
		case store.Bytes:
			for i := 0; i < rows; i++ {
				byts[i*int(width)+j] = col.Bytes[i]
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
