package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The table image: the one encoding of a Table, from encryption to wire, WAL
// and segment. It plays the role Protobuf-over-HDFS plays in the paper's
// prototype (§6.1) and defines the "disk size" column of Table 5. A durable
// segment file is an image, and so are a WAL record's payload, the table in a
// register or append frame and a shipped WAL tail. docs/FORMAT.md §2 is the
// authoritative spec; this file is its only writer and its only parser.
//
// An image is a self-describing directory header followed by 8-aligned column
// extents in the encoding of AppendColumnExtent, so the bytes can be
// memory-mapped or received into one buffer and the vectors aliased in place.
//
// Layout (integers little-endian, fixed width):
//
//	magic "SBSG"                     4 B
//	version                          u32 (= 4)
//	headerLen                        u32 (bytes, magic through header CRC)
//	tableName                        u32 length + bytes
//	numParts                         u32
//	per partition:
//	  startID                        u64
//	  rows                           u64
//	  numCols                        u32
//	  per column:
//	    name                         u32 length + bytes
//	    kind                         u8
//	    width                        u32 (a Fixed column's value size; else 0)
//	    offset                       u64 (from the image's first byte, 8-aligned)
//	    size                         u64 (extent bytes; rows × width when Fixed)
//	    crc32                        u32 (IEEE, over the extent bytes)
//	headerCRC                        u32 (IEEE, over bytes [0, headerLen-4))
//	zero padding to 8-byte boundary, then the extents in directory order,
//	each zero-padded to 8; the image ends with the last extent's padding
//
// ParseImage checks the header CRC, that every extent sits exactly where the
// layout puts it inside the image, the width rule, that every partition has
// the first one's columns, and that the padding after the header is zero.
// Extent CRCs, and the zero padding after each extent, are checked by
// ImageExtent.Check: eagerly by DecodeImage, at first fault by a mapped
// segment's view partitions. An image that passes both is canonical:
// AppendImage re-emits it byte for byte from what DecodeImage returns, so a
// daemon that stores the bytes it was sent stores what it would have
// written. No allocation is sized from a declared count: the directory grows
// by append as its entries parse, and row counts are bounded by the bytes
// present.

const (
	imageMagic   = "SBSG"
	imageVersion = 4
	// imageMaxHeader bounds a declared header length (64 MiB is thousands of
	// partitions), protecting a parse from a corrupt prefix.
	imageMaxHeader = 64 << 20
)

// VersionError reports an image of a version this reader does not implement.
// Versions 2 and 3 are the ones a reader meets: version 3 laid its columns out
// as version 4 does, but its ASHE values were padded under the previous PRF
// encoding (docs/FORMAT.md §1.6), so it is refused, never decrypted.
type VersionError struct{ Version uint32 }

// Error names the version.
func (e *VersionError) Error() string { return fmt.Sprintf("store: unsupported version %d", e.Version) }

// ImageExtent is one column's directory entry: its layout and where its
// extent lies in the image.
type ImageExtent struct {
	ColMeta
	// Off and Size locate the extent from the image's first byte.
	Off, Size uint64
	// CRC is the CRC-32 (IEEE) of the extent bytes.
	CRC uint32
}

// ImagePart is one partition's directory entry.
type ImagePart struct {
	StartID uint64
	Rows    int
	Cols    []ImageExtent
}

// ImageDir is an image's directory: the table's name and, per partition, its
// identifiers and where each column's extent lies.
type ImageDir struct {
	Name  string
	Parts []ImagePart
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// layoutImage lays out t's image: its directory, every extent placed (offset,
// size) with its CRC still to fill in, the header's length and the image's
// size. A view partition is pinned resident while its extents are sized, one
// partition at a time, so a table larger than a residency budget lays out
// within it.
func layoutImage(t *Table) (dir ImageDir, headerLen, size uint64, err error) {
	dir = ImageDir{Name: t.Name, Parts: make([]ImagePart, len(t.Parts))}
	headerLen = uint64(4 + 4 + 4 + 4 + len(t.Name) + 4) // magic, version, headerLen, name, numParts
	for pi, p := range t.Parts {
		release, err := p.Pin(nil)
		if err != nil {
			return dir, 0, 0, fmt.Errorf("store: pin partition for its image: %w", err)
		}
		headerLen += 8 + 8 + 4 // startID, rows, numCols
		pm := ImagePart{StartID: p.StartID, Rows: p.NumRows(), Cols: make([]ImageExtent, len(p.Cols))}
		for i := range p.Cols {
			c := &p.Cols[i]
			headerLen += uint64(4+len(c.Name)) + 1 + 4 + 8 + 8 + 4 // name, kind, width, off, size, crc
			pm.Cols[i] = ImageExtent{ColMeta: c.Meta(), Size: uint64(ColumnExtentSize(c))}
		}
		release()
		dir.Parts[pi] = pm
	}
	headerLen += 4 // header CRC
	size = align8(headerLen)
	for pi := range dir.Parts {
		for i := range dir.Parts[pi].Cols {
			x := &dir.Parts[pi].Cols[i]
			x.Off = size
			size += align8(x.Size)
		}
	}
	return dir, headerLen, size, nil
}

// AppendImage appends t's image to buf and returns the extended slice: the
// one image writer. Each extent is written in place where the layout puts it
// — a U64 or Fixed column's in-memory vector is its extent and is copied
// over, Bytes/Str columns are encoded straight into the image — then
// checksummed, and the directory header, which needed the CRCs, goes in
// last at offset 0. Every padding byte is zero. Each partition is pinned
// while its extents are written. The image's extents are 8-aligned relative
// to its first byte, so a reader that receives it 8-aligned aliases its
// vectors in place.
func AppendImage(buf []byte, t *Table) ([]byte, error) {
	dir, headerLen, size, err := layoutImage(t)
	if err != nil {
		return buf, err
	}
	base := len(buf)
	buf = slices.Grow(buf, int(size))[:base+int(size)]
	img := buf[base:]
	for pi, p := range t.Parts {
		if err := writeExtents(img, p, dir.Parts[pi].Cols); err != nil {
			return buf[:base], err
		}
	}
	head := dir.appendHeader(img[:0], headerLen)
	if uint64(len(head)) != headerLen {
		return buf[:base], fmt.Errorf("store: image header sized %d, written %d", headerLen, len(head))
	}
	clear(img[headerLen:align8(headerLen)])
	return buf, nil
}

// writeExtents writes one partition's extents into img, pinned, and records
// their CRCs.
func writeExtents(img []byte, p *Partition, xs []ImageExtent) error {
	release, err := p.Pin(nil)
	if err != nil {
		return fmt.Errorf("store: pin partition for its image: %w", err)
	}
	defer release()
	for i := range xs {
		x := &xs[i]
		// The extent's room is its capacity: an extent of the laid-out
		// size is written in place, and any other size is an error.
		ext := AppendColumnExtent(img[x.Off:x.Off:x.Off+x.Size], &p.Cols[i])
		if uint64(len(ext)) != x.Size {
			return fmt.Errorf("store: column %q extent is %d bytes, sized %d", x.Name, len(ext), x.Size)
		}
		x.CRC = crc32.ChecksumIEEE(ext)
		clear(img[x.Off+x.Size : x.Off+align8(x.Size)])
	}
	return nil
}

// appendHeader appends the directory header, CRC last, to buf.
func (d *ImageDir) appendHeader(buf []byte, headerLen uint64) []byte {
	start := len(buf)
	buf = append(buf, imageMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, imageVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(headerLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Name)))
	buf = append(buf, d.Name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Parts)))
	for _, pm := range d.Parts {
		buf = binary.LittleEndian.AppendUint64(buf, pm.StartID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pm.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pm.Cols)))
		for _, x := range pm.Cols {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.Name)))
			buf = append(buf, x.Name...)
			buf = append(buf, byte(x.Kind))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x.Width))
			buf = binary.LittleEndian.AppendUint64(buf, x.Off)
			buf = binary.LittleEndian.AppendUint64(buf, x.Size)
			buf = binary.LittleEndian.AppendUint32(buf, x.CRC)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Image is one table image's bytes, as AppendImage writes them.
type Image []byte

// WriteTo writes the image to w, implementing io.WriterTo.
func (img Image) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(img)
	return int64(n), err
}

// WriteTo writes the table's image. It returns the number of bytes written.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	img, err := AppendImage(nil, t)
	if err != nil {
		return 0, err
	}
	return Image(img).WriteTo(w)
}

// DiskBytes returns the size of the table's image without emitting it (Table
// 5's "disk size").
func (t *Table) DiskBytes() uint64 {
	_, _, size, err := layoutImage(t)
	if err != nil {
		return 0
	}
	return size
}

// Read reads an image to its end and decodes it (DecodeImage). A reader that
// can write itself out (a bytes.Reader) lands in one buffer of its size.
func Read(r io.Reader) (*Table, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("store: read image: %w", err)
	}
	return DecodeImage(buf.Bytes())
}

// DecodeImage decodes an image into a table of heap partitions: every
// extent's CRC is checked, and the column vectors alias data wherever
// DecodeColumnExtent can (see colframe.go), so data must stay immutable for
// the table's lifetime. Partitions must come in identifier order, as
// Assemble requires.
func DecodeImage(data []byte) (*Table, error) {
	dir, err := ParseImage(data)
	if err != nil {
		return nil, err
	}
	parts := make([]*Partition, len(dir.Parts))
	for pi := range dir.Parts {
		pm := &dir.Parts[pi]
		p := &Partition{StartID: pm.StartID, Cols: make([]Column, len(pm.Cols))}
		for i := range pm.Cols {
			x := &pm.Cols[i]
			if err := x.Check(data); err != nil {
				return nil, err
			}
			if p.Cols[i], err = x.Decode(data, pm.Rows); err != nil {
				return nil, err
			}
		}
		parts[pi] = p
	}
	return Assemble(dir.Name, parts)
}

// DecodeImages decodes a table that arrives as a run of images — a peer's
// segments and then its WAL tail — each with DecodeImage, and joins them in
// order into one table. Each image must continue its predecessors in
// identifier order, as AppendTable requires; an empty run is an error.
func DecodeImages(imgs [][]byte) (*Table, error) {
	var t *Table
	for i, img := range imgs {
		next, err := DecodeImage(img)
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
		if t == nil {
			t = next
		} else if err := t.AppendTable(next); err != nil {
			return nil, fmt.Errorf("image %d does not continue its predecessors: %w", i, err)
		}
	}
	if t == nil {
		return nil, errors.New("store: no images")
	}
	return t, nil
}

// Check verifies the extent's CRC, and that the padding after it is zero,
// against data, the image it was parsed from.
func (x *ImageExtent) Check(data []byte) error {
	if crc32.ChecksumIEEE(data[x.Off:x.Off+x.Size]) != x.CRC {
		return fmt.Errorf("store: column %q extent checksum mismatch (bit rot?)", x.Name)
	}
	if len(bytes.TrimLeft(data[x.Off+x.Size:x.Off+align8(x.Size)], "\x00")) > 0 {
		return fmt.Errorf("store: column %q extent is followed by non-zero padding", x.Name)
	}
	return nil
}

// Decode decodes the extent's rows out of data, the image it was parsed from;
// the column aliases data as DecodeColumnExtent's does. It does not check
// the CRC.
func (x *ImageExtent) Decode(data []byte, rows int) (Column, error) {
	col, n, err := DecodeColumnExtent(x.ColMeta, rows, data[x.Off:x.Off+x.Size])
	if err != nil {
		return Column{}, err
	}
	if uint64(n) != x.Size {
		return Column{}, fmt.Errorf("store: column %q extent decoded %d of %d bytes", x.Name, n, x.Size)
	}
	return col, nil
}

// ParseImage decodes and validates an image's directory: the header CRC, each
// extent's place, the width rule and one column layout for every partition.
// It reads no extent.
func ParseImage(data []byte) (*ImageDir, error) {
	if len(data) < 12 || string(data[:4]) != imageMagic {
		return nil, errors.New("store: not an SBSG image (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != imageVersion {
		return nil, &VersionError{Version: v}
	}
	headerLen := uint64(binary.LittleEndian.Uint32(data[8:]))
	if headerLen < 20 || headerLen > imageMaxHeader || headerLen > uint64(len(data)) {
		return nil, fmt.Errorf("store: header length %d outside an image of %d bytes (truncated?)", headerLen, len(data))
	}
	head := data[:headerLen]
	if crc32.ChecksumIEEE(head[:headerLen-4]) != binary.LittleEndian.Uint32(head[headerLen-4:]) {
		return nil, errors.New("store: header checksum mismatch (torn write?)")
	}
	// The CRC vouches for everything below, but lengths are still bounded
	// against the buffer — a stale CRC over a corrupt header must not panic.
	d := imageDec{buf: head[:headerLen-4], off: 12}
	dir := &ImageDir{Name: d.str()}
	nParts := d.u32()
	size, next := uint64(len(data)), align8(headerLen)
	for p := uint32(0); p < nParts && d.err == nil; p++ {
		pm := ImagePart{StartID: d.u64()}
		rows := d.u64()
		nCols := d.u32()
		if rows > size { // any real row costs ≥ 1 byte somewhere
			return nil, fmt.Errorf("store: partition %d declares %d rows in an image of %d bytes", p, rows, size)
		}
		if nCols == 0 && rows != 0 { // no extent would hold them
			return nil, fmt.Errorf("store: partition %d declares %d rows and no columns", p, rows)
		}
		pm.Rows = int(rows)
		for c := uint32(0); c < nCols && d.err == nil; c++ {
			x := ImageExtent{ColMeta: ColMeta{Name: d.str(), Kind: Kind(d.u8()), Width: int(d.u32())}}
			x.Off, x.Size, x.CRC = d.u64(), d.u64(), d.u32()
			if d.err != nil {
				break
			}
			if x.Kind != U64 && x.Kind != Bytes && x.Kind != Str && x.Kind != Fixed {
				return nil, fmt.Errorf("store: column %q has unknown kind %d", x.Name, int(x.Kind))
			}
			if x.Off != next || x.Off > size || x.Size > size-x.Off {
				return nil, fmt.Errorf("store: column %q extent [%d,+%d) is not at offset %d inside the image's %d bytes (truncated?)",
					x.Name, x.Off, x.Size, next, size)
			}
			// The width rule, once per extent: a Fixed column's extent is
			// rows × width bytes exactly (size fits the image, so the division
			// cannot be fooled by overflow), and no other kind has a width.
			if fixed := x.Kind == Fixed; fixed != (x.Width != 0) ||
				fixed && (x.Size%uint64(x.Width) != 0 || x.Size/uint64(x.Width) != rows) {
				return nil, fmt.Errorf("store: column %q: %v extent of %d bytes for %d rows of width %d",
					x.Name, x.Kind, x.Size, rows, x.Width)
			}
			next += align8(x.Size)
			pm.Cols = append(pm.Cols, x)
		}
		if d.err == nil {
			dir.Parts = append(dir.Parts, pm)
		}
	}
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("%d header bytes after the directory", len(d.buf)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("store: %v", d.err)
	}
	if next != size {
		return nil, fmt.Errorf("store: image is %d bytes, its directory lays out %d", size, next)
	}
	if len(bytes.TrimLeft(data[headerLen:align8(headerLen)], "\x00")) > 0 {
		return nil, errors.New("store: non-zero padding after the header")
	}
	// Partitions parse independently, so a hostile image can declare a
	// different column set per partition. Every in-process constructor
	// (Build, appends, SplitRanges) produces one layout for the whole table,
	// and the engine binds plans against that shared layout once per run
	// (Partition.ColIndex) — so refuse divergent layouts here, at the trust
	// boundary, instead of letting a compiled column index read past (or into
	// the wrong) column of a later partition.
	for pi := 1; pi < len(dir.Parts); pi++ {
		ref, cols := dir.Parts[0].Cols, dir.Parts[pi].Cols
		if len(cols) != len(ref) {
			return nil, fmt.Errorf("store: partition %d has %d columns, want %d", pi, len(cols), len(ref))
		}
		for ci := range cols {
			if cols[ci].ColMeta != ref[ci].ColMeta {
				return nil, fmt.Errorf("store: partition %d column %d is %+v, want %+v", pi, ci, cols[ci].ColMeta, ref[ci].ColMeta)
			}
		}
	}
	return dir, nil
}

// imageDec is a bounds-checked little-endian cursor over header bytes that
// latches its first error.
type imageDec struct {
	buf []byte
	off int
	err error
}

func (d *imageDec) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf)-d.off < n {
		if d.err == nil {
			d.err = fmt.Errorf("truncated header field at offset %d", d.off)
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *imageDec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *imageDec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *imageDec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *imageDec) str() string {
	return string(d.take(int(d.u32())))
}
