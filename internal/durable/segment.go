package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"seabed/internal/store"
)

// The segment format: directly-mappable column extents.
//
// A segment is a table laid out so the file IS the table: a self-describing
// header (the per-column offset table) followed by 8-aligned column extents
// in the shared encoding of store.AppendColumnExtent. Recovery maps the file
// and builds view partitions; a query faults in just the extents it touches,
// verified against their CRCs on first use. docs/FORMAT.md is the
// authoritative spec.
//
// Layout (integers little-endian, fixed width):
//
//	magic "SBSG"                     4 B
//	version                          u32 (= 3)
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
//	    offset                       u64 (absolute, 8-aligned)
//	    size                         u64 (extent bytes; rows × width when Fixed)
//	    crc32                        u32 (IEEE, over the extent bytes)
//	headerCRC                        u32 (IEEE, over bytes [0, headerLen-4))
//	padding to 8-byte boundary, then the extents, each padded to 8
//
// The header CRC is verified at open — a torn or truncated segment fails
// loudly there (segments are fsynced before their manifest commit, so unlike
// a WAL tail a tear is real corruption, not a crash artifact), as does a Fixed
// column whose extent is not rows × width bytes. Extent CRCs
// are verified lazily at first fault, so bit rot in a cold column errors the
// query that would have read it instead of being served.

const (
	segMagic   = "SBSG"
	segVersion = 3
	// segMaxHeader bounds a declared header length (64 MiB is thousands of
	// partitions), protecting open from a corrupt prefix.
	segMaxHeader = 64 << 20
)

// segColMeta is one column's directory entry in a mapped segment.
type segColMeta struct {
	store.ColMeta
	off      uint64
	size     uint64
	crc      uint32
	verified bool
}

// segPartMeta is one partition's directory entry in a mapped segment.
type segPartMeta struct {
	startID uint64
	rows    int
	cols    []segColMeta
}

// mappedSegment is an open segment: the file's bytes (memory-mapped where
// the platform supports it, read onto the heap otherwise) plus the decoded
// directory. Column extents are decoded out of data on demand by the view
// partitions built over it; data must stay immutable and mapped until close.
type mappedSegment struct {
	path   string
	data   []byte
	mapped bool
	name   string
	parts  []segPartMeta
}

// segPartLoader adapts one partition of a mapped segment to
// store.ColumnLoader. LoadColumn runs under the owning view's lock, which
// serializes access to the partition's verified flags.
type segPartLoader struct {
	seg *mappedSegment
	pi  int
}

// LoadColumn implements store.ColumnLoader: verify the extent's CRC on first
// touch, then decode it in place (the vectors alias the mapping).
func (l *segPartLoader) LoadColumn(i int) (store.Column, error) {
	pm := &l.seg.parts[l.pi]
	cm := &pm.cols[i]
	ext := l.seg.data[cm.off : cm.off+cm.size]
	if !cm.verified {
		if crc32.ChecksumIEEE(ext) != cm.crc {
			return store.Column{}, fmt.Errorf("durable: segment %s: column %q extent checksum mismatch (bit rot?)",
				filepath.Base(l.seg.path), cm.Name)
		}
		cm.verified = true
	}
	col, n, err := store.DecodeColumnExtent(cm.ColMeta, pm.rows, ext)
	if err != nil {
		return store.Column{}, fmt.Errorf("durable: segment %s: %w", filepath.Base(l.seg.path), err)
	}
	if uint64(n) != cm.size {
		return store.Column{}, fmt.Errorf("durable: segment %s: column %q extent decoded %d of %d bytes",
			filepath.Base(l.seg.path), cm.Name, n, cm.size)
	}
	return col, nil
}

// table builds the segment's table: one view partition per directory entry,
// charged against res.
func (m *mappedSegment) table(res *store.Residency) (*store.Table, error) {
	parts := make([]*store.Partition, len(m.parts))
	for pi := range m.parts {
		pm := &m.parts[pi]
		meta := make([]store.ColMeta, len(pm.cols))
		for ci, cm := range pm.cols {
			meta[ci] = cm.ColMeta
		}
		parts[pi] = store.NewViewPartition(pm.startID, pm.rows, meta, &segPartLoader{seg: m, pi: pi}, res)
	}
	return store.Assemble(m.name, parts)
}

// close releases the segment's mapping (a no-op for heap-read fallbacks).
// Any view partition still aliasing it must not be used afterwards.
func (m *mappedSegment) close() error {
	if !m.mapped {
		m.data = nil
		return nil
	}
	m.mapped = false
	data := m.data
	m.data = nil
	return munmapFile(data)
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// colPlan pairs one pinned column with its directory entry while a segment
// is being laid out.
type colPlan struct {
	col  *store.Column
	meta segColMeta
}

// segLayout is a table pinned resident and laid out as a segment: every
// column's place in the file (offset, size), the directory's length and the
// file's. CRCs are filled in as emit walks the extents.
type segLayout struct {
	t         *store.Table
	plans     [][]colPlan
	headerLen uint64
	size      uint64
	release   func() // undoes the pins; call once emission is done
}

// layoutSegment pins t resident and lays out its segment. Shared by the file
// writer and the in-memory encoder so disk bytes and shipped bytes come from
// one layout.
func layoutSegment(t *store.Table) (*segLayout, error) {
	l := &segLayout{t: t}
	var releases []func()
	l.release = func() {
		for _, r := range releases {
			r()
		}
	}
	l.headerLen = uint64(4 + 4 + 4 + 4 + len(t.Name) + 4) // magic, version, headerLen, name, numParts
	for _, p := range t.Parts {
		rel, err := p.Pin(nil)
		if err != nil {
			l.release()
			return nil, fmt.Errorf("durable: pin partition for segment: %w", err)
		}
		releases = append(releases, rel)
		l.headerLen += 8 + 8 + 4 // startID, rows, numCols
		pc := make([]colPlan, len(p.Cols))
		for i := range p.Cols {
			c := &p.Cols[i]
			l.headerLen += uint64(4+len(c.Name)) + 1 + 4 + 8 + 8 + 4 // name, kind, width, off, size, crc
			pc[i] = colPlan{col: c, meta: segColMeta{ColMeta: c.Meta(), size: uint64(store.ColumnExtentSize(c))}}
		}
		l.plans = append(l.plans, pc)
	}
	l.headerLen += 4 // header CRC
	l.size = align8(l.headerLen)
	for _, pc := range l.plans {
		for i := range pc {
			pc[i].meta.off = l.size
			l.size += align8(pc[i].meta.size)
		}
	}
	return l, nil
}

// emit hands every extent, in file order, to put — once: a U64 or Fixed
// column's in-memory vector is its extent and is checksummed and handed over
// in place, only variable Bytes/Str columns are encoded, into one reused
// buffer — and then the directory header, which needed the extents' CRCs.
func (l *segLayout) emit(put func(off uint64, b []byte) error) error {
	var scratch []byte
	for _, pc := range l.plans {
		for i := range pc {
			m := &pc[i].meta
			ext, ok := store.ExtentView(pc[i].col)
			if !ok {
				scratch = store.AppendColumnExtent(scratch[:0], pc[i].col)
				ext = scratch
			}
			if uint64(len(ext)) != m.size {
				return fmt.Errorf("durable: column %q extent is %d bytes, sized %d", m.Name, len(ext), m.size)
			}
			m.crc = crc32.ChecksumIEEE(ext)
			if err := put(m.off, ext); err != nil {
				return err
			}
		}
	}
	head := make([]byte, 0, l.headerLen)
	head = append(head, segMagic...)
	head = binary.LittleEndian.AppendUint32(head, segVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(l.headerLen))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(l.t.Name)))
	head = append(head, l.t.Name...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(l.t.Parts)))
	for pi, p := range l.t.Parts {
		head = binary.LittleEndian.AppendUint64(head, p.StartID)
		head = binary.LittleEndian.AppendUint64(head, uint64(p.NumRows()))
		head = binary.LittleEndian.AppendUint32(head, uint32(len(l.plans[pi])))
		for i := range l.plans[pi] {
			m := &l.plans[pi][i].meta
			head = binary.LittleEndian.AppendUint32(head, uint32(len(m.Name)))
			head = append(head, m.Name...)
			head = append(head, byte(m.Kind))
			head = binary.LittleEndian.AppendUint32(head, uint32(m.Width))
			head = binary.LittleEndian.AppendUint64(head, m.off)
			head = binary.LittleEndian.AppendUint64(head, m.size)
			head = binary.LittleEndian.AppendUint32(head, m.crc)
		}
	}
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	if uint64(len(head)) != l.headerLen {
		return fmt.Errorf("durable: segment header sized %d, emitted %d", l.headerLen, len(head))
	}
	return put(0, head)
}

// writeSegment durably writes t as one columnar segment: directory header,
// then each partition's column extents, 8-aligned, each with its own CRC.
// The extents go out first, in order, and the header is written over the
// hole left for it once their CRCs are known; the padding between them is
// the file's own zero fill. The file is fsynced, as is the parent directory,
// so the segment's name survives with its contents. Returns the file's size.
func writeSegment(path string, t *store.Table) (int64, error) {
	l, err := layoutSegment(t)
	if err != nil {
		return 0, err
	}
	defer l.release()
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("durable: create segment: %w", err)
	}
	fail := func(err error) (int64, error) {
		f.Close()
		return 0, fmt.Errorf("durable: write segment: %w", err)
	}
	// The last extent's padding is past every write: size the file up front.
	if err := f.Truncate(int64(l.size)); err != nil {
		return fail(err)
	}
	err = l.emit(func(off uint64, b []byte) error {
		_, err := f.WriteAt(b, int64(off))
		return err
	})
	if err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("durable: close segment: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return int64(l.size), nil
}

// openColumnarSegment maps a segment file and decodes its directory,
// validating the header CRC and every extent's bounds so a torn or truncated
// segment fails here rather than mid-query.
func openColumnarSegment(path string) (*mappedSegment, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	m := &mappedSegment{path: path, data: data, mapped: mapped}
	if err := m.parseHeader(); err != nil {
		m.close() //nolint:errcheck // already failing
		return nil, err
	}
	return m, nil
}

// parseHeader decodes and validates the segment directory.
func (m *mappedSegment) parseHeader() error {
	data := m.data
	if len(data) < 12 || string(data[:4]) != segMagic {
		return fmt.Errorf("durable: segment %s: not an SBSG segment (bad magic)", filepath.Base(m.path))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != segVersion {
		return fmt.Errorf("durable: segment %s: unsupported version %d", filepath.Base(m.path), v)
	}
	headerLen := uint64(binary.LittleEndian.Uint32(data[8:]))
	if headerLen < 20 || headerLen > segMaxHeader || headerLen > uint64(len(data)) {
		return fmt.Errorf("durable: segment %s: header length %d outside file of %d bytes (truncated?)",
			filepath.Base(m.path), headerLen, len(data))
	}
	head := data[:headerLen]
	want := binary.LittleEndian.Uint32(head[headerLen-4:])
	if crc32.ChecksumIEEE(head[:headerLen-4]) != want {
		return fmt.Errorf("durable: segment %s: header checksum mismatch (torn write?)", filepath.Base(m.path))
	}
	// The CRC vouches for everything below, but lengths are still bounded
	// against the buffer — a stale CRC over a corrupt header must not panic.
	d := segDec{buf: head[:headerLen-4], off: 12}
	m.name = d.str()
	nParts := d.u32()
	for p := uint64(0); p < uint64(nParts) && d.err == nil; p++ {
		var pm segPartMeta
		pm.startID = d.u64()
		rows := d.u64()
		nCols := d.u32()
		if rows > uint64(len(m.data)) { // any real row costs ≥ 1 byte somewhere
			d.fail("row count")
			break
		}
		pm.rows = int(rows)
		for c := uint32(0); c < nCols && d.err == nil; c++ {
			cm := segColMeta{ColMeta: store.ColMeta{Name: d.str(), Kind: store.Kind(d.u8()), Width: int(d.u32())}}
			cm.off = d.u64()
			cm.size = d.u64()
			cm.crc = d.u32()
			if d.err != nil {
				break
			}
			if cm.Kind != store.U64 && cm.Kind != store.Bytes && cm.Kind != store.Str && cm.Kind != store.Fixed {
				return fmt.Errorf("durable: segment %s: column %q has unknown kind %d",
					filepath.Base(m.path), cm.Name, int(cm.Kind))
			}
			if cm.off%8 != 0 || cm.off < headerLen || cm.off+cm.size < cm.off || cm.off+cm.size > uint64(len(m.data)) {
				return fmt.Errorf("durable: segment %s: column %q extent [%d,%d) outside file of %d bytes (truncated?)",
					filepath.Base(m.path), cm.Name, cm.off, cm.off+cm.size, len(m.data))
			}
			// The width rule, once per extent: a Fixed column's extent is
			// rows × width bytes exactly (size fits the file, so the division
			// cannot be fooled by overflow), and no other kind has a width.
			if fixed := cm.Kind == store.Fixed; fixed != (cm.Width != 0) ||
				fixed && (cm.size%uint64(cm.Width) != 0 || cm.size/uint64(cm.Width) != rows) {
				return fmt.Errorf("durable: segment %s: column %q: %v extent of %d bytes for %d rows of width %d",
					filepath.Base(m.path), cm.Name, cm.Kind, cm.size, rows, cm.Width)
			}
			pm.cols = append(pm.cols, cm)
		}
		if d.err == nil {
			m.parts = append(m.parts, pm)
		}
	}
	if d.err != nil {
		return fmt.Errorf("durable: segment %s: %v", filepath.Base(m.path), d.err)
	}
	return nil
}

// segDec is a bounds-checked little-endian cursor over the header bytes.
type segDec struct {
	buf []byte
	off int
	err error
}

func (d *segDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated header %s at offset %d", what, d.off)
	}
}

func (d *segDec) take(n int) []byte {
	if d.err != nil || len(d.buf)-d.off < n {
		d.fail("field")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *segDec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *segDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *segDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *segDec) str() string {
	n := d.u32()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// openSegment maps one SBSG segment file into lazy view partitions and
// returns its table and the bytes mapped. Anything else — a foreign file, a
// torn header — is refused with an error naming the file.
func (s *Store) openSegment(path string) (*store.Table, int64, error) {
	m, err := openColumnarSegment(path)
	if err != nil {
		return nil, 0, err
	}
	t, err := m.table(s.res)
	if err != nil {
		m.close() //nolint:errcheck // already failing
		return nil, 0, err
	}
	s.mapsMu.Lock()
	s.maps = append(s.maps, m)
	s.mapsMu.Unlock()
	return t, int64(len(m.data)), nil
}
