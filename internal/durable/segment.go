package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"seabed/internal/store"
)

// Segments: a committed segment file is its table's image (store's one table
// encoding, docs/FORMAT.md §2) written once and never rewritten. Recovery maps
// the file and builds view partitions over it; a query faults in just the
// extents it touches, verified against their CRCs on first use.
//
// The image's directory is parsed and checked at open — a torn or truncated
// segment fails loudly there (segments are fsynced before their manifest
// commit, so unlike a WAL tail a tear is real corruption, not a crash
// artifact), as does a Fixed column whose extent is not rows × width bytes.
// Extent CRCs are verified lazily at first fault, so bit rot in a cold column
// errors the query that would have read it instead of being served.

// mappedSegment is an open segment: the image's bytes, memory-mapped where
// the platform supports it, read onto the heap otherwise. Column extents are
// decoded out of data on demand by the view partitions built over it; data
// must stay immutable and mapped until close.
type mappedSegment struct {
	path   string
	data   []byte
	mapped bool
}

// errorf names the segment's file in err.
func (m *mappedSegment) errorf(err error) error {
	return fmt.Errorf("durable: segment %s: %w", filepath.Base(m.path), err)
}

// segPartLoader adapts one partition of a mapped segment to
// store.ColumnLoader. LoadColumn runs under the owning view's lock, which
// serializes access to verified.
type segPartLoader struct {
	seg      *mappedSegment
	part     *store.ImagePart
	verified []bool
}

// LoadColumn implements store.ColumnLoader: verify the extent's CRC on first
// touch, then decode it in place (the vectors alias the mapping).
func (l *segPartLoader) LoadColumn(i int) (store.Column, error) {
	x := &l.part.Cols[i]
	if !l.verified[i] {
		if err := x.Check(l.seg.data); err != nil {
			return store.Column{}, l.seg.errorf(err)
		}
		l.verified[i] = true
	}
	col, err := x.Decode(l.seg.data, l.part.Rows)
	if err != nil {
		return store.Column{}, l.seg.errorf(err)
	}
	return col, nil
}

// open parses the segment's directory and builds its table: one view
// partition per directory entry, charged against res.
func (m *mappedSegment) open(res *store.Residency) (*store.Table, error) {
	dir, err := store.ParseImage(m.data)
	if err != nil {
		return nil, m.errorf(err)
	}
	parts := make([]*store.Partition, len(dir.Parts))
	for pi := range dir.Parts {
		pm := &dir.Parts[pi]
		meta := make([]store.ColMeta, len(pm.Cols))
		for ci := range pm.Cols {
			meta[ci] = pm.Cols[ci].ColMeta
		}
		loader := &segPartLoader{seg: m, part: pm, verified: make([]bool, len(meta))}
		parts[pi] = store.NewViewPartition(pm.StartID, pm.Rows, meta, loader, res)
	}
	return store.Assemble(dir.Name, parts)
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

// commitSegments is the one segment writer, for registers, compactions and
// installs: it writes imgs verbatim as the table's next segment files, syncs
// the table's directory, and commits the manifest naming keep followed by
// them. st.mu is held. A failure before the commit leaves orphans for Open.
func (s *Store) commitSegments(ref string, st *tableState, keep []string, imgs [][]byte) error {
	tdir := filepath.Join(s.opts.Dir, st.id)
	segments := slices.Clone(keep)
	for i, img := range imgs {
		name := segName(st.nextSeq + i)
		if err := writeFile(filepath.Join(tdir, name), img); err != nil {
			return fmt.Errorf("durable: write segment %s: %w", name, err)
		}
		segments = append(segments, name)
	}
	if err := syncDir(tdir); err != nil {
		return err
	}
	if err := s.commitTable(st.id, ref, segments); err != nil {
		return err
	}
	st.nextSeq += len(imgs)
	st.segments = segments
	return nil
}

// writeChunk bounds each write of a segment file. The page cache sizes its
// folios by the writes that fill them and a mapping faults in whole folios,
// so a segment written in one piece makes megabytes resident at a cold
// column's first touch (on Linux 6.18 ext4, 50 MB against 19 MB on scan_cold).
const writeChunk = 64 << 10

// writeFile durably writes data to path: create, write in writeChunk pieces,
// fsync, close.
func writeFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n := min(len(data), writeChunk)
		if _, err := f.Write(data[:n]); err != nil {
			f.Close()
			return err
		}
		data = data[n:]
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openSegment maps one segment file into lazy view partitions and returns its
// table and the bytes mapped. Anything but an image — a foreign file, a torn
// header — is refused with an error naming the file.
func (s *Store) openSegment(path string) (*store.Table, int64, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, 0, err
	}
	m := &mappedSegment{path: path, data: data, mapped: mapped}
	t, err := m.open(s.res)
	if err != nil {
		m.close() //nolint:errcheck // already failing
		return nil, 0, err
	}
	s.mapsMu.Lock()
	s.maps = append(s.maps, m)
	s.mapsMu.Unlock()
	return t, int64(len(m.data)), nil
}
