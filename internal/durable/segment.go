package durable

import (
	"fmt"
	"os"
	"path/filepath"

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

// writeSegment durably writes t's image as one segment file. The extents go
// out first, in order, and the header is written over the hole left for it
// once their CRCs are known; the padding between them is the file's own zero
// fill. The file is fsynced, as is the parent directory, so the segment's
// name survives with its contents. Returns the file's size.
func writeSegment(path string, t *store.Table) (int64, error) {
	l, err := store.LayoutImage(t)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("durable: create segment: %w", err)
	}
	fail := func(err error) (int64, error) {
		f.Close()
		return 0, fmt.Errorf("durable: write segment: %w", err)
	}
	// The last extent's padding is past every write: size the file up front.
	if err := f.Truncate(l.Size()); err != nil {
		return fail(err)
	}
	if err := l.Emit(func(off int64, b []byte) error {
		_, err := f.WriteAt(b, off)
		return err
	}); err != nil {
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
	return l.Size(), nil
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
