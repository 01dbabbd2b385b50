package durable

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"seabed/internal/store"
)

// Segment shipping: the daemon-to-daemon replication surface.
//
// A table's durable bytes are already replication-ready — immutable,
// CRC'd SBSG files plus a WAL tail — so shipping a table to a peer is a
// file transfer, not a re-encode: ShipManifest inventories the committed
// segments and snapshots the uncompacted tail, SegmentBytes serves one
// segment's raw file bytes, and InstallTable on the receiving daemon writes
// the verified bytes back down byte-for-byte (same names, same CRCs) and
// journals the tail, so a healed shard's directory is a faithful replica of
// its source. Memory-only daemons join the same protocol through
// EncodeSegment/DecodeSegment, which run the columnar codec against a
// byte slice instead of a file.

// ShipSegment describes one shippable committed segment: file name, size,
// and CRC-32 (IEEE) over the whole file.
type ShipSegment struct {
	// Name is the segment's file name (seg-NNNNNN.seg).
	Name string
	// Size is the file's byte length.
	Size int64
	// CRC is the CRC-32 (IEEE) of the file bytes.
	CRC uint32
}

// ShipFile is one incoming segment for InstallTable: a file name and the
// verified raw bytes to write under it.
type ShipFile struct {
	// Name is the segment file name to install (seg-NNNNNN.seg).
	Name string
	// Data holds the raw file bytes.
	Data []byte
}

// EncodeSegment encodes t as one columnar segment in memory: the exact
// bytes writeSegment would put in a file. It is how a memory-only daemon
// ships a table to a peer.
func EncodeSegment(t *store.Table) ([]byte, error) {
	l, err := layoutSegment(t)
	if err != nil {
		return nil, err
	}
	defer l.release()
	buf := make([]byte, l.size)
	err = l.emit(func(off uint64, b []byte) error {
		copy(buf[off:], b)
		return nil
	})
	return buf, err
}

// DecodeSegment opens columnar segment bytes without a file: the
// directory header is validated (CRC included) and the table is built as
// lazy view partitions aliasing data, whose column extents are CRC-verified
// on first touch. data must stay immutable for the table's lifetime.
func DecodeSegment(data []byte) (*store.Table, error) {
	m := &mappedSegment{path: "(shipped segment)", data: data}
	if err := m.parseHeader(); err != nil {
		return nil, err
	}
	return m.table(store.NewResidency(0))
}

// ShipManifest inventories ref for segment shipping: the committed segment
// files in install order (name, size, whole-file CRC) plus a snapshot of the
// uncompacted WAL tail (nil when the WAL holds nothing). The file reads run
// under the table lock, so the manifest is a consistent cut even against
// concurrent appends and compactions.
func (s *Store) ShipManifest(ref string) ([]ShipSegment, *store.Table, error) {
	st, err := s.stateFor(ref, false)
	if err != nil {
		return nil, nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tdir := filepath.Join(s.opts.Dir, st.id)
	segs := make([]ShipSegment, 0, len(st.segments))
	for _, name := range st.segments {
		data, err := os.ReadFile(filepath.Join(tdir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: read segment for shipping: %w", err)
		}
		segs = append(segs, ShipSegment{Name: name, Size: int64(len(data)), CRC: crc32.ChecksumIEEE(data)})
	}
	var tail *store.Table
	if st.pending != nil && st.pending.NumRows() > 0 {
		tail = st.pending.Snapshot()
	}
	return segs, tail, nil
}

// SegmentBytes serves one committed segment's raw file bytes for shipping.
// The name must be in ref's live segment set.
func (s *Store) SegmentBytes(ref, name string) ([]byte, error) {
	st, err := s.stateFor(ref, false)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, seg := range st.segments {
		if seg == name {
			data, err := os.ReadFile(filepath.Join(s.opts.Dir, st.id, name))
			if err != nil {
				return nil, fmt.Errorf("durable: read segment for shipping: %w", err)
			}
			return data, nil
		}
	}
	return nil, fmt.Errorf("durable: table %q has no live segment %q", ref, name)
}

// InstallTable installs a shipped table: each incoming segment's raw bytes
// are written under its original name (fsynced), the manifest commits the
// set, and the WAL tail — the source's uncompacted rows — is journaled on
// top, so the installed directory round-trips the source's CRC-for-CRC.
// The assembled table (segments + tail), ready for the server registry, is
// returned. To keep the committed-segments-are-immutable invariant, install
// targets must be fresh: a ref that already has committed segments is
// rejected rather than overwritten in place.
func (s *Store) InstallTable(ref string, files []ShipFile, tail *store.Table) (*store.Table, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("durable: install of %q ships no segments", ref)
	}
	names := make([]string, len(files))
	for i, f := range files {
		var n int
		if _, err := fmt.Sscanf(f.Name, "seg-%06d.seg", &n); err != nil || segName(n) != f.Name {
			return nil, fmt.Errorf("durable: install of %q: segment name %q is not a seg-NNNNNN.seg file", ref, f.Name)
		}
		names[i] = f.Name
	}
	st, err := s.stateFor(ref, true)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.segments) > 0 {
		return nil, fmt.Errorf("durable: table %q already has committed segments; install targets must be fresh", ref)
	}
	tdir := filepath.Join(s.opts.Dir, st.id)
	if st.wal == nil {
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return nil, fmt.Errorf("durable: create table dir: %w", err)
		}
		w, err := openWAL(filepath.Join(tdir, walName))
		if err != nil {
			return nil, err
		}
		w.obsFsync = s.mFsync
		st.wal = w
	}
	for _, f := range files {
		if err := writeRawFile(filepath.Join(tdir, f.Name), f.Data); err != nil {
			return nil, fmt.Errorf("durable: install segment %s: %w", f.Name, err)
		}
	}
	if err := syncDir(tdir); err != nil {
		return nil, err
	}
	if err := s.commitTable(st.id, ref, names); err != nil {
		return nil, err
	}
	st.segments = names
	st.nextSeq = nextSegSeq(names)
	st.pending = nil

	// Assemble the installed table the same way recovery would.
	var tbl *store.Table
	for _, name := range names {
		part, _, err := s.openSegment(filepath.Join(tdir, name))
		if err != nil {
			return nil, fmt.Errorf("durable: open installed segment %s: %w", name, err)
		}
		if tbl == nil {
			tbl = part
		} else if err := tbl.AppendTable(part); err != nil {
			return nil, fmt.Errorf("durable: installed segment %s does not continue its predecessors: %w", name, err)
		}
	}
	st.endID = tbl.EndID()
	if tail != nil && tail.NumRows() > 0 {
		var buf bytes.Buffer
		if _, err := tail.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("durable: serialize shipped wal tail: %w", err)
		}
		if err := st.wal.append(buf.Bytes(), true, s.opts.BatchBytes); err != nil {
			return nil, err
		}
		if err := tbl.AppendTable(tail); err != nil {
			return nil, fmt.Errorf("durable: shipped wal tail does not continue the segments: %w", err)
		}
		st.pending = tail.Snapshot()
		st.endID = tail.EndID()
	}
	return tbl, nil
}

// writeRawFile durably writes data to path: create, write, fsync, close.
func writeRawFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
