package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"sort"

	"seabed/internal/durable"
	"seabed/internal/remote"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// Segment shipping handlers: the daemon half of fleet
// replication. A daemon answers MsgSegmentList with the CRC'd inventory of
// its tables, serves raw segment bytes for single-segment MsgSegmentFetch
// requests, and — for a fetch naming a source peer — dials that peer
// itself, pulls the table's segments plus WAL tail, verifies every CRC, and
// installs the result, so a fleet heals daemon-to-daemon without the proxy
// re-uploading anything. Durable daemons ship their on-disk files
// byte-for-byte; memory-only daemons synthesize one in-memory SBSG segment
// (wire.MemSegment) through durable.EncodeSegment.

// handleSegmentList answers a MsgSegmentList request with the manifests of
// the named table, or of every table when the ref is empty.
func (s *Server) handleSegmentList(payload []byte) (wire.MsgType, []byte) {
	ref, err := wire.DecodeSegmentListReq(payload)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	refs := []string{ref}
	if ref == "" {
		refs = s.TableRefs()
		sort.Strings(refs)
	}
	ms := make([]wire.TableManifest, 0, len(refs))
	for _, ref := range refs {
		m, err := s.shipManifest(ref)
		if err != nil {
			return wire.MsgError, wire.EncodeError(err.Error())
		}
		ms = append(ms, m)
	}
	return wire.MsgSegmentList, wire.EncodeSegmentList(ms)
}

// shipManifest inventories one table for shipping: identifier envelope plus
// the segment set a peer should fetch, in install order.
func (s *Server) shipManifest(ref string) (wire.TableManifest, error) {
	t, err := s.lookup(ref)
	if err != nil {
		return wire.TableManifest{}, err
	}
	m := wire.TableManifest{Ref: ref, Rows: t.NumRows()}
	if m.Rows > 0 {
		m.StartID = t.Parts[0].StartID
		m.EndID = t.EndID()
	} else {
		m.StartID, m.EndID = 1, 0 // the inverted empty envelope shards use
	}
	if s.durable != nil {
		segs, tail, err := s.durable.ShipManifest(ref)
		if err != nil {
			return wire.TableManifest{}, err
		}
		for _, sg := range segs {
			m.Segments = append(m.Segments, wire.SegmentInfo{Name: sg.Name, Size: uint64(sg.Size), CRC: sg.CRC})
		}
		if tail != nil {
			data, err := serializeTable(tail)
			if err != nil {
				return wire.TableManifest{}, err
			}
			m.Segments = append(m.Segments, wire.SegmentInfo{Name: wire.WALSegment, Size: uint64(len(data)), CRC: crc32.ChecksumIEEE(data)})
		}
		if len(m.Segments) > 0 {
			return m, nil
		}
		// Nothing committed and nothing pending (a just-registered empty
		// range): fall through to the synthesized in-memory segment so the
		// table — schema, envelope, emptiness and all — still ships.
	}
	data, err := durable.EncodeSegment(t)
	if err != nil {
		return wire.TableManifest{}, err
	}
	m.Segments = []wire.SegmentInfo{{Name: wire.MemSegment, Size: uint64(len(data)), CRC: crc32.ChecksumIEEE(data)}}
	return m, nil
}

// handleSegmentFetch serves one segment's bytes (empty From), or pulls and
// installs a whole table from the peer daemon named by From.
func (s *Server) handleSegmentFetch(payload []byte) (wire.MsgType, []byte) {
	ref, name, from, err := wire.DecodeSegmentFetch(payload)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	if from != "" {
		if err := s.pullTable(ref, from); err != nil {
			return wire.MsgError, wire.EncodeError(err.Error())
		}
		return wire.MsgOK, nil
	}
	data, err := s.segmentBytes(ref, name)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	s.replicaFetch.Add(uint64(len(data)))
	s.repStat(ref).shippedBytes.Add(uint64(len(data)))
	return wire.MsgSegmentData, wire.EncodeSegmentData(name, data)
}

// segmentBytes resolves one shippable segment's raw bytes: a committed file,
// the WAL-tail pseudo-segment, or a memory-only daemon's synthesized table
// segment.
func (s *Server) segmentBytes(ref, name string) ([]byte, error) {
	switch {
	case name == wire.MemSegment:
		// Memory-only daemons always ship this; durable daemons ship it for
		// tables with nothing committed and nothing pending (see shipManifest).
		t, err := s.lookup(ref)
		if err != nil {
			return nil, err
		}
		return durable.EncodeSegment(t)
	case s.durable != nil && name == wire.WALSegment:
		_, tail, err := s.durable.ShipManifest(ref)
		if err != nil {
			return nil, err
		}
		if tail == nil {
			return nil, fmt.Errorf("server: table %q has no wal tail to ship", ref)
		}
		return serializeTable(tail)
	case s.durable != nil:
		return s.durable.SegmentBytes(ref, name)
	}
	return nil, fmt.Errorf("server: memory-only daemon ships %q segments, not %q", wire.MemSegment, name)
}

// pullTable dials the peer daemon at from, pulls table ref — segment list,
// every segment's bytes (CRC-verified by the frame decoder), and the WAL
// tail — and installs the result locally: durable daemons write the raw
// files back down byte-for-byte and journal the tail (durable.InstallTable),
// memory-only daemons decode onto the heap. The table is addressable in the
// registry when pullTable returns. The pull runs synchronously on the
// requesting connection with its own background context; the requester's
// deadline bounds how long it waits, not how long the transfer runs.
func (s *Server) pullTable(ref, from string) error {
	src, err := remote.Dial(from)
	if err != nil {
		return fmt.Errorf("server: pull %q: dial source %s: %w", ref, from, err)
	}
	defer src.Close()
	ctx := context.Background()
	ms, err := src.TableManifests(ctx, ref)
	if err != nil {
		return fmt.Errorf("server: pull %q from %s: %w", ref, from, err)
	}
	if len(ms) != 1 || ms[0].Ref != ref {
		return fmt.Errorf("server: pull %q: source %s does not serve it", ref, from)
	}

	var files []durable.ShipFile
	var memTable, tail *store.Table
	var pulled uint64
	for _, si := range ms[0].Segments {
		sd, err := src.FetchSegment(ctx, ref, si.Name)
		if err != nil {
			return fmt.Errorf("server: pull %q from %s: %w", ref, from, err)
		}
		pulled += uint64(len(sd.Data))
		switch si.Name {
		case wire.WALSegment:
			if tail, err = store.Read(bytes.NewReader(sd.Data)); err != nil {
				return fmt.Errorf("server: pull %q: decode wal tail: %w", ref, err)
			}
		case wire.MemSegment:
			if memTable, err = durable.DecodeSegment(sd.Data); err != nil {
				return fmt.Errorf("server: pull %q: decode table segment: %w", ref, err)
			}
		default:
			files = append(files, durable.ShipFile{Name: sd.Name, Data: sd.Data})
		}
	}

	// Assemble and install under tableMu, like any other registry mutation.
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	var tbl *store.Table
	switch {
	case s.durable != nil && len(files) > 0:
		if tbl, err = s.durable.InstallTable(ref, files, tail); err != nil {
			return err
		}
	case s.durable != nil && memTable != nil:
		// Synthesized-segment source (memory daemon, or a durable peer with
		// nothing on disk yet): no raw files to mirror, so register the
		// decoded table durably — the local daemon journals its own copy.
		if err := s.durable.Register(ref, memTable); err != nil {
			return err
		}
		tbl = memTable
	case s.durable != nil && tail != nil:
		// WAL-only source: the whole table is its uncompacted tail.
		if err := s.durable.Register(ref, tail); err != nil {
			return err
		}
		tbl = tail
	case memTable != nil:
		tbl = memTable
	case len(files) > 0:
		for _, f := range files {
			part, err := durable.DecodeSegment(f.Data)
			if err != nil {
				return fmt.Errorf("server: pull %q: decode segment %s: %w", ref, f.Name, err)
			}
			if tbl == nil {
				tbl = part
			} else if err := tbl.AppendTable(part); err != nil {
				return fmt.Errorf("server: pull %q: segment %s does not continue its predecessors: %w", ref, f.Name, err)
			}
		}
		if tail != nil {
			if err := tbl.AppendTable(tail); err != nil {
				return fmt.Errorf("server: pull %q: wal tail does not continue the segments: %w", ref, err)
			}
		}
	case tail != nil:
		tbl = tail
	default:
		return fmt.Errorf("server: pull %q: source %s shipped no segments", ref, from)
	}
	s.mu.Lock()
	s.tables[ref] = tbl
	s.mu.Unlock()
	s.replicaFetch.Add(pulled)
	s.repStat(ref).pulledBytes.Add(pulled)
	s.log("table pulled from peer", "ref", ref, "from", from, "bytes", pulled, "segments", len(ms[0].Segments))
	return nil
}

// serializeTable renders a table to its store serialization (the WAL record
// payload format), the encoding WAL-tail pseudo-segments ship in.
func serializeTable(t *store.Table) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("server: serialize wal tail: %w", err)
	}
	return buf.Bytes(), nil
}
