package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"seabed/internal/remote"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// Segment shipping handlers: the daemon half of fleet replication. A daemon
// answers MsgSegmentList with an inventory of its tables — refs, rows and
// identifier envelopes — and, for one named table, the pieces a pull
// fetches, each with its size and CRC. It serves one piece's bytes for a
// MsgSegmentFetch, and for a fetch naming a source peer it pulls the table
// from that peer itself and installs it, so a fleet heals daemon-to-daemon
// without the proxy re-uploading anything. Every piece is a table image: a
// durable daemon ships its committed segment files as they lie on disk and
// its WAL tail (wire.WALSegment) as an image built in memory; a memory-only
// daemon ships the whole table as one image (wire.MemSegment). The puller
// takes them all as images, whatever their names.

// handleSegmentList answers a MsgSegmentList request. A named table's
// manifest lists the pieces a pull fetches; the empty ref's answer lists
// every table's ref, rows and envelope without pieces — an inventory, which
// reads no table bytes.
func (s *Server) handleSegmentList(payload []byte) (wire.MsgType, []byte) {
	ref, err := wire.DecodeSegmentListReq(payload)
	if err != nil {
		return wire.MsgError, wire.EncodeError(err.Error())
	}
	if ref != "" {
		m, err := s.shipManifest(ref)
		if err != nil {
			return wire.MsgError, wire.EncodeError(err.Error())
		}
		return wire.MsgSegmentList, wire.EncodeSegmentList([]wire.TableManifest{m})
	}
	s.mu.RLock()
	ms := make([]wire.TableManifest, 0, len(s.tables))
	for ref, t := range s.tables {
		ms = append(ms, inventory(ref, t))
	}
	s.mu.RUnlock()
	slices.SortFunc(ms, func(a, b wire.TableManifest) int { return cmp.Compare(a.Ref, b.Ref) })
	return wire.MsgSegmentList, wire.EncodeSegmentList(ms)
}

// inventory is t's manifest without pieces: its ref, rows and identifier
// envelope.
func inventory(ref string, t *store.Table) wire.TableManifest {
	m := wire.TableManifest{Ref: ref, Rows: t.NumRows()}
	m.StartID, m.EndID = t.Envelope()
	return m
}

// shipManifest inventories one table with the pieces a pull fetches, in
// install order: a durable table's committed segments and then its WAL tail,
// if any rows are pending; a memory-only daemon's whole table as one image.
// The registry's table and the durable cut are taken together under tableMu,
// which keeps appends out, so the pieces hold the rows the inventory counts;
// the bytes are read and checksummed after it is released.
func (s *Server) shipManifest(ref string) (wire.TableManifest, error) {
	s.tableMu.Lock()
	t, err := s.lookup(ref)
	var segs []string
	tail, tailName := t, wire.MemSegment
	if err == nil && s.durable != nil {
		tailName = wire.WALSegment
		segs, tail, err = s.durable.ShipManifest(ref)
	}
	s.tableMu.Unlock()
	if err != nil {
		return wire.TableManifest{}, err
	}
	m := inventory(ref, t)
	piece := func(name string, data []byte) {
		m.Segments = append(m.Segments, wire.SegmentInfo{Name: name, Size: uint64(len(data)), CRC: crc32.ChecksumIEEE(data)})
	}
	for _, name := range segs {
		data, err := s.durable.SegmentBytes(ref, name)
		if err != nil {
			return wire.TableManifest{}, err
		}
		piece(name, data)
	}
	if tail != nil {
		data, err := store.AppendImage(nil, tail)
		if err != nil {
			return wire.TableManifest{}, err
		}
		piece(tailName, data)
	}
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

// segmentBytes resolves one listed piece's bytes: a memory-only daemon's
// table image, or a durable daemon's WAL-tail image or committed segment
// file.
func (s *Server) segmentBytes(ref, name string) ([]byte, error) {
	switch {
	case s.durable == nil && name == wire.MemSegment:
		t, err := s.lookup(ref)
		if err != nil {
			return nil, err
		}
		return store.AppendImage(nil, t)
	case s.durable == nil:
		return nil, fmt.Errorf("server: memory-only daemon ships %q segments, not %q", wire.MemSegment, name)
	case name == wire.WALSegment:
		_, tail, err := s.durable.ShipManifest(ref)
		if err != nil {
			return nil, err
		}
		if tail == nil {
			return nil, fmt.Errorf("server: table %q has no wal tail to ship", ref)
		}
		return store.AppendImage(nil, tail)
	}
	return s.durable.SegmentBytes(ref, name)
}

// PullError is a refused pull of table Ref from the peer daemon at From: the
// peer could not be reached or does not serve Ref, a piece's size or CRC is
// not the listed one, the pieces are not images of one table, or that
// table's rows or envelope are not the listed ones. Nothing was installed.
type PullError struct {
	// Ref is the table pulled, From the peer's address.
	Ref, From string
	// Err is why the pull was refused.
	Err error
}

// Error names the ref and the peer.
func (e *PullError) Error() string {
	return fmt.Sprintf("server: pull %q from %s: %v", e.Ref, e.From, e.Err)
}

// Unwrap returns why the pull was refused.
func (e *PullError) Unwrap() error { return e.Err }

// pullTable pulls table ref from the peer daemon at from and installs it. It
// fetches ref's listing and then every listed piece in order, whatever its
// name, refusing one whose size or CRC is not the listed one. The pieces are
// images, and they must assemble in identifier order into a table holding the
// listed rows and envelope (store.DecodeImages, run once) before anything is
// installed: a durable daemon checks them inside durable.InstallTable, which
// then commits them as fresh segments of its own and serves the table
// mapped; a memory-only daemon keeps the decoded table. The table is
// addressable in the registry when pullTable returns; any failure is a
// *PullError. The pull runs synchronously on the requesting connection with
// its own background context; the requester's deadline bounds how long it
// waits, not how long the transfer runs.
func (s *Server) pullTable(ref, from string) (err error) {
	defer func() {
		if err != nil {
			err = &PullError{Ref: ref, From: from, Err: err}
		}
	}()
	src, err := remote.Dial(from)
	if err != nil {
		return fmt.Errorf("dial source: %w", err)
	}
	defer src.Close()
	ctx := context.Background()
	ms, err := src.TableManifests(ctx, ref)
	if err != nil {
		return err
	}
	if len(ms) != 1 || ms[0].Ref != ref {
		return errors.New("source does not serve it")
	}
	m := ms[0]
	imgs := make([][]byte, len(m.Segments))
	var pulled uint64
	for i, si := range m.Segments {
		sd, err := src.FetchSegment(ctx, ref, si.Name)
		if err != nil {
			return err
		}
		if size, crc := uint64(len(sd.Data)), crc32.ChecksumIEEE(sd.Data); size != si.Size || crc != si.CRC {
			return fmt.Errorf("piece %q is %d bytes with CRC %08x, listed as %d bytes with CRC %08x", si.Name, size, crc, si.Size, si.CRC)
		}
		imgs[i] = sd.Data
		pulled += si.Size
	}
	listed := func(tbl *store.Table) error {
		if got := inventory(ref, tbl); got.Rows != m.Rows || got.StartID != m.StartID || got.EndID != m.EndID {
			return fmt.Errorf("its pieces hold %d rows in [%d, %d], listed as %d rows in [%d, %d]",
				got.Rows, got.StartID, got.EndID, m.Rows, m.StartID, m.EndID)
		}
		return nil
	}

	// Assemble, check and install under tableMu, like any other registry
	// mutation; a durable install checks before it writes a byte.
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	var tbl *store.Table
	if s.durable != nil {
		tbl, err = s.durable.InstallTable(ref, imgs, listed)
	} else if tbl, err = store.DecodeImages(imgs); err == nil {
		err = listed(tbl)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.tables[ref] = tbl
	s.mu.Unlock()
	s.replicaFetch.Add(pulled)
	s.repStat(ref).pulledBytes.Add(pulled)
	s.log("table pulled from peer", "ref", ref, "from", from, "bytes", pulled, "segments", len(imgs))
	return nil
}
