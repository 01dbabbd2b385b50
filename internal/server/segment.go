package server

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"slices"

	"seabed/internal/remote"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// Segment shipping handlers: the daemon half of fleet replication. A daemon
// answers MsgSegmentList with an inventory of its tables — refs, rows and
// identifier envelopes. It answers a MsgSegmentFetch for one table with the
// table's images, one MsgSegmentData frame each, and then the table's
// inventory entry; for a fetch naming a source peer it fetches the table
// from that peer itself and installs it, so a fleet heals daemon-to-daemon
// without the proxy re-uploading anything. A durable daemon ships its
// committed segment files as they lie on disk and its WAL tail as the one
// image durable.Shipment joins it into; a memory-only daemon ships the whole
// table as one image.

// handleSegmentList answers a MsgSegmentList request, which is empty, with
// every table's ref, rows and envelope, sorted by ref — an inventory, which
// reads no table bytes.
func (s *Server) handleSegmentList(payload []byte) (wire.MsgType, []byte) {
	if len(payload) > 0 {
		return wire.MsgError, wire.EncodeError(fmt.Sprintf("server: segment-list request of %d bytes, want none", len(payload)))
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

// inventory is t's inventory entry: its ref, rows and identifier envelope.
func inventory(ref string, t *store.Table) wire.TableManifest {
	m := wire.TableManifest{Ref: ref, Rows: t.NumRows()}
	m.StartID, m.EndID = t.Envelope()
	return m
}

// handleSegmentFetch ships a table's images to w and answers its inventory
// entry (empty From), or pulls and installs the table from the peer daemon
// named by From.
func (s *Server) handleSegmentFetch(w io.Writer, payload []byte) (wire.MsgType, []byte) {
	ref, from, err := wire.DecodeSegmentFetch(payload)
	switch {
	case err != nil:
	case from != "":
		if err = s.pullTable(ref, from); err == nil {
			return wire.MsgOK, nil
		}
	default:
		var m wire.TableManifest
		if m, err = s.shipTable(w, ref); err == nil {
			return wire.MsgSegmentList, wire.EncodeSegmentList([]wire.TableManifest{m})
		}
	}
	return wire.MsgError, wire.EncodeError(err.Error())
}

// shipTable writes table ref's images to w, one MsgSegmentData frame each,
// in install order — a durable table's committed segment files and then its
// WAL tail's image, if any rows are journaled; a memory-only daemon's whole
// table as one image — and returns the table's inventory entry. The
// registry's table and the durable cut are taken together under tableMu,
// which keeps appends out, so the images hold the rows the entry counts. The
// WAL tail's image is joined inside the cut; each file is read, or a
// memory-only daemon's image built, once, after it is released.
func (s *Server) shipTable(w io.Writer, ref string) (wire.TableManifest, error) {
	s.tableMu.Lock()
	t, err := s.lookup(ref)
	var paths []string
	var tail store.Image
	if err == nil && s.durable != nil {
		paths, tail, err = s.durable.Shipment(ref)
	}
	s.tableMu.Unlock()
	if err == nil && s.durable == nil {
		tail, err = store.AppendImage(nil, t)
	}
	if err != nil {
		return wire.TableManifest{}, err
	}
	var shipped uint64
	send := func(img []byte, err error) error {
		if err != nil {
			return err
		}
		shipped += uint64(len(img))
		s.bytesOut.Add(uint64(len(img)) + 5)
		return wire.WriteFrame(w, wire.MsgSegmentData, img)
	}
	for _, path := range paths {
		if err := send(os.ReadFile(path)); err != nil {
			return wire.TableManifest{}, err
		}
	}
	if tail != nil {
		if err := send(tail, nil); err != nil {
			return wire.TableManifest{}, err
		}
	}
	s.replicaFetch.Add(shipped)
	s.repStat(ref).shippedBytes.Add(shipped)
	return inventory(ref, t), nil
}

// PullError is a refused pull of table Ref from the peer daemon at From: the
// peer could not be reached or does not serve Ref, a piece is not an image
// (or fails its own CRCs), the images are not of one table, or that table's
// rows or envelope are not the ones the peer's entry lists. Nothing was
// installed.
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

// pullTable pulls table ref from the peer daemon at from and installs it. One
// MsgSegmentFetch exchange collects the peer's images and its inventory entry
// for ref. The images must assemble in identifier order into a table holding
// the entry's rows and envelope (store.DecodeImages, run once, which checks
// each image's header and extent CRCs) before anything is installed: a
// durable daemon checks them inside durable.InstallTable, which then commits
// them as fresh segments of its own and serves the table mapped; a
// memory-only daemon keeps the decoded table. The table is addressable in the
// registry when pullTable returns; any failure is a *PullError. The pull
// runs synchronously on the requesting connection with its own background
// context; the requester's deadline bounds how long it waits, not how long
// the transfer runs.
func (s *Server) pullTable(ref, from string) (err error) {
	defer func() {
		if err != nil {
			err = &PullError{Ref: ref, From: from, Err: err}
		}
	}()
	src, err := remote.DialPool(from)
	if err != nil {
		return fmt.Errorf("dial source: %w", err)
	}
	defer src.Close()
	var imgs [][]byte
	var pulled uint64
	typ, resp, err := src.Exchange(context.Background(), wire.MsgSegmentFetch, wire.EncodeSegmentFetch(ref, ""),
		wire.MsgSegmentData, func(img []byte) error {
			imgs = append(imgs, img)
			pulled += uint64(len(img))
			return nil
		})
	if err != nil {
		return err
	}
	if typ != wire.MsgSegmentList {
		return fmt.Errorf("source ended its images with %v, not an inventory entry", typ)
	}
	ms, err := wire.DecodeSegmentList(resp)
	if err != nil {
		return err
	}
	if len(ms) != 1 || ms[0].Ref != ref {
		return fmt.Errorf("source ended its images with %d inventory entries, not one for it", len(ms))
	}
	m := ms[0]
	listed := func(tbl *store.Table) error {
		if got := inventory(ref, tbl); got != m {
			return fmt.Errorf("its images hold %d rows in [%d, %d], listed as %d rows in [%d, %d]",
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
