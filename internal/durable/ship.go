package durable

import (
	"fmt"
	"path/filepath"
	"slices"

	"seabed/internal/store"
)

// Segment shipping: the daemon-to-daemon replication surface.
//
// Every piece of a table a daemon ships is a table image: each committed
// segment file as it lies on disk, and the uncompacted WAL tail's images
// joined into one. Shipment takes the pieces as one cut. On the receiving
// daemon, InstallTable takes the pieces as images, in order, and names none
// of them after its peer: it checks that they assemble into one table before
// anything is written, then commits each as a fresh segment of its own, the
// tail included. A healed table's directory holds its source's bytes under
// local names and recovers as any other does.

// Shipment takes ref's shippable pieces as one cut, under the table lock and
// reading no file: the paths of its committed segment files in install order,
// and its uncompacted WAL tail as one image (nil when the WAL holds no rows).
// Committed segments are immutable, so their files may be read after the
// lock is released; one that a later re-register deleted is then missing,
// and the read fails.
func (s *Store) Shipment(ref string) (paths []string, tail store.Image, err error) {
	st, err := s.stateFor(ref, false)
	if err != nil {
		return nil, nil, err
	}
	st.mu.Lock()
	records := slices.Clone(st.tail)
	for _, name := range st.segments {
		paths = append(paths, filepath.Join(s.opts.Dir, st.id, name))
	}
	st.mu.Unlock()
	if len(records) > 0 {
		if tail, err = joinImages(records); err != nil {
			return nil, nil, fmt.Errorf("durable: ship the wal tail of %q: %w", ref, err)
		}
	}
	return paths, tail, nil
}

// InstallTable installs a table shipped as images under ref: its source's
// committed segments and then its WAL tail, in order. Nothing is persisted
// before it is checked: every image must parse and the images must assemble,
// in identifier order, into one table (store.DecodeImages), which check, when
// non-nil, must then accept. Only then is each image written verbatim as a
// fresh segment from the table's own sequence, and the manifest commits them
// once — the tail is a committed segment here, mapped at recovery rather
// than replayed. The table is returned opened as recovery opens it. Install
// targets must be fresh: a ref that already has committed segments is
// refused rather than overwritten, which keeps committed segments immutable.
func (s *Store) InstallTable(ref string, imgs [][]byte, check func(*store.Table) error) (*store.Table, error) {
	tbl, err := store.DecodeImages(imgs)
	if err == nil && check != nil {
		err = check(tbl)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: install of %q: %w", ref, err)
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
	if err := s.openLog(st); err != nil {
		return nil, err
	}
	if err := s.commitSegments(ref, st, nil, imgs); err != nil {
		return nil, err
	}
	tbl, _, err = s.openSegments(filepath.Join(s.opts.Dir, st.id), st.segments)
	if err != nil {
		return nil, fmt.Errorf("durable: open installed table %q: %w", ref, err)
	}
	st.endID = tbl.EndID()
	return tbl, nil
}
