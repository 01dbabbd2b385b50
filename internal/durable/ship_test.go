package durable

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"

	"seabed/internal/store"
)

// decodeSegment opens an image's bytes as a segment file's are opened,
// without a file: view partitions aliasing data, whose column extents are
// CRC-verified on first touch.
func decodeSegment(data []byte) (*store.Table, error) {
	m := &mappedSegment{path: "(image)", data: data}
	return m.open(store.NewResidency(0))
}

// TestEncodeDecodeSegmentRoundTrip: a committed segment file is an image
// byte for byte — a register's is the image CommitImage was handed, a
// compaction's is the image of the journaled images joined — and an image
// opens as a segment file's bytes are opened.
func TestEncodeDecodeSegmentRoundTrip(t *testing.T) {
	tbl := mkTable(t, "ship", 1, 500, 3)
	data := serialize(t, tbl)
	got, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, got), data) {
		t.Fatal("decoded segment differs from source table")
	}

	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.CommitImage("ship", data); err != nil {
		t.Fatal(err)
	}
	b1, b2 := mkTable(t, "ship", 501, 20, 1), mkTable(t, "ship", 521, 30, 2)
	for _, b := range []*store.Table{b1, b2} {
		if err := s.JournalImage("ship", serialize(t, b)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.tables["ship"]
	st.mu.Lock()
	err = s.compactLocked("ship", st)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	joined := b1.Snapshot()
	if err := joined.AppendTable(b2); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{data, serialize(t, joined)}
	if imgs, tail := shipment(t, s, "ship"); len(imgs) != len(want) || tail != nil {
		t.Fatalf("%d segments and a tail of %v after one compaction, want %d and none", len(imgs), tail, len(want))
	} else {
		for i := range imgs {
			if !bytes.Equal(imgs[i], want[i]) {
				t.Fatalf("segment %d is not the image it was written from", i+1)
			}
		}
	}

	// Corruption in the header fails decode immediately.
	bad := append([]byte(nil), data...)
	bad[8] ^= 0xff
	if _, err := decodeSegment(bad); err == nil {
		t.Fatal("corrupt header decoded without error")
	}
}

// shipped describes one shipped image by its size and CRC.
type shipped struct {
	size int64
	crc  uint32
}

// piece describes one shipped image.
func piece(data []byte) shipped {
	return shipped{int64(len(data)), crc32.ChecksumIEEE(data)}
}

// shipment reads ref's shipment on s: its committed segment files' bytes, in
// order, and its WAL tail's image decoded (nil when it has none).
func shipment(t *testing.T, s *Store, ref string) ([][]byte, *store.Table) {
	t.Helper()
	paths, tailImg, err := s.Shipment(ref)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([][]byte, len(paths))
	for i, path := range paths {
		if imgs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	var tail *store.Table
	if tailImg != nil {
		if tail, err = store.DecodeImage(tailImg); err != nil {
			t.Fatal(err)
		}
	}
	return imgs, tail
}

// installedPieces lists ref's committed segments on s as (size, CRC) pairs,
// and fails if s also holds a WAL tail for it.
func installedPieces(t *testing.T, s *Store, ref string) []shipped {
	t.Helper()
	imgs, tail := shipment(t, s, ref)
	if tail != nil {
		t.Fatalf("%q has a wal tail of %d rows; an install commits every piece", ref, tail.NumRows())
	}
	out := make([]shipped, len(imgs))
	for i, img := range imgs {
		out[i] = piece(img)
	}
	return out
}

// TestShipmentAndInstallRoundTrip: a shipment is a durable table's committed
// segment files and its WAL tail, and an install commits them, tail
// included, as the receiver's own segments.
func TestShipmentAndInstallRoundTrip(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := openStore(t, srcDir, func(o *Options) { o.CompactBytes = 1 }) // compact every append
	defer src.Close()

	base := mkTable(t, "big", 1, 300, 2)
	if err := src.Register("big@NoEnc", base); err != nil {
		t.Fatal(err)
	}
	// Two appends: the first compacts into a second segment (CompactBytes=1),
	// the second becomes the WAL tail shipped alongside.
	b1 := mkTable(t, "big", 301, 100, 1)
	if err := src.Append("big@NoEnc", b1); err != nil {
		t.Fatal(err)
	}
	tailBatch := mkTable(t, "big", 401, 50, 1)
	// Raise the threshold so this batch stays in the WAL.
	src.opts.CompactBytes = 1 << 30
	if err := src.Append("big@NoEnc", tailBatch); err != nil {
		t.Fatal(err)
	}

	imgs, tail := shipment(t, src, "big@NoEnc")
	if len(imgs) < 2 {
		t.Fatalf("want >= 2 committed segments, got %d", len(imgs))
	}
	tailImg := serialize(t, tail)
	if !bytes.Equal(tailImg, serialize(t, tailBatch)) {
		t.Fatal("shipped wal tail is not the pending batch")
	}

	// Ship: each segment's bytes, then the tail as one more image.
	imgs = append(imgs, tailImg)
	var want []shipped
	for _, img := range imgs {
		want = append(want, piece(img))
	}

	// The install's check sees the assembled table before anything is
	// written: one that refuses it leaves nothing behind.
	dst := openStore(t, dstDir)
	defer dst.Close()
	if _, err := dst.InstallTable("big@NoEnc", imgs, func(tbl *store.Table) error {
		return fmt.Errorf("refusing %d rows", tbl.NumRows())
	}); err == nil || !strings.Contains(err.Error(), "refusing 450 rows") {
		t.Fatalf("install with a refusing check returned %v", err)
	}
	installed, err := dst.InstallTable("big@NoEnc", imgs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The assembled table matches the source's full contents.
	full := base.Snapshot()
	if err := full.AppendTable(b1); err != nil {
		t.Fatal(err)
	}
	if err := full.AppendTable(tailBatch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, installed), serialize(t, full)) {
		t.Fatal("installed table differs from source contents")
	}

	// The installed segments are the shipped images, byte for byte and in
	// order, the tail committed as the last of them.
	if got := installedPieces(t, dst, "big@NoEnc"); !slices.Equal(got, want) {
		t.Fatalf("installed segments %+v, want the shipped pieces %+v", got, want)
	}

	// Appends continue past the installed identifiers.
	if err := dst.Append("big@NoEnc", mkTable(t, "big", 451, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := full.AppendTable(mkTable(t, "big", 451, 5, 1)); err != nil {
		t.Fatal(err)
	}

	// The install survives a restart: every segment maps, no WAL record but
	// the append replays, and the table is the source's plus the append.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dstDir)
	defer re.Close()
	if st := re.Recovery(); st.Segments != len(imgs) || st.WALRecords != 1 {
		t.Fatalf("recovered %d segments and %d wal records, want %d and 1", st.Segments, st.WALRecords, len(imgs))
	}
	recovered := re.Tables()["big@NoEnc"]
	if recovered == nil {
		t.Fatal("installed table missing after reopen")
	}
	if !bytes.Equal(serialize(t, recovered), serialize(t, full)) {
		t.Fatal("recovered installed table differs from source contents")
	}
}

// TestInstallTableRejectsBadInput: a shipment that is not one table — a
// piece that is no image, or images out of identifier order — is refused
// before anything is committed, so the store reopens and a good install of
// the same ref then succeeds. Installing over committed segments is refused.
func TestInstallTableRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	first := serialize(t, mkTable(t, "x", 1, 10, 1))
	second := serialize(t, mkTable(t, "x", 11, 10, 1))
	for name, imgs := range map[string][][]byte{
		"not an image":            {first, []byte("SBSG but not an image")},
		"out of identifier order": {second, first},
		"no pieces":               nil,
	} {
		if _, err := s.InstallTable("x@NoEnc", imgs, nil); err == nil {
			t.Fatalf("%s: install accepted", name)
		}
		man, err := loadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, mt := range man.Tables {
			if mt.Ref == "x@NoEnc" {
				t.Fatalf("%s: refused install left a manifest entry %+v", name, mt)
			}
		}
	}

	// The store reopens over what the refused installs left behind.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir)
	defer s.Close()
	if _, ok := s.Tables()["x@NoEnc"]; ok {
		t.Fatal("a refused install recovered as a table")
	}

	installed, err := s.InstallTable("x@NoEnc", [][]byte{first, second}, nil)
	if err != nil {
		t.Fatalf("good install after refused ones: %v", err)
	}
	if installed.NumRows() != 20 || installed.EndID() != 20 {
		t.Fatalf("installed %d rows ending at %d, want 20 and 20", installed.NumRows(), installed.EndID())
	}

	// Installing over committed segments is refused.
	if _, err := s.InstallTable("x@NoEnc", [][]byte{first}, nil); err == nil {
		t.Fatal("install over committed segments accepted")
	}
}
