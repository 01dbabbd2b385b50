package durable

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestEncodeDecodeSegmentRoundTrip: a table's image (WriteTo) is the segment
// file writeSegment produces for it, byte for byte, and DecodeSegment opens
// it as that file's bytes are opened.
func TestEncodeDecodeSegmentRoundTrip(t *testing.T) {
	tbl := mkTable(t, "ship", 1, 500, 3)
	data := serialize(t, tbl)
	got, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, got), serialize(t, tbl)) {
		t.Fatal("decoded segment differs from source table")
	}

	// The image IS the file: writeSegment must emit the identical bytes.
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.seg")
	if _, err := writeSegment(path, tbl); err != nil {
		t.Fatal(err)
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, fileBytes) {
		t.Fatal("WriteTo bytes differ from writeSegment file bytes")
	}

	// Corruption in the header fails decode immediately.
	bad := append([]byte(nil), data...)
	bad[8] ^= 0xff
	if _, err := DecodeSegment(bad); err == nil {
		t.Fatal("corrupt header decoded without error")
	}
}

func TestShipManifestAndInstallRoundTrip(t *testing.T) {
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

	segs, tail, err := src.ShipManifest("big@NoEnc")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("want >= 2 committed segments, got %+v", segs)
	}
	if tail == nil || tail.NumRows() != 50 {
		t.Fatalf("want 50-row wal tail, got %v", tail)
	}

	// Ship: read each segment's bytes, verify against the manifest CRC.
	var files []ShipFile
	for _, sg := range segs {
		data, err := src.SegmentBytes("big@NoEnc", sg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != sg.Size || crc32.ChecksumIEEE(data) != sg.CRC {
			t.Fatalf("segment %s bytes disagree with manifest", sg.Name)
		}
		files = append(files, ShipFile{Name: sg.Name, Data: data})
	}

	dst := openStore(t, dstDir)
	defer dst.Close()
	installed, err := dst.InstallTable("big@NoEnc", files, tail)
	if err != nil {
		t.Fatal(err)
	}

	// The assembled table matches the source's full contents.
	want := base.Snapshot()
	if err := want.AppendTable(b1); err != nil {
		t.Fatal(err)
	}
	if err := want.AppendTable(tailBatch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, installed), serialize(t, want)) {
		t.Fatal("installed table differs from source contents")
	}

	// CRC-for-CRC: the installed directory's segment files are byte-identical
	// to the source's, under the same names.
	dstSegs, dstTail, err := dst.ShipManifest("big@NoEnc")
	if err != nil {
		t.Fatal(err)
	}
	if len(dstSegs) != len(segs) {
		t.Fatalf("installed %d segments, want %d", len(dstSegs), len(segs))
	}
	for i := range segs {
		if dstSegs[i] != segs[i] {
			t.Fatalf("segment %d mismatch: installed %+v, source %+v", i, dstSegs[i], segs[i])
		}
	}
	if dstTail == nil || !bytes.Equal(serialize(t, dstTail), serialize(t, tail)) {
		t.Fatal("installed wal tail differs from shipped tail")
	}

	// The install survives a restart: reopen and compare again.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dstDir)
	defer re.Close()
	recovered := re.Tables()["big@NoEnc"]
	if recovered == nil {
		t.Fatal("installed table missing after reopen")
	}
	if !bytes.Equal(serialize(t, recovered), serialize(t, want)) {
		t.Fatal("recovered installed table differs from source contents")
	}
}

func TestInstallTableRejectsBadInput(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()

	seg := serialize(t, mkTable(t, "x", 1, 10, 1))
	// Hostile names must not escape the table directory.
	for _, name := range []string{"../evil.seg", "wal.log", "seg-1.seg", "@wal", ""} {
		if _, err := s.InstallTable("x@NoEnc", []ShipFile{{Name: name, Data: seg}}, nil); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	if _, err := s.InstallTable("x@NoEnc", nil, nil); err == nil {
		t.Fatal("empty install accepted")
	}

	// Installing over a table with committed segments is refused.
	if err := s.Register("x@NoEnc", mkTable(t, "x", 1, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallTable("x@NoEnc", []ShipFile{{Name: "seg-000001.seg", Data: seg}}, nil); err == nil {
		t.Fatal("install over committed segments accepted")
	}
}
