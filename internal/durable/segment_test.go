package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seabed/internal/store"
)

// segPath returns the single committed segment of the only table in dir.
func segPath(t *testing.T, dir string) string {
	t.Helper()
	return filepath.Join(tableDir(t, dir), "seg-000001.seg")
}

// TestMappedRecovery pins the segment contract: reopening a store maps the
// segment instead of reading it (MappedBytes accounts for the whole file, the
// recovered partitions are views) and the faulted data is byte-identical to
// what was registered.
func TestMappedRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	want := mkTable(t, "x", 1, 300, 3)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if rec.MappedBytes == 0 {
		t.Fatalf("recovery mapped 0 bytes; stats %+v", rec)
	}
	got := s2.Tables()["x"]
	for _, p := range got.Parts {
		if !p.IsView() {
			t.Fatal("recovered partition is not a view")
		}
	}
	if got.MemBytes() != 0 {
		t.Fatalf("recovered table resident bytes = %d before any query, want 0", got.MemBytes())
	}
	if string(serialize(t, got)) != string(serialize(t, want)) {
		t.Fatal("mapped recovery differs from registered table")
	}
	st := s2.Residency().Stats()
	if st.ColumnFaults == 0 {
		t.Fatal("serializing the mapped table faulted no columns")
	}
}

// TestMappedRecoveryUnderBudget serializes a mapped table through a budget
// smaller than one partition, forcing evictions mid-walk, and checks the
// output still matches — eviction must never corrupt, only re-fault.
func TestMappedRecoveryUnderBudget(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	want := mkTable(t, "x", 1, 400, 8)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, func(o *Options) { o.MaxResidentBytes = 1 })
	defer s2.Close()
	got := serialize(t, s2.Tables()["x"])
	if string(got) != string(serialize(t, want)) {
		t.Fatal("budgeted recovery differs from registered table")
	}
	st := s2.Residency().Stats()
	if st.Evictions == 0 {
		t.Fatalf("1-byte budget over 8 partitions evicted nothing: %+v", st)
	}
	// Walk it twice: every partition re-faults after its eviction.
	faults := st.ColumnFaults
	if string(serialize(t, s2.Tables()["x"])) != string(serialize(t, want)) {
		t.Fatal("second budgeted walk differs")
	}
	if s2.Residency().Stats().ColumnFaults <= faults {
		t.Fatal("second walk faulted no columns despite evictions")
	}
}

// TestTruncatedSegmentFailsOpen cuts a committed segment short at several
// points; every truncation must fail at Open (the header CRC or the extent
// bounds catch it), never be served.
func TestTruncatedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// −8 always cuts into the final extent (inter-extent padding is < 8),
	// never just its padding, so the bounds check must reject it.
	for _, keep := range []int{5, 12, len(raw) / 4, len(raw) - 8} {
		if err := os.WriteFile(seg, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if s2, err := Open(Options{Dir: dir}); err == nil {
			s2.Close() //nolint:errcheck // test failure path
			t.Fatalf("open served a segment truncated to %d of %d bytes", keep, len(raw))
		}
	}
	// Restore and confirm the fixture itself was good.
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir)
	s3.Close() //nolint:errcheck // read-only reopen
}

// TestOpenRefusesNonSBSGSegment overwrites a committed segment with bytes in
// another format — the batch serialization a pre-columnar daemon wrote there,
// taken from the checked-in parent-format WAL record — and requires Open to
// fail with an error naming the file, never to serve a table read some other
// way.
func TestOpenRefusesNonSBSGSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	tbl := mkTable(t, "x", 1, 150, 3)
	if err := s.Register("x", tbl); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(t, dir), parentFormatRecord(t)[walHeaderSize:], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err == nil {
		s2.Close() //nolint:errcheck // test failure path
		t.Fatal("open served a non-SBSG segment")
	}
	if !strings.Contains(err.Error(), "seg-000001.seg") || !strings.Contains(err.Error(), "SBSG") {
		t.Fatalf("open error %v does not name the file and the expected format", err)
	}
}

// stampVersion3 rewrites an image as the previous version wrote its header:
// version word 3, header CRC resealed, every other byte as it was.
func stampVersion3(img []byte) {
	binary.LittleEndian.PutUint32(img[4:], 3)
	resealHeader(img)
}

// TestOpenRefusesVersion3Segment: a segment written before ASHE values were
// re-encoded (SBSG version 3) holds bodies this proxy would decrypt to wrong
// sums, so Open refuses it with an error naming the file and the version,
// never serving it.
func TestOpenRefusesVersion3Segment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 150, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(segPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	stampVersion3(seg)
	if err := os.WriteFile(segPath(t, dir), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err == nil {
		s2.Close() //nolint:errcheck // test failure path
		t.Fatal("open served a version-3 segment")
	}
	var ve *store.VersionError
	if !errors.As(err, &ve) || !strings.Contains(err.Error(), "seg-000001.seg") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("open error %v does not name the file and version 3", err)
	}
}

// TestOpenRefusesVersion3WALRecord: the same for a WAL record whose payload is
// a version-3 image, record CRC intact: Open fails naming the log and the
// version, and leaves the log as it found it.
func TestOpenRefusesVersion3WALRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := store.AppendImage(nil, mkTable(t, "x", 11, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	stampVersion3(img)
	record := binary.LittleEndian.AppendUint32(nil, uint32(len(img)))
	record = binary.LittleEndian.AppendUint32(record, crc32.ChecksumIEEE(img))
	record = append(record, img...)
	if err := os.WriteFile(findWAL(t, dir), record, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err == nil {
		s2.Close() //nolint:errcheck // test failure path
		t.Fatal("open replayed a version-3 wal record")
	}
	var ve *store.VersionError
	if !errors.As(err, &ve) || !strings.Contains(err.Error(), walName) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("open error %v does not name the log and version 3", err)
	}
	if raw, err := os.ReadFile(findWAL(t, dir)); err != nil || !bytes.Equal(raw, record) {
		t.Fatalf("the failed recovery altered the wal (%v)", err)
	}
}

// TestCloseUnmapsSegments documents the Close contract: after Close, the
// mapping is gone, so recovered view tables must not be used. We only assert
// Close succeeds with mapped segments open and is idempotent about its maps.
func TestCloseUnmapsSegments(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	// Fault a column so the mapping is actually referenced before Close.
	release, err := s2.Tables()["x"].Parts[0].Pin(nil)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptExtentNamesColumn checks the lazy CRC error is actionable: it
// names the segment file and the corrupt column.
func TestCorruptExtentNamesColumn(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // last byte: inside the final column's extent
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("extent corruption failed Open: %v (want a lazy fault)", err)
	}
	defer s2.Close()
	parts := s2.Tables()["x"].Parts
	_, err = parts[len(parts)-1].Pin(nil)
	if err == nil {
		t.Fatal("pin served a corrupt extent")
	}
	if !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), "seg-000001.seg") {
		t.Fatalf("fault error %v does not name the checksum and segment", err)
	}
}

// fixedEntry returns the offset of column name's width field in seg's
// directory (its first partition's entry): name, kind byte, then the u32.
func fixedEntry(t testing.TB, seg []byte, name string, kind store.Kind) int {
	t.Helper()
	entry := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	entry = append(append(entry, name...), byte(kind))
	at := bytes.Index(seg, entry)
	if at < 0 {
		t.Fatalf("no directory entry for column %q", name)
	}
	return at + len(entry)
}

// resealHeader recomputes the header CRC after a directory field was patched,
// so the patched rule — not the checksum — is what open has to catch.
func resealHeader(seg []byte) {
	headerLen := binary.LittleEndian.Uint32(seg[8:])
	binary.LittleEndian.PutUint32(seg[headerLen-4:], crc32.ChecksumIEEE(seg[:headerLen-4]))
}

// TestSegmentWidthRuleAtOpen: the wrong-length rule is per extent and runs at
// open, before any value is read. A Fixed column's directory entry must carry
// a width ≥ 1 and an extent of exactly rows × width bytes, and no other kind
// carries a width; a segment that breaks either — header CRC intact — is
// refused with an error naming the column. So is a version-2 segment.
func TestSegmentWidthRuleAtOpen(t *testing.T) {
	good := serialize(t, mkTable(t, "x", 1, 40, 1))
	if _, err := DecodeSegment(good); err != nil {
		t.Fatal(err)
	}
	f, u := fixedEntry(t, good, "f", store.Fixed), fixedEntry(t, good, "u", store.U64)
	for name, patch := range map[string]func(seg []byte){
		"width 0":                  func(seg []byte) { binary.LittleEndian.PutUint32(seg[f:], 0) },
		"width not the extent's":   func(seg []byte) { binary.LittleEndian.PutUint32(seg[f:], 12) },
		"rows × width ≠ size":      func(seg []byte) { binary.LittleEndian.PutUint32(seg[f:], 8) },
		"extent one byte short":    func(seg []byte) { binary.LittleEndian.PutUint64(seg[f+12:], 16*40-1) },
		"extent one byte long":     func(seg []byte) { binary.LittleEndian.PutUint64(seg[f+12:], 16*40+1) },
		"a width on a u64 column":  func(seg []byte) { binary.LittleEndian.PutUint32(seg[u:], 8) },
		"fixed declared as bytes":  func(seg []byte) { seg[f-1] = byte(store.Bytes) },
		"u64 declared as fixed":    func(seg []byte) { seg[u-1] = byte(store.Fixed) },
		"huge width":               func(seg []byte) { binary.LittleEndian.PutUint32(seg[f:], 1<<31) },
		"the previous format (v2)": func(seg []byte) { binary.LittleEndian.PutUint32(seg[4:], 2) },
	} {
		seg := bytes.Clone(good)
		patch(seg)
		resealHeader(seg)
		want := `column "f"`
		switch {
		case strings.Contains(name, "u64"):
			want = `column "u"`
		case strings.Contains(name, "v2"):
			want = "unsupported version 2"
		}
		if name == "extent one byte long" { // the last extent: past the file's end
			seg = append(seg, 0)
		}
		if _, err := DecodeSegment(seg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: open's err = %v, want one naming %s", name, err, want)
		}
	}
}

// faultFixture is a one-partition segment of a U64 and a 16-byte Fixed column
// opened over its bytes, with the loader that faults its columns.
func faultFixture(tb testing.TB, rows int) *segPartLoader {
	tb.Helper()
	tbl, err := store.Build("x", []store.Column{
		{Name: "u", Kind: store.U64, U64: make([]uint64, rows)},
		{Name: "f", Kind: store.Fixed, Width: 16, Fixed: make([]byte, 16*rows)},
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	seg, err := store.AppendImage(nil, tbl)
	if err != nil {
		tb.Fatal(err)
	}
	dir, err := store.ParseImage(seg)
	if err != nil {
		tb.Fatal(err)
	}
	m := &mappedSegment{path: "(test segment)", data: seg}
	return &segPartLoader{seg: m, part: &dir.Parts[0], verified: make([]bool, 2)}
}

// TestFaultInFixedColumnIsConstantWork: once its CRC is verified, faulting a
// fixed-width column out of a mapped segment is O(1) and allocation-free at
// any row count — the extent is the column's buffer; there is no offset
// table to walk and no header per row to build.
func TestFaultInFixedColumnIsConstantWork(t *testing.T) {
	for _, rows := range []int{10, 100_000} {
		l := faultFixture(t, rows)
		if _, err := l.LoadColumn(1); err != nil { // verifies the CRC
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			col, err := l.LoadColumn(1)
			if err != nil || col.Len() != rows || &col.Fixed[0] != &l.seg.data[l.part.Cols[1].Off] {
				t.Fatalf("fault: %d rows, err %v, aliased %v", col.Len(), err, err == nil)
			}
		})
		if allocs != 0 {
			t.Errorf("%d rows: a fault of a verified fixed column allocated %.1f times, want 0", rows, allocs)
		}
	}
}

// BenchmarkFaultInColumn measures one column fault out of a mapped segment,
// CRC already verified: a 16-byte fixed-width column beside a U64 one, 100k
// rows each. Both alias the mapping, so ns/fault and B/fault do not depend
// on the row count.
func BenchmarkFaultInColumn(b *testing.B) {
	const rows = 100_000
	l := faultFixture(b, rows)
	for ci, name := range []string{"U64", "Fixed16"} {
		if _, err := l.LoadColumn(ci); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col, err := l.LoadColumn(ci)
				if err != nil || col.Len() != rows {
					b.Fatal(fmt.Errorf("fault: %d rows, %v", col.Len(), err))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fault")
		})
	}
}
