package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// segPath returns the single committed segment of the only table in dir.
func segPath(t *testing.T, dir string) string {
	t.Helper()
	return filepath.Join(tableDir(t, dir), "seg-000001.seg")
}

// TestMappedRecovery pins the v2 segment contract: reopening a store maps the
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

// TestTruncatedSegmentFailsOpen cuts a committed v2 segment short at several
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
// another format — the SBD1 batch serialization a pre-columnar daemon wrote
// there — and requires Open to fail with an error naming the file, never to
// serve a table read some other way.
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
	if err := os.WriteFile(segPath(t, dir), serialize(t, tbl), 0o644); err != nil {
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
