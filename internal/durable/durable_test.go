package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seabed/internal/store"
)

// mkTable builds a table of rows mixed-kind rows starting at startID.
func mkTable(t *testing.T, name string, startID uint64, rows, parts int) *store.Table {
	t.Helper()
	u := make([]uint64, rows)
	b := make([][]byte, rows)
	s := make([]string, rows)
	f := make([]byte, 16*rows)
	for i := range u {
		id := startID + uint64(i)
		u[i] = id * 7
		b[i] = []byte{byte(id), byte(id >> 8), 0xEE}
		s[i] = fmt.Sprintf("row-%d", id)
		binary.BigEndian.PutUint64(f[16*i+8:], id) // a 16-byte ciphertext's shape
	}
	tbl, err := store.BuildFrom(name, []store.Column{
		{Name: "u", Kind: store.U64, U64: u},
		{Name: "b", Kind: store.Bytes, Bytes: b},
		{Name: "s", Kind: store.Str, Str: s},
		{Name: "f", Kind: store.Fixed, Width: 16, Fixed: f},
	}, parts, startID)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// serialize renders a table to bytes for byte-identical comparison.
func serialize(t *testing.T, tbl *store.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStore(t *testing.T, dir string, mut ...func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir}
	for _, m := range mut {
		m(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegisterAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	want := mkTable(t, "sales", 1, 100, 4)
	if err := s.Register("sales#seabed", want); err != nil {
		t.Fatal(err)
	}
	other := mkTable(t, "dims", 1, 10, 1)
	if err := s.Register("dims#seabed", other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		batch := mkTable(t, "sales", want.EndID()+1, 20, 2)
		if err := s.Append("sales#seabed", batch); err != nil {
			t.Fatal(err)
		}
		if err := want.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir)
	defer re.Close()
	tables := re.Tables()
	if len(tables) != 2 {
		t.Fatalf("recovered %d tables, want 2", len(tables))
	}
	if got := tables["sales#seabed"]; !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatalf("recovered sales diverges: %d rows vs %d", got.NumRows(), want.NumRows())
	}
	if got := tables["dims#seabed"]; !bytes.Equal(serialize(t, got), serialize(t, other)) {
		t.Fatal("recovered dims diverges")
	}
	st := re.Recovery()
	if st.Tables != 2 || st.WALRecords != 5 || st.TornTails != 0 || st.Bytes == 0 || st.Duration <= 0 {
		t.Fatalf("recovery stats off: %+v", st)
	}
	// Recovered tables keep accepting appends.
	batch := mkTable(t, "sales", want.EndID()+1, 10, 1)
	if err := re.Append("sales#seabed", batch); err != nil {
		t.Fatal(err)
	}
}

func TestAppendUnknownRefErrors(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Append("ghost", mkTable(t, "g", 1, 5, 1)); err == nil {
		t.Fatal("append to unregistered ref succeeded")
	}
}

func TestAppendRewindRejected(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Register("x", mkTable(t, "x", 1, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("x", mkTable(t, "x", 10, 5, 1)); err == nil {
		t.Fatal("overlapping append journaled")
	}
}

// TestFsyncAlwaysWritesThrough asserts the acknowledgement contract: after
// Append returns under FsyncAlways, the record is complete in the log file
// (no process-level buffering), so a replay of the file as it exists on
// disk already yields the batch.
func TestFsyncAlwaysWritesThrough(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	if err := s.Register("x", mkTable(t, "x", 1, 10, 1)); err != nil {
		t.Fatal(err)
	}
	batch := mkTable(t, "x", 11, 7, 1)
	if err := s.Append("x", batch); err != nil {
		t.Fatal(err)
	}
	// Find the WAL and replay it without closing the store — as a crashed
	// process's recovery would.
	walPath := findWAL(t, dir)
	batches, _, torn, err := replayWAL(walPath)
	if err != nil || torn {
		t.Fatalf("replay of live wal: torn=%v err=%v", torn, err)
	}
	if len(batches) != 1 || !bytes.Equal(batches[0].img, serialize(t, batch)) {
		t.Fatalf("live wal holds %d records, want the acked batch's image", len(batches))
	}
}

// TestTornTailTruncated damages the last WAL record several ways; recovery
// must keep every committed prefix record, drop the tail, truncate the
// file, and count the tear — and a second recovery must be clean.
func TestTornTailTruncated(t *testing.T) {
	for _, damage := range []struct {
		name string
		mut  func(wal []byte) []byte
	}{
		{"truncated-header", func(w []byte) []byte { return w[:lastRecordOffset(t, w)+4] }},
		{"truncated-payload", func(w []byte) []byte { return w[:len(w)-10] }},
		{"bit-rot", func(w []byte) []byte {
			w[len(w)-1] ^= 0xFF
			return w
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			want := mkTable(t, "x", 1, 30, 2)
			if err := s.Register("x", want); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				batch := mkTable(t, "x", want.EndID()+1, 8, 1)
				if err := s.Append("x", batch); err != nil {
					t.Fatal(err)
				}
				if i < 2 { // the third batch will be destroyed
					if err := want.AppendTable(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := findWAL(t, dir)
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, damage.mut(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			re := openStore(t, dir)
			got := re.Tables()["x"]
			if !bytes.Equal(serialize(t, got), serialize(t, want)) {
				t.Fatalf("recovered %d rows, want the committed prefix %d", got.NumRows(), want.NumRows())
			}
			if st := re.Recovery(); st.TornTails != 1 || st.WALRecords != 2 {
				t.Fatalf("recovery stats off: %+v", st)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			// The tear was truncated away: a third open is tear-free.
			again := openStore(t, dir)
			defer again.Close()
			if st := again.Recovery(); st.TornTails != 0 || st.WALRecords != 2 {
				t.Fatalf("second recovery still sees damage: %+v", st)
			}
		})
	}
}

// lastRecordOffset walks a clean WAL's records and returns the offset where
// the final record starts, so a test can cut inside its header.
func lastRecordOffset(t *testing.T, raw []byte) int {
	t.Helper()
	off := 0
	for {
		if off+walHeaderSize > len(raw) {
			t.Fatal("wal ends mid-header; fixture not clean")
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		end := off + walHeaderSize + n
		if end >= len(raw) {
			return off
		}
		off = end
	}
}

// TestCompaction drives the WAL past CompactBytes and checks batches fold
// into segments, the log resets, and recovery is byte-identical.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, func(o *Options) { o.CompactBytes = 2048 })
	want := mkTable(t, "x", 1, 50, 2)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		batch := mkTable(t, "x", want.EndID()+1, 10, 1)
		if err := s.Append("x", batch); err != nil {
			t.Fatal(err)
		}
		if err := want.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
	}
	// At least one compaction ran: multiple segments exist and the live
	// WAL is smaller than the journaled total.
	s.mu.Lock()
	segs := len(s.man.table(s.tables["x"].id).Segments)
	s.mu.Unlock()
	if segs < 2 {
		t.Fatalf("no compaction happened: %d segments", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	if got := re.Tables()["x"]; !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatalf("post-compaction recovery diverges: %d rows vs %d", got.NumRows(), want.NumRows())
	}
}

// TestCrashBetweenCompactionCommitAndWALReset simulates the nastiest crash
// window: the compaction's manifest commit landed but the WAL reset did
// not, so every WAL record's rows are already in a segment. Recovery must
// skip them by identifier coverage, not double-append or fail.
func TestCrashBetweenCompactionCommitAndWALReset(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, func(o *Options) { o.CompactBytes = 1 << 30 })
	want := mkTable(t, "x", 1, 30, 2)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	batch := mkTable(t, "x", want.EndID()+1, 12, 1)
	if err := s.Append("x", batch); err != nil {
		t.Fatal(err)
	}
	if err := want.AppendTable(batch); err != nil {
		t.Fatal(err)
	}
	// Preserve the WAL bytes, force the compaction, then restore the WAL —
	// the state a crash between commit and reset leaves behind.
	walPath := findWAL(t, dir)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	st := s.tables["x"]
	s.mu.Unlock()
	st.mu.Lock()
	err = s.compactLocked("x", st)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir)
	defer re.Close()
	if got := re.Tables()["x"]; !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatal("covered wal records were not skipped cleanly")
	}
	if st := re.Recovery(); st.WALRecords != 0 {
		t.Fatalf("covered records counted as replayed: %+v", st)
	}
}

// TestRegisterReplacesAndCleans re-registers a ref with new contents; the
// old segments must stop being served and be garbage-collected.
func TestRegisterReplacesAndCleans(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 40, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("x", mkTable(t, "x", 41, 5, 1)); err != nil {
		t.Fatal(err)
	}
	replacement := mkTable(t, "x", 1, 12, 3)
	if err := s.Register("x", replacement); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	if got := re.Tables()["x"]; !bytes.Equal(serialize(t, got), serialize(t, replacement)) {
		t.Fatal("re-registered contents not recovered")
	}
	if st := re.Recovery(); st.Segments != 1 || st.WALRecords != 0 {
		t.Fatalf("old segments or wal records survived the replace: %+v", st)
	}
}

// TestOrphanCleanup plants files a crashed operation would leave and checks
// Open removes them without touching committed state.
func TestOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	want := mkTable(t, "x", 1, 20, 1)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A table dir never committed, a stray segment in a live table dir, and
	// a torn manifest temp file.
	if err := os.MkdirAll(filepath.Join(dir, "t999999"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "t999999", "seg-000001.seg"), []byte("junk"), 0o644) //nolint:errcheck // test setup
	tdir := tableDir(t, dir)
	os.WriteFile(filepath.Join(tdir, "seg-000999.seg"), []byte("junk"), 0o644) //nolint:errcheck // test setup
	os.WriteFile(filepath.Join(dir, manifestTmp), []byte("{"), 0o644)          //nolint:errcheck // test setup

	re := openStore(t, dir)
	defer re.Close()
	if got := re.Tables()["x"]; !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatal("cleanup damaged committed state")
	}
	for _, gone := range []string{
		filepath.Join(dir, "t999999"),
		filepath.Join(tdir, "seg-000999.seg"),
		filepath.Join(dir, manifestTmp),
	} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open", gone)
		}
	}
}

// TestCorruptSegmentFailsRecovery flips a byte inside a committed segment;
// the store must refuse to serve the table's altered rows. Header corruption
// fails at Open; extent corruption is caught by the lazy CRC at the first
// column fault — either way the bad bytes never reach a query.
func TestCorruptSegmentFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tdir := tableDir(t, dir)
	seg := filepath.Join(tdir, "seg-000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		return // corruption landed in the header: rejected at Open
	}
	defer s2.Close()
	var faultErr error
	for _, p := range s2.Tables()["x"].Parts {
		release, err := p.Pin(nil)
		if err != nil {
			faultErr = err
			continue
		}
		release()
	}
	if faultErr == nil {
		t.Fatal("recovery served a corrupt segment")
	}
	if !strings.Contains(faultErr.Error(), "checksum") {
		t.Fatalf("fault error %v does not name the checksum", faultErr)
	}
}

// TestFsyncBatchSyncOnClose checks the batch policy journals write-through
// on Close even when the threshold was never reached.
func TestFsyncBatchSyncOnClose(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, func(o *Options) { o.Fsync = FsyncBatch; o.BatchBytes = 1 << 30 })
	want := mkTable(t, "x", 1, 10, 1)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	batch := mkTable(t, "x", 11, 5, 1)
	if err := s.Append("x", batch); err != nil {
		t.Fatal(err)
	}
	if err := want.AppendTable(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	if got := re.Tables()["x"]; !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatal("batch-mode records lost across clean close")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	if p, err := ParseFsyncPolicy("always"); err != nil || p != FsyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseFsyncPolicy("batch"); err != nil || p != FsyncBatch {
		t.Fatalf("batch: %v %v", p, err)
	}
	if _, err := ParseFsyncPolicy("yolo"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// findWAL locates the single table's WAL file.
func findWAL(t *testing.T, dir string) string {
	t.Helper()
	return filepath.Join(tableDir(t, dir), walName)
}

// tableDir locates the single table directory in a one-table store.
func tableDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "t") {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no table dir found")
	return ""
}

// TestCompactionFailureDoesNotFailAppend wedges compaction (a directory
// squats on the next segment file name) and checks appends keep succeeding
// — the record is durable in the WAL, compaction is just deferred — and
// that compaction recovers once the obstruction clears, with recovery
// byte-identical throughout.
func TestCompactionFailureDoesNotFailAppend(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, func(o *Options) { o.CompactBytes = 1024 })
	want := mkTable(t, "x", 1, 20, 1)
	if err := s.Register("x", want); err != nil {
		t.Fatal(err)
	}
	// Squat on seg-000002.seg: the segment writer's os.Create fails on a dir.
	obstruction := filepath.Join(tableDir(t, dir), segName(2))
	if err := os.Mkdir(obstruction, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		batch := mkTable(t, "x", want.EndID()+1, 10, 1)
		if err := s.Append("x", batch); err != nil {
			t.Fatalf("append %d failed on a deferred compaction: %v", i, err)
		}
		if err := want.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(obstruction); err != nil {
		t.Fatal(err)
	}
	// Next append triggers a successful compaction.
	batch := mkTable(t, "x", want.EndID()+1, 10, 1)
	if err := s.Append("x", batch); err != nil {
		t.Fatal(err)
	}
	if err := want.AppendTable(batch); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	segs := len(s.man.table(s.tables["x"].id).Segments)
	s.mu.Unlock()
	if segs < 2 {
		t.Fatalf("compaction never recovered: %d segments", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	if got := re.Tables()["x"]; !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatal("recovery diverges after deferred compaction")
	}
}

// parentFormatRecord returns the checked-in WAL holding one record its parent
// format wrote: a length, a CRC that holds, and a three-row batch in the
// varint batch serialization that preceded the table image.
func parentFormatRecord(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "sbd1-record.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOpenRefusesParentFormatWALRecord: a WAL record whose checksum holds
// but whose payload is not a table image — one written before the image was
// the WAL's payload — is corruption to recovery, not a tear: Open fails with
// an error naming the record's offset and leaves the log as it found it.
func TestOpenRefusesParentFormatWALRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Register("x", mkTable(t, "x", 1, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	record := parentFormatRecord(t)
	if err := os.WriteFile(findWAL(t, dir), record, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err == nil {
		s2.Close() //nolint:errcheck // test failure path
		t.Fatal("open replayed a parent-format wal record")
	}
	if !strings.Contains(err.Error(), "wal record at offset 0") || !strings.Contains(err.Error(), "not an SBSG image") {
		t.Fatalf("open error %v does not name the record's offset and the expected format", err)
	}
	if raw, err := os.ReadFile(findWAL(t, dir)); err != nil || !bytes.Equal(raw, record) {
		t.Fatalf("the failed recovery altered the wal (%v)", err)
	}
}

// TestOversizedWALRecordRejected checks the append-side record bound: a
// record the replay path would truncate as a tear must be refused up
// front, before it is acknowledged.
func TestOversizedWALRecordRejected(t *testing.T) {
	w, err := openWAL(filepath.Join(t.TempDir(), walName))
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.append(make([]byte, walMaxRecord+1), true, 1); err == nil {
		t.Fatal("oversized record journaled; replay would truncate it as a tear")
	}
	if err := w.append([]byte("fine"), true, 1); err != nil {
		t.Fatalf("log unusable after rejecting an oversized record: %v", err)
	}
}
