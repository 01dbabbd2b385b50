package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func u64Col(name string, vals ...uint64) Column {
	return Column{Name: name, Kind: U64, U64: vals}
}

func testTable(t *testing.T, rows, parts int) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	a := make([]uint64, rows)
	b := make([][]byte, rows)
	c := make([]string, rows)
	for i := 0; i < rows; i++ {
		a[i] = rng.Uint64()
		b[i] = []byte(fmt.Sprintf("ct-%d", rng.Intn(100)))
		c[i] = fmt.Sprintf("url-%d", i)
	}
	tbl, err := Build("t", []Column{
		{Name: "a", Kind: U64, U64: a},
		{Name: "b", Kind: Bytes, Bytes: b},
		{Name: "c", Kind: Str, Str: c},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestBuildPartitioning(t *testing.T) {
	tbl := testTable(t, 10, 3)
	if got := len(tbl.Parts); got != 3 {
		t.Fatalf("partitions = %d, want 3", got)
	}
	var total int
	next := uint64(1)
	for _, p := range tbl.Parts {
		if p.StartID != next {
			t.Fatalf("partition StartID = %d, want %d", p.StartID, next)
		}
		next += uint64(p.NumRows())
		total += p.NumRows()
	}
	if total != 10 || tbl.NumRows() != 10 {
		t.Fatalf("row count mismatch: %d/%d", total, tbl.NumRows())
	}
}

func TestBuildClampsPartitions(t *testing.T) {
	tbl := testTable(t, 2, 50)
	if len(tbl.Parts) != 2 {
		t.Fatalf("partitions = %d, want clamp to 2", len(tbl.Parts))
	}
	tbl = testTable(t, 5, 0)
	if len(tbl.Parts) != 1 {
		t.Fatalf("partitions = %d, want clamp to 1", len(tbl.Parts))
	}
}

func TestBuildRejectsRaggedColumns(t *testing.T) {
	_, err := Build("t", []Column{u64Col("a", 1, 2), u64Col("b", 1)}, 1)
	if err == nil {
		t.Fatal("want error for ragged columns")
	}
}

func TestBuildEmptyTable(t *testing.T) {
	tbl, err := Build("t", []Column{u64Col("a")}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || len(tbl.Parts) != 1 {
		t.Fatalf("empty table: rows=%d parts=%d", tbl.NumRows(), len(tbl.Parts))
	}
}

func TestColLookup(t *testing.T) {
	tbl := testTable(t, 5, 2)
	if !tbl.HasCol("a") || tbl.HasCol("zz") {
		t.Fatal("HasCol misbehaves")
	}
	k, err := tbl.ColKind("b")
	if err != nil || k != Bytes {
		t.Fatalf("ColKind(b) = %v, %v", k, err)
	}
	if _, err := tbl.ColKind("zz"); err == nil {
		t.Fatal("want error for unknown column")
	}
	if got := tbl.ColNames(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("ColNames = %v", got)
	}
	// ColIndex resolves the shared layout: the same index must address the
	// same column in every partition (the compile-once executor's contract).
	for want, name := range []string{"a", "b", "c"} {
		if got := tbl.Parts[0].ColIndex(name); got != want {
			t.Fatalf("ColIndex(%q) = %d, want %d", name, got, want)
		}
		for _, p := range tbl.Parts {
			if p.Cols[want].Name != name {
				t.Fatalf("partition layout diverges at %d", want)
			}
		}
	}
	if tbl.Parts[0].ColIndex("zz") != -1 {
		t.Fatal("ColIndex of unknown column should be -1")
	}
}

// TestReadRejectsDivergentLayouts pins the trust-boundary check: partitions
// decode independently, so a hostile register/append frame can declare a
// different column set per partition. The compile-once executor binds
// column indices against partition 0's layout, so Read must refuse such a
// table instead of letting a later partition be indexed out of range (a
// server-crashing panic) or into the wrong column.
func TestReadRejectsDivergentLayouts(t *testing.T) {
	cols := func(names ...string) []Column {
		out := make([]Column, len(names))
		for i, n := range names {
			out[i] = Column{Name: n, Kind: U64, U64: []uint64{1, 2}}
		}
		return out
	}
	for name, hostile := range map[string]*Table{
		"missing-column": {Name: "h", Parts: []*Partition{
			{StartID: 1, Cols: cols("a", "b")},
			{StartID: 3, Cols: cols("a")},
		}},
		"reordered-columns": {Name: "h", Parts: []*Partition{
			{StartID: 1, Cols: cols("a", "b")},
			{StartID: 3, Cols: cols("b", "a")},
		}},
		"kind-mismatch": {Name: "h", Parts: []*Partition{
			{StartID: 1, Cols: cols("a")},
			{StartID: 3, Cols: []Column{{Name: "a", Kind: Str, Str: []string{"x", "y"}}}},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := hostile.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf); err == nil {
				t.Fatal("Read accepted a table with divergent partition layouts")
			}
		})
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	tbl := testTable(t, 57, 4)
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tbl.Name || back.NumRows() != tbl.NumRows() || len(back.Parts) != len(tbl.Parts) {
		t.Fatalf("header mismatch: %q %d %d", back.Name, back.NumRows(), len(back.Parts))
	}
	for pi, p := range tbl.Parts {
		q := back.Parts[pi]
		if q.StartID != p.StartID {
			t.Fatalf("partition %d StartID %d, want %d", pi, q.StartID, p.StartID)
		}
		for ci := range p.Cols {
			if !reflect.DeepEqual(p.Cols[ci], q.Cols[ci]) {
				t.Fatalf("partition %d column %q differs", pi, p.Cols[ci].Name)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("want error for empty input")
	}
	// Truncated valid prefix.
	tbl := testTable(t, 20, 2)
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("want error for truncated input")
	}
}

// TestReadRefusesVersion3: an image of the previous version, header CRC
// intact, is refused by its version before anything else is read. Version 4
// changed no byte of the layout, only what an ASHE U64 value holds
// (docs/FORMAT.md §1.6), so reading a version-3 image would decrypt wrongly.
func TestReadRefusesVersion3(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testTable(t, 20, 2).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	binary.LittleEndian.PutUint32(img[4:], 3)
	headerLen := binary.LittleEndian.Uint32(img[8:])
	binary.LittleEndian.PutUint32(img[headerLen-4:], crc32.ChecksumIEEE(img[:headerLen-4]))
	var ve *VersionError
	if _, err := Read(bytes.NewReader(img)); !errors.As(err, &ve) || ve.Version != 3 || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("Read of a version-3 image: err = %v, want a VersionError naming version 3", err)
	}
}

// TestImageRoundTrip: Read(WriteTo(t)) is t for every column kind, for
// partitions with no rows, for a table of no partitions, and for the inverted
// empty envelope (one empty partition past the table's end) an empty range's
// shard registers; and the heap columns Read returns alias the image.
func TestImageRoundTrip(t *testing.T) {
	all, err := Build("t", []Column{
		{Name: "u", Kind: U64, U64: []uint64{1, 1 << 63, 3}},
		{Name: "b", Kind: Bytes, Bytes: [][]byte{{0xB0}, nil, {0xB1, 0xB2}}},
		{Name: "s", Kind: Str, Str: []string{"x", "", "yz"}},
		{Name: "f", Kind: Fixed, Width: 2, Fixed: []byte{1, 2, 3, 4, 5, 6}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := BuildFrom("t", []Column{
		{Name: "u", Kind: U64}, {Name: "b", Kind: Bytes}, {Name: "s", Kind: Str}, {Name: "f", Kind: Fixed, Width: 2},
	}, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := all.WithAppended(empty)
	if err != nil {
		t.Fatal(err)
	}
	shards := all.SplitRanges(5)
	if shards[4].NumRows() != 0 || shards[4].Parts[0].StartID != all.EndID()+1 {
		t.Fatalf("fixture: shard 4 is not the inverted empty envelope: %+v", shards[4].Parts[0])
	}
	for name, tbl := range map[string]*Table{
		"every kind":        all,
		"empty partition":   empty,
		"empty batch after": grown,
		"no partitions":     {Name: "none"},
		"inverted envelope": shards[4],
	} {
		var buf bytes.Buffer
		n, err := tbl.WriteTo(&buf)
		if err != nil || n != int64(buf.Len()) || uint64(n) != tbl.DiskBytes() {
			t.Fatalf("%s: WriteTo = %d, %v; buffer %d, DiskBytes %d", name, n, err, buf.Len(), tbl.DiskBytes())
		}
		img := buf.Bytes()
		back, err := Read(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Name != tbl.Name || back.NumRows() != tbl.NumRows() || back.EndID() != tbl.EndID() || len(back.Parts) != len(tbl.Parts) {
			t.Fatalf("%s: read %q, %d rows to %d in %d partitions", name, back.Name, back.NumRows(), back.EndID(), len(back.Parts))
		}
		for pi, p := range tbl.Parts {
			q := back.Parts[pi]
			if q.StartID != p.StartID || q.IsView() || len(q.Cols) != len(p.Cols) {
				t.Fatalf("%s: partition %d is %+v", name, pi, q)
			}
			for ci := range p.Cols {
				want, got := &p.Cols[ci], &q.Cols[ci]
				if got.Meta() != want.Meta() || got.Len() != want.Len() {
					t.Fatalf("%s: partition %d column %d is %+v, want %+v", name, pi, ci, got, want)
				}
				for r := 0; r < want.Len(); r++ {
					switch want.Kind {
					case U64:
						if got.U64[r] != want.U64[r] {
							t.Fatalf("%s: %q row %d", name, want.Name, r)
						}
					case Str:
						if got.Str[r] != want.Str[r] {
							t.Fatalf("%s: %q row %d", name, want.Name, r)
						}
					default:
						if !bytes.Equal(got.BytesAt(r), want.BytesAt(r)) {
							t.Fatalf("%s: %q row %d", name, want.Name, r)
						}
					}
				}
			}
		}
		again, err := AppendImage(nil, back)
		if err != nil || !bytes.Equal(again, img) {
			t.Fatalf("%s: the read table re-encodes differently (%v)", name, err)
		}
	}
	img, err := AppendImage(nil, all)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := uintptr(unsafe.Pointer(&img[0])), uintptr(unsafe.Pointer(&img[len(img)-1]))
	for _, p := range []unsafe.Pointer{unsafe.Pointer(&back.Parts[0].Cols[0].U64[0]), unsafe.Pointer(&back.Parts[0].Cols[3].Fixed[0])} {
		if uintptr(p) < lo || uintptr(p) > hi {
			t.Error("decoded U64 and Fixed vectors were copied out of the image")
		}
	}
}

// TestReadRejectsHostileImages: every lie fuzzHostileImages tells — CRCs
// that do not match, an extent out of bounds or not where the layout puts
// it, rows the bytes cannot hold, divergent layouts, partitions out of
// identifier order, counts with nothing behind them — is an error saying
// what, and none of them costs memory sized from a declared count.
func TestReadRejectsHostileImages(t *testing.T) {
	for _, h := range append(fuzzHostileImages(), fuzzFixedHeaders()...) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(h.data))
		runtime.ReadMemStats(&after)
		switch {
		case h.want == "":
			if err != nil {
				t.Errorf("%s: %v", h.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), h.want):
			t.Errorf("%s: err = %v, want one naming %s", h.name, err, h.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: reading %d bytes allocated %d", h.name, len(h.data), grew)
		}
	}
}

func TestDiskBytesMatchesWriteTo(t *testing.T) {
	tbl := testTable(t, 100, 3)
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.DiskBytes(); got != uint64(n) {
		t.Fatalf("DiskBytes = %d, WriteTo wrote %d", got, n)
	}
}

func TestMemBytesScalesWithRows(t *testing.T) {
	small := testTable(t, 100, 1)
	large := testTable(t, 1000, 1)
	if large.MemBytes() <= small.MemBytes() {
		t.Fatal("MemBytes must grow with rows")
	}
}

func TestSplitRangesBalancedAndShared(t *testing.T) {
	tbl := testTable(t, 1000, 7)
	subs := tbl.SplitRanges(3)
	if len(subs) != 3 {
		t.Fatalf("sub-tables = %d, want 3", len(subs))
	}
	wantRows := []uint64{334, 333, 333}
	next := uint64(1)
	var total uint64
	for i, sub := range subs {
		if sub.NumRows() != wantRows[i] {
			t.Errorf("shard %d rows = %d, want %d", i, sub.NumRows(), wantRows[i])
		}
		if sub.Parts[0].StartID != next {
			t.Errorf("shard %d starts at id %d, want %d", i, sub.Parts[0].StartID, next)
		}
		if sub.EndID() != next+sub.NumRows()-1 {
			t.Errorf("shard %d EndID = %d, want %d", i, sub.EndID(), next+sub.NumRows()-1)
		}
		// Identifiers are contiguous across the shard's partitions.
		id := sub.Parts[0].StartID
		for _, p := range sub.Parts {
			if p.StartID != id {
				t.Errorf("shard %d partition starts at %d, want %d", i, p.StartID, id)
			}
			id += uint64(p.NumRows())
		}
		next += sub.NumRows()
		total += sub.NumRows()
	}
	if total != tbl.NumRows() {
		t.Fatalf("split covers %d rows, want %d", total, tbl.NumRows())
	}
	// Column vectors are shared, not copied: the first shard's first value
	// aliases the source table's.
	if &subs[0].Parts[0].Cols[0].U64[0] != &tbl.Parts[0].Cols[0].U64[0] {
		t.Fatal("split copied column vectors")
	}
	// Values round the split boundaries survive.
	if got, want := subs[1].Parts[0].Cols[0].U64[0], colValueAt(tbl, 334); got != want {
		t.Fatalf("row 335 in shard 1 = %d, want %d", got, want)
	}
}

// colValueAt returns column "a"'s value for the 0-based global row index.
func colValueAt(tbl *Table, idx int) uint64 {
	for _, p := range tbl.Parts {
		if idx < p.NumRows() {
			return p.Cols[0].U64[idx]
		}
		idx -= p.NumRows()
	}
	panic("index out of range")
}

func TestSplitRangesMoreShardsThanRows(t *testing.T) {
	tbl := testTable(t, 2, 1)
	subs := tbl.SplitRanges(4)
	if len(subs) != 4 {
		t.Fatalf("sub-tables = %d, want 4", len(subs))
	}
	for i, want := range []uint64{1, 1, 0, 0} {
		if subs[i].NumRows() != want {
			t.Errorf("shard %d rows = %d, want %d", i, subs[i].NumRows(), want)
		}
	}
	// Empty shards keep the column layout and a usable append position.
	for _, sub := range subs[2:] {
		if got, want := sub.ColNames(), tbl.ColNames(); !reflect.DeepEqual(got, want) {
			t.Errorf("empty shard columns = %v, want %v", got, want)
		}
		if sub.EndID() != tbl.EndID() {
			t.Errorf("empty shard EndID = %d, want %d", sub.EndID(), tbl.EndID())
		}
	}
}

func TestEndIDWithGaps(t *testing.T) {
	tbl := testTable(t, 10, 2)
	if tbl.EndID() != 10 {
		t.Fatalf("EndID = %d, want 10", tbl.EndID())
	}
	// A shard-style append skips identifiers routed to other shards.
	batch, err := BuildFrom("t", []Column{
		{Name: "a", Kind: U64, U64: []uint64{1, 2}},
		{Name: "b", Kind: Bytes, Bytes: [][]byte{{1}, {2}}},
		{Name: "c", Kind: Str, Str: []string{"x", "y"}},
	}, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := tbl.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRows() != 12 || grown.EndID() != 32 {
		t.Fatalf("grown rows/EndID = %d/%d, want 12/32", grown.NumRows(), grown.EndID())
	}
	// Rewinding or overlapping identifiers still fail.
	if _, err := grown.WithAppended(batch); err == nil {
		t.Fatal("overlapping append accepted")
	}
	// An EMPTY batch with a rewound StartID must also fail: its empty
	// partition would rewind EndID and admit overlapping appends afterwards.
	rewound, err := BuildFrom("t", []Column{
		{Name: "a", Kind: U64, U64: nil},
		{Name: "b", Kind: Bytes, Bytes: nil},
		{Name: "c", Kind: Str, Str: nil},
	}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grown.WithAppended(rewound); err == nil {
		t.Fatal("rewound empty batch accepted")
	}
	// An empty batch continuing the sequence is harmless.
	inPlace, err := BuildFrom("t", []Column{
		{Name: "a", Kind: U64, U64: nil},
		{Name: "b", Kind: Bytes, Bytes: nil},
		{Name: "c", Kind: Str, Str: nil},
	}, 1, grown.EndID()+1)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := grown.WithAppended(inPlace)
	if err != nil {
		t.Fatal(err)
	}
	if ok.NumRows() != grown.NumRows() || ok.EndID() != grown.EndID() {
		t.Fatalf("empty in-place append changed rows/EndID: %d/%d", ok.NumRows(), ok.EndID())
	}
}

func TestSnapshotIsolatedFromInPlaceAppend(t *testing.T) {
	tbl := testTable(t, 10, 2)
	snap := tbl.Snapshot()
	batch, err := BuildFrom("t", []Column{
		{Name: "a", Kind: U64, U64: []uint64{9}},
		{Name: "b", Kind: Bytes, Bytes: [][]byte{{9}}},
		{Name: "c", Kind: Str, Str: []string{"z"}},
	}, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendTable(batch); err != nil {
		t.Fatal(err)
	}
	if snap.NumRows() != 10 || len(snap.Parts) != 2 {
		t.Fatalf("snapshot grew with the original: %d rows, %d parts", snap.NumRows(), len(snap.Parts))
	}
	if tbl.NumRows() != 11 {
		t.Fatalf("original rows = %d, want 11", tbl.NumRows())
	}
}

func TestCovers(t *testing.T) {
	tbl := testTable(t, 10, 3) // ids 1..10
	batch, err := BuildFrom("t", []Column{
		{Name: "a", Kind: U64, U64: []uint64{1, 2}},
		{Name: "b", Kind: Bytes, Bytes: [][]byte{{1}, {2}}},
		{Name: "c", Kind: Str, Str: []string{"x", "y"}},
	}, 1, 31) // ids 31..32, gap 11..30
	if err != nil {
		t.Fatal(err)
	}
	grown, err := tbl.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lo, hi uint64
		want   bool
	}{
		{1, 10, true},
		{3, 7, true},
		{31, 32, true},
		{10, 11, false}, // runs into the gap
		{15, 20, false}, // entirely inside the gap
		{31, 33, false}, // past the end
		{5, 4, false},   // inverted
	} {
		if got := grown.Covers(tc.lo, tc.hi); got != tc.want {
			t.Errorf("Covers(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestFixedColumn pins the fixed-width representation: one buffer, a width in
// the layout, values that are capacity-clipped windows, an extent that is the
// buffer itself, and a width that appends and builds are held to.
func TestFixedColumn(t *testing.T) {
	buf := []byte("aaaabbbbccccdddd")
	tbl, err := Build("t", []Column{{Name: "f", Kind: Fixed, Width: 4, Fixed: buf}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 || tbl.Parts[1].NumRows() != 2 || tbl.Parts[1].Cols[0].Width != 4 {
		t.Fatalf("built %d rows, second partition %+v", tbl.NumRows(), tbl.Parts[1].Cols[0])
	}
	c := &tbl.Parts[1].Cols[0]
	if v := c.BytesAt(0); string(v) != "cccc" || cap(v) != 4 {
		t.Fatalf("BytesAt(0) = %q (cap %d), want cccc clipped to 4", v, cap(v))
	}
	if got, want := tbl.MemBytes(), uint64(len(buf)); got != want {
		t.Errorf("MemBytes = %d, want the buffer's %d: no header per row", got, want)
	}
	if got := ColumnExtentSize(c); got != 8 {
		t.Errorf("ColumnExtentSize = %d, want rows × width = 8: no offset table", got)
	}
	if ext, ok := ExtentView(c); !ok || &ext[0] != &c.Fixed[0] || len(ext) != 8 {
		t.Errorf("ExtentView = %q, %v; want the column's own buffer", ext, ok)
	}

	var ser bytes.Buffer
	if _, err := tbl.WriteTo(&ser); err != nil {
		t.Fatal(err)
	}
	// A 125-byte directory (a width per column entry) padded to 128, then the
	// two partitions' values: no length per value.
	if want := 128 + len(buf); ser.Len() != want {
		t.Errorf("image of %d bytes, want %d: a width per column, no length per value", ser.Len(), want)
	}
	back, err := Read(&ser)
	if err != nil || !reflect.DeepEqual(back.Parts[1].Cols[0], *c) {
		t.Fatalf("round trip: %v, column %+v", err, back.Parts[1].Cols)
	}
	if shards := tbl.SplitRanges(4); string(shards[3].Parts[0].Cols[0].Fixed) != "dddd" {
		t.Errorf("SplitRanges sliced the last row as %q", shards[3].Parts[0].Cols[0].Fixed)
	}

	for _, bad := range []Column{
		{Name: "f", Kind: Fixed, Width: 0, Fixed: buf},
		{Name: "f", Kind: Fixed, Width: 3, Fixed: buf},
	} {
		if _, err := Build("t", []Column{bad}, 1); err == nil || !strings.Contains(err.Error(), `"f"`) {
			t.Errorf("Build with width %d over %d bytes: err = %v, want one naming the column", bad.Width, len(bad.Fixed), err)
		}
	}
	batch, err := BuildFrom("t", []Column{{Name: "f", Kind: Fixed, Width: 8, Fixed: buf}}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendTable(batch); err == nil || !strings.Contains(err.Error(), `"f"`) {
		t.Errorf("appended an 8-byte-wide batch to a 4-byte-wide column: err = %v", err)
	}
}

func TestKindString(t *testing.T) {
	if U64.String() != "u64" || Bytes.String() != "bytes" || Str.String() != "str" || Fixed.String() != "fixed" {
		t.Fatal("Kind.String broken")
	}
}
