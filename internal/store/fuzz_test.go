package store

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzRead feeds hostile bytes to the table decoder. Read sits at two trust
// boundaries — wire.DecodeRegister hands it network payloads from untrusted
// clients, and durable recovery hands it segment and WAL bytes off disk —
// so it must reject malformed input with an error: never a panic, and never
// an allocation sized from a declared count the stream doesn't back (the
// incremental-append discipline in serialize.go). The seed corpus is real
// serializations of the three upload modes' column shapes (NoEnc strings,
// Seabed ASHE/DET columns, Paillier ciphertext blobs) plus targeted
// mutations: truncations, a huge declared row count, a huge blob length, and
// the Fixed column header's ways to lie (fuzzFixedHeaders).
func FuzzRead(f *testing.F) {
	for _, tbl := range fuzzSeedTables(f) {
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(append([]byte(nil), valid...))
		// Truncations: torn tails at awkward offsets.
		for _, cut := range []int{1, len(valid) / 3, len(valid) - 1} {
			if cut < len(valid) {
				f.Add(append([]byte(nil), valid[:cut]...))
			}
		}
	}
	// A header claiming 2^62 rows of a U64 column with no bytes behind it.
	hostile := []byte(magic)
	hostile = append(hostile, 1, 't') // name "t"
	hostile = append(hostile, 1)      // one partition
	hostile = append(hostile, 1)      // startID 1
	hostile = append(hostile, 1)      // one column
	hostile = binary.AppendUvarint(hostile, 1<<62)
	hostile = append(hostile, 1, 'c', 0) // column "c", kind U64
	f.Add(append([]byte(nil), hostile...))
	// A Bytes row declaring a 2^40-byte blob.
	blob := []byte(magic)
	blob = append(blob, 1, 't', 1, 1, 1, 1) // name, 1 part, startID, 1 col, 1 row
	blob = append(blob, 1, 'c', 1)          // column "c", kind Bytes
	blob = binary.AppendUvarint(blob, 1<<40)
	f.Add(append([]byte(nil), blob...))
	for _, h := range fuzzFixedHeaders() {
		f.Add(h.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be internally consistent and must
		// re-serialize: Read's output feeds straight into the engine and
		// back onto disk during durable compaction.
		var rows uint64
		for _, p := range tbl.Parts {
			n := p.NumRows()
			for i := range p.Cols {
				c := &p.Cols[i]
				if got := c.Len(); got != n {
					t.Fatalf("ragged partition: column %q has %d rows, sibling has %d", c.Name, got, n)
				}
				if c.Meta() != tbl.Parts[0].Cols[i].Meta() {
					t.Fatalf("accepted a table whose partitions disagree on column %d: %+v and %+v", i, c.Meta(), tbl.Parts[0].Cols[i].Meta())
				}
				if c.Kind == Fixed && (c.Width < 1 || len(c.Fixed) != n*c.Width) {
					t.Fatalf("accepted fixed column %q: %d bytes for %d rows of width %d", c.Name, len(c.Fixed), n, c.Width)
				}
			}
			rows += uint64(n)
		}
		if rows != tbl.NumRows() {
			t.Fatalf("NumRows %d, partitions hold %d", tbl.NumRows(), rows)
		}
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			t.Fatalf("re-serialize accepted table: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read re-serialized table: %v", err)
		}
		if again.NumRows() != tbl.NumRows() || len(again.Parts) != len(tbl.Parts) {
			t.Fatalf("round trip drifted: %d rows/%d parts vs %d rows/%d parts",
				again.NumRows(), len(again.Parts), tbl.NumRows(), len(tbl.Parts))
		}
	})
}

// fuzzFixedHeader is one hostile SBD1 stream around a Fixed column, and what
// Read's error must mention ("" when Read may accept the stream).
type fuzzFixedHeader struct {
	name string
	data []byte
	want string
}

// fuzzFixedHeaders are the ways a Fixed column's header can lie, each a
// hand-assembled table "t" of one column "c".
func fuzzFixedHeaders() []fuzzFixedHeader {
	// part is one partition holding column "c"; a Fixed column's header
	// carries the width before the body.
	part := func(startID byte, rows uint64, kind Kind, width uint64, body []byte) []byte {
		b := []byte{startID, 1} // one column
		b = binary.AppendUvarint(b, rows)
		b = append(b, 1, 'c', byte(kind))
		if kind == Fixed {
			b = binary.AppendUvarint(b, width)
		}
		return append(b, body...)
	}
	table := func(parts ...[]byte) []byte {
		b := append([]byte(magic), 1, 't', byte(len(parts)))
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	vals := bytes.Repeat([]byte{0xD7}, 12)
	return []fuzzFixedHeader{
		{"valid", table(part(1, 3, Fixed, 4, vals)), ""},
		{"width-zero", table(part(1, 3, Fixed, 0, vals)), `column "c"`},
		{"rows-times-width-overflows", table(part(1, 1<<40, Fixed, 1<<30, vals)), `column "c"`},
		{"width-past-int32", table(part(1, 1, Fixed, 1<<40, vals)), `column "c"`},
		{"one-byte-short", table(part(1, 3, Fixed, 4, vals[:11])), `column "c"`},
		{"one-byte-long", append(table(part(1, 3, Fixed, 4, vals)), 0xFF), ""}, // Read stops at the table's end
		{"width-differs-between-partitions", table(part(1, 3, Fixed, 4, vals), part(4, 2, Fixed, 6, vals)), "partition 1 column 0"},
		{"fixed-where-the-layout-says-variable", table(part(1, 1, Bytes, 0, []byte{1, 0xD7}), part(2, 3, Fixed, 4, vals)), "partition 1 column 0"},
	}
}

// TestReadFixedHeaders holds Read to the Fixed column header's rules on the
// hostile seeds FuzzRead starts from: a lie is an error naming the column (or
// the partition and column that disagree with the table's layout), never a
// column whose values run past its buffer.
func TestReadFixedHeaders(t *testing.T) {
	for _, h := range fuzzFixedHeaders() {
		tbl, err := Read(bytes.NewReader(h.data))
		switch {
		case h.want == "" && err != nil:
			t.Errorf("%s: %v", h.name, err)
		case h.want == "":
			if c := tbl.Parts[0].Cols[0]; c.Kind != Fixed || c.Width != 4 || c.Len() != 3 || !bytes.Equal(c.BytesAt(2), []byte{0xD7, 0xD7, 0xD7, 0xD7}) {
				t.Errorf("%s: read column %+v", h.name, c)
			}
		case err == nil || !strings.Contains(err.Error(), h.want):
			t.Errorf("%s: err = %v, want one naming %s", h.name, err, h.want)
		}
	}
}

// fuzzSeedTables builds small tables with the column shapes each upload mode
// produces.
func fuzzSeedTables(f *testing.F) []*Table {
	f.Helper()
	build := func(name string, cols []Column) *Table {
		tbl, err := Build(name, cols, 2)
		if err != nil {
			f.Fatal(err)
		}
		return tbl
	}
	return []*Table{
		// NoEnc: plaintext integers and strings.
		build("noenc", []Column{
			{Name: "m", Kind: U64, U64: []uint64{10, 20, 30, 40}},
			{Name: "country", Kind: Str, Str: []string{"CA", "US", "CA", "DE"}},
		}),
		// Seabed: ASHE bodies are U64 words, DET(u64)/OPE dimensions one flat
		// buffer of fixed-width values, DET of strings short blobs.
		build("seabed", []Column{
			{Name: "m_ashe", Kind: U64, U64: []uint64{0xdeadbeef, 0xfeedface, 7, 1 << 60}},
			{Name: "d_det", Kind: Fixed, Width: 8, Fixed: []byte{
				0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
				0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18,
				0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
				0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28,
			}},
			{Name: "s_det", Kind: Bytes, Bytes: [][]byte{{0x01, 0x02, 0x03}, {0x11}, nil, {0x21, 0x22}}},
		}),
		// Paillier: long ciphertext blobs (trimmed to keep the corpus small).
		build("paillier", []Column{
			{Name: "m_pail", Kind: Bytes, Bytes: [][]byte{
				bytes.Repeat([]byte{0xAB}, 128),
				bytes.Repeat([]byte{0xCD}, 128),
				bytes.Repeat([]byte{0xEF}, 128),
				bytes.Repeat([]byte{0x01}, 128),
			}},
		}),
		// Degenerate but legal: an empty table.
		build("empty", []Column{{Name: "u", Kind: U64}}),
	}
}

// FuzzDecodeColumnExtent feeds hostile bytes, kinds and row counts to the
// column-extent decoder. It sits on three trust boundaries — segment files
// off disk, scan chunks and (through wire.DecodeResult's lanes and blocks)
// result frames from an untrusted daemon — so it must reject what it cannot
// decode with an error: never a panic, never a vector longer than the bytes
// behind it. Whatever it accepts must hold exactly the rows asked for, alias
// nothing outside data, re-encode to the bytes consumed, and — for Bytes/Str
// extents — agree with the flat decoder, DecodeBlobExtent. Every error names
// the column. The checked-in corpus (testdata/fuzz) holds the Fixed kind's
// hostile shapes: width 0 and negative, rows × width past int, an extent one
// byte short and one long, a width on a kind that has none.
func FuzzDecodeColumnExtent(f *testing.F) {
	for _, c := range []Column{
		{Kind: U64, U64: []uint64{1, 2, 1 << 63}},
		{Kind: Bytes, Bytes: [][]byte{{1}, nil, {2, 3, 4}}},
		{Kind: Str, Str: []string{"a", "", "bcd"}},
		{Kind: U64, U64: []uint64{}},
		{Kind: Fixed, Width: 4, Fixed: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{Kind: Fixed, Width: 16, Fixed: []byte{}},
	} {
		ext := AppendColumnExtent(nil, &c)
		f.Add(uint8(c.Kind), int64(c.Width), int64(c.Len()), ext)
		f.Add(uint8(c.Kind), int64(c.Width), int64(c.Len()+1), ext) // one row more than the bytes hold
		if len(ext) > 3 {
			f.Add(uint8(c.Kind), int64(c.Width), int64(c.Len()), ext[:len(ext)-3]) // cut mid-word
		}
	}
	f.Add(uint8(U64), int64(0), int64(1)<<61, []byte{1, 2, 3, 4, 5, 6, 7, 8})         // 8×rows overflows
	f.Add(uint8(Bytes), int64(0), int64(1)<<62, make([]byte, 16))                     // so does 8×(rows+1)
	f.Add(uint8(Bytes), int64(0), int64(2), binary.LittleEndian.AppendUint64(nil, 0)) // offsets missing
	backwards := AppendColumnExtent(nil, &Column{Kind: Bytes, Bytes: [][]byte{{1, 2}, {3}}})
	binary.LittleEndian.PutUint64(backwards[8:], 3)
	binary.LittleEndian.PutUint64(backwards[16:], 1)
	f.Add(uint8(Bytes), int64(0), int64(2), backwards) // offsets run backwards
	f.Add(uint8(7), int64(0), int64(1), make([]byte, 8))
	f.Add(uint8(U64), int64(0), int64(-1), make([]byte, 8))
	f.Add(uint8(Fixed), int64(0), int64(2), make([]byte, 8))     // a Fixed column of width 0
	f.Add(uint8(Fixed), int64(1)<<62, int64(4), make([]byte, 8)) // rows×width overflows
	f.Add(uint8(Bytes), int64(16), int64(0), make([]byte, 8))    // a width where the kind has none

	f.Fuzz(func(t *testing.T, kind uint8, width, rows int64, data []byte) {
		if int64(int(rows)) != rows || int64(int(width)) != width {
			return
		}
		col, n, err := DecodeColumnExtent(ColMeta{Name: "fuzz", Kind: Kind(kind), Width: int(width)}, int(rows), data)
		if err != nil && !strings.Contains(err.Error(), `"fuzz"`) {
			t.Fatalf("error does not name the column: %v", err)
		}
		if (Kind(kind) == Bytes || Kind(kind) == Str) && width == 0 {
			off, heap, bn, berr := DecodeBlobExtent("fuzz", int(rows), data)
			if (err == nil) != (berr == nil) {
				t.Fatalf("DecodeColumnExtent err = %v, DecodeBlobExtent err = %v", err, berr)
			}
			if err == nil && (bn != n || len(off) != int(rows)+1 || uint64(len(heap)) != off[rows]) {
				t.Fatalf("flat decode consumed %d bytes, %d offsets, %d heap bytes; row decode consumed %d of %d rows", bn, len(off), len(heap), n, rows)
			}
		}
		if err != nil {
			return
		}
		if n < 0 || n > len(data) || col.Len() != int(rows) {
			t.Fatalf("decoded %d rows from %d of %d bytes, asked for %d rows", col.Len(), n, len(data), rows)
		}
		if col.Kind == Fixed {
			if col.Width != int(width) || len(col.Fixed) != n || cap(col.Fixed) != n {
				t.Fatalf("fixed column of width %d: %d bytes (cap %d) from %d consumed, asked for width %d", col.Width, len(col.Fixed), cap(col.Fixed), n, width)
			}
			for i := 0; i < col.Len(); i++ { // every value is in bounds and its own
				if v := col.BytesAt(i); len(v) != col.Width || cap(v) != col.Width {
					t.Fatalf("value %d has len %d cap %d, width %d", i, len(v), cap(v), col.Width)
				}
			}
		}
		if again := AppendColumnExtent(nil, &col); !bytes.Equal(again, data[:n]) {
			t.Fatalf("accepted extent re-encodes to %x, consumed %x", again, data[:n])
		}
	})
}
