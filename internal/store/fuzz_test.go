package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// FuzzRead feeds hostile bytes to the table image decoder. It sits at every
// trust boundary a table crosses — the daemon hands it the images in upload
// frames from untrusted clients, durable recovery hands it WAL records and
// segment files off disk, a healing daemon hands it a peer's shipped tail —
// so it must reject malformed input with an error: never a panic, and never
// an allocation sized from a declared count the bytes don't back. Whatever it
// accepts must re-emit to the same bytes, since a durable daemon writes the
// upload frame's image, not its own re-encoding. The seed
// corpus is real images of the upload modes' column shapes (NoEnc strings,
// Seabed ASHE/DET columns, Paillier ciphertext blobs), an empty table and a
// table of no partitions, plus truncations, the directory's ways to lie about
// an extent (fuzzHostileImages) and the Fixed column's (fuzzFixedHeaders).
func FuzzRead(f *testing.F) {
	for _, tbl := range fuzzSeedTables(f) {
		valid, err := AppendImage(nil, tbl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		// Truncations: torn tails at awkward offsets.
		for _, cut := range []int{1, len(valid) / 3, len(valid) - 1} {
			f.Add(bytes.Clone(valid[:cut]))
		}
	}
	for _, h := range fuzzHostileImages() {
		f.Add(h.data)
	}
	for _, h := range fuzzFixedHeaders() {
		f.Add(h.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be internally consistent and must
		// re-encode: Read's output feeds straight into the engine and back
		// onto disk during durable compaction.
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
		// An accepted image is canonical: re-encoding what it decodes to
		// gives back its bytes exactly, so a daemon that writes an image it
		// was sent verbatim writes what it would have emitted itself.
		if got := tbl.DiskBytes(); got != uint64(len(data)) {
			t.Fatalf("accepted a %d-byte image that re-encodes to %d", len(data), got)
		}
		img, err := AppendImage(nil, tbl)
		if err != nil {
			t.Fatalf("re-encode accepted table: %v", err)
		}
		if !bytes.Equal(img, data) {
			t.Fatalf("accepted an image that re-encodes to other bytes:\n got %x\nwant %x", img, data)
		}
	})
}

// rawCol is one column of a hand-assembled image: its directory entry's
// layout and the extent bytes placed for it. size, when set, is the extent
// size the directory declares in their place.
type rawCol struct {
	meta ColMeta
	body []byte
	size uint64
}

// rawPart is one partition of a hand-assembled image.
type rawPart struct {
	startID uint64
	rows    uint64
	cols    []rawCol
}

// rawImage assembles an image table "t" whose directory may lie: the extents
// are placed back to back, 8-aligned, where the layout puts them, each
// declared with its body's CRC, and the header is sealed with its true CRC —
// so what ParseImage or DecodeImage has to catch is the lie itself.
func rawImage(parts ...rawPart) []byte {
	dir := ImageDir{Name: "t"}
	headerLen := uint64(4 + 4 + 4 + 4 + 1 + 4 + 4)
	for _, p := range parts {
		headerLen += 8 + 8 + 4
		for _, c := range p.cols {
			headerLen += uint64(4+len(c.meta.Name)) + 1 + 4 + 8 + 8 + 4
		}
	}
	var body []byte
	off := align8(headerLen)
	for _, p := range parts {
		pm := ImagePart{StartID: p.startID, Rows: int(p.rows)}
		for _, c := range p.cols {
			x := ImageExtent{ColMeta: c.meta, Off: off + uint64(len(body)), Size: uint64(len(c.body)), CRC: crc32.ChecksumIEEE(c.body)}
			if c.size != 0 {
				x.Size = c.size
			}
			pm.Cols = append(pm.Cols, x)
			body = append(body, c.body...)
			body = append(body, make([]byte, align8(uint64(len(body)))-uint64(len(body)))...)
		}
		dir.Parts = append(dir.Parts, pm)
	}
	img := dir.appendHeader(nil, headerLen)
	img = append(img, make([]byte, off-headerLen)...)
	return append(img, body...)
}

// rawHeader encodes a directory entry's fields the way appendHeader does,
// for images that carry a declared count with nothing behind it.
func rawHeader(fields ...any) []byte {
	b := []byte(imageMagic)
	b = binary.LittleEndian.AppendUint32(b, imageVersion)
	b = binary.LittleEndian.AppendUint32(b, 0) // headerLen, set below
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case Kind:
			b = append(b, byte(v))
		}
	}
	binary.LittleEndian.PutUint32(b[8:], uint32(len(b)+4))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// fuzzImage is one hostile image, and what Read's error must mention ("" when
// Read may accept it).
type fuzzImage struct {
	name string
	data []byte
	want string
}

// u64Body is the extent of a U64 column holding vals.
func u64Body(vals ...uint64) []byte {
	return AppendColumnExtent(nil, &Column{Kind: U64, U64: vals})
}

// fuzzHostileImages are the ways an image's directory can lie about its
// extents and its counts, each a table "t" of one column "c" unless the lie
// needs two partitions.
func fuzzHostileImages() []fuzzImage {
	u64 := ColMeta{Name: "c", Kind: U64}
	valid := rawImage(rawPart{1, 2, []rawCol{{meta: u64, body: u64Body(7, 8)}}})
	flip := func(at int) []byte {
		b := bytes.Clone(valid)
		b[at] ^= 0x01
		return b
	}
	// padded is an image whose one extent, three Fixed values of width 4, is
	// followed by four bytes of padding; the last is made non-zero.
	padded := rawImage(rawPart{1, 3, []rawCol{{meta: ColMeta{Name: "c", Kind: Fixed, Width: 4}, body: bytes.Repeat([]byte{0xD7}, 12)}}})
	padded[len(padded)-1] = 1
	// The header is 75 bytes, so 5 bytes of padding follow it.
	headerPadded := bytes.Clone(valid)
	headerPadded[binary.LittleEndian.Uint32(valid[8:])] = 1
	// moved declares the extent at offset 8, inside the header, and reseals.
	moved := bytes.Clone(valid)
	hl := binary.LittleEndian.Uint32(moved[8:])
	binary.LittleEndian.PutUint64(moved[hl-4-4-8-8:], 8) // the entry's offset, before size and CRC
	binary.LittleEndian.PutUint32(moved[hl-4:], crc32.ChecksumIEEE(moved[:hl-4]))
	return []fuzzImage{
		{"valid", valid, ""},
		{"header-crc-mismatch", flip(20), "header checksum"},
		{"extent-crc-mismatch", flip(len(valid) - 1), `column "c" extent checksum`},
		{"rows-beyond-the-bytes-present", rawImage(rawPart{1, 3, []rawCol{{meta: u64, body: u64Body(7, 8)}}}), `"c"`},
		{"extent-past-the-end", rawImage(rawPart{1, 2, []rawCol{{meta: u64, body: u64Body(7, 8), size: 24}}}), `column "c" extent`},
		{"extent-not-where-the-layout-puts-it", moved, `column "c" extent`},
		{"bytes-past-the-last-extent", append(bytes.Clone(valid), make([]byte, 8)...), "lays out"},
		{"divergent-layouts", rawImage(
			rawPart{1, 2, []rawCol{{meta: u64, body: u64Body(7, 8)}}},
			rawPart{3, 2, []rawCol{{meta: ColMeta{Name: "d", Kind: U64}, body: u64Body(7, 8)}}},
		), "partition 1 column 0"},
		{"partitions-out-of-identifier-order", rawImage(
			rawPart{5, 2, []rawCol{{meta: u64, body: u64Body(7, 8)}}},
			rawPart{1, 2, []rawCol{{meta: u64, body: u64Body(7, 8)}}},
		), "identifiers"},
		{"huge-u64-row-count-and-no-bytes", rawHeader("t", uint32(1), uint64(1), uint64(1)<<40, uint32(1), "c", U64, uint32(0), uint64(64), uint64(1)<<43, uint32(0)), "declares"},
		{"huge-partition-count-and-no-bytes", rawHeader("t", uint32(math.MaxUint32)), "truncated header"},
		{"huge-column-name-length", rawHeader("t", uint32(1), uint64(1), uint64(0), uint32(1), uint32(math.MaxUint32)), "truncated header"},
		{"unknown-kind", rawImage(rawPart{1, 2, []rawCol{{meta: ColMeta{Name: "c", Kind: 7}, body: u64Body(7, 8)}}}), `column "c" has unknown kind`},
		{"non-zero-padding-after-the-header", headerPadded, "padding after the header"},
		{"non-zero-padding-after-an-extent", padded, `column "c" extent is followed by non-zero padding`},
		{"rows-and-no-columns", rawImage(rawPart{1, 2, nil}), "no columns"},
	}
}

// fuzzFixedHeaders are the ways a Fixed column's directory entry can lie,
// each an image table "t" of one column "c".
func fuzzFixedHeaders() []fuzzImage {
	fixed := func(width int) ColMeta { return ColMeta{Name: "c", Kind: Fixed, Width: width} }
	vals := bytes.Repeat([]byte{0xD7}, 12)
	one := func(rows uint64, width int, body []byte) []byte {
		return rawImage(rawPart{1, rows, []rawCol{{meta: fixed(width), body: body}}})
	}
	return []fuzzImage{
		{"fixed-valid", one(3, 4, vals), ""},
		{"fixed-width-zero", one(3, 0, vals), `column "c"`},
		{"fixed-rows-times-width-overflows", one(1<<40, 1<<30, vals), "declares"},
		{"fixed-width-past-int32", one(1, 1<<31, vals), `column "c"`},
		{"fixed-one-byte-short", one(3, 4, vals[:11]), `column "c"`},
		{"fixed-one-byte-long", one(3, 4, append(bytes.Clone(vals), 0xFF)), `column "c"`},
		{"fixed-width-differs-between-partitions", rawImage(
			rawPart{1, 3, []rawCol{{meta: fixed(4), body: vals}}},
			rawPart{4, 2, []rawCol{{meta: fixed(6), body: vals}}},
		), "partition 1 column 0"},
		{"fixed-where-the-layout-says-variable", rawImage(
			rawPart{1, 1, []rawCol{{meta: ColMeta{Name: "c", Kind: Bytes}, body: AppendColumnExtent(nil, &Column{Kind: Bytes, Bytes: [][]byte{{0xD7}}})}}},
			rawPart{2, 3, []rawCol{{meta: fixed(4), body: vals}}},
		), "partition 1 column 0"},
	}
}

// TestReadFixedHeaders holds Read to the Fixed column's rules on the hostile
// seeds FuzzRead starts from: a lie is an error naming the column (or the
// partition and column that disagree with the table's layout, or the row
// count no image could back), never a column whose values run past its
// buffer.
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
		// Degenerate but legal: an empty table, and one of no partitions.
		build("empty", []Column{{Name: "u", Kind: U64}}),
		{Name: "none"},
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
