package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/store"
)

// chunkRows builds n scan rows over one U64, one Bytes, one Str and one Fixed
// (4 bytes wide) column, with per-row value lengths that vary in the
// variable columns so offset bookkeeping is exercised.
func chunkRows(n int) ([]engine.ScanRow, []store.Kind) {
	kinds := []store.Kind{store.U64, store.Bytes, store.Str, store.Fixed}
	rows := make([]engine.ScanRow, n)
	for i := range rows {
		blob := bytes.Repeat([]byte{byte(i)}, i%5)
		rows[i] = engine.ScanRow{
			ID:    uint64(i)*3 + 1,
			U64s:  []uint64{uint64(i) * 0x0101010101010101, 0, 0, 0},
			Bytes: [][]byte{nil, blob, nil, {0xF0, byte(i), byte(i >> 8), 0x0F}},
			Strs:  []string{"", "", string(rune('a' + i%26)), ""},
		}
	}
	return rows, kinds
}

func TestColumnarChunkRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		rows, kinds := chunkRows(n)
		p, err := AppendScanChunk(nil, rows, kinds)
		if err != nil {
			t.Fatalf("encode %d rows: %v", n, err)
		}
		got, err := DecodeScanChunk(p, Version)
		if err != nil {
			t.Fatalf("decode %d rows: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("decoded %d rows, want %d", len(got), n)
		}
		for i := range got {
			if got[i].ID != rows[i].ID {
				t.Fatalf("row %d: id = %d, want %d", i, got[i].ID, rows[i].ID)
			}
			for j := range kinds {
				if got[i].U64s[j] != rows[i].U64s[j] {
					t.Fatalf("row %d col %d: u64 = %d, want %d", i, j, got[i].U64s[j], rows[i].U64s[j])
				}
				if !bytes.Equal(got[i].Bytes[j], rows[i].Bytes[j]) {
					t.Fatalf("row %d col %d: bytes = %x, want %x", i, j, got[i].Bytes[j], rows[i].Bytes[j])
				}
				if got[i].Strs[j] != rows[i].Strs[j] {
					t.Fatalf("row %d col %d: str = %q, want %q", i, j, got[i].Strs[j], rows[i].Strs[j])
				}
			}
		}
	}
}

// TestColumnarChunkZeroCopy verifies the decode contract: Bytes values alias
// the frame payload rather than copying out of it.
func TestColumnarChunkZeroCopy(t *testing.T) {
	rows := []engine.ScanRow{{
		ID:    1,
		U64s:  []uint64{0},
		Bytes: [][]byte{[]byte("ciphertext")},
		Strs:  []string{""},
	}}
	p, err := AppendScanChunk(nil, rows, []store.Kind{store.Bytes})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScanChunk(p, Version)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] ^= 0xFF // mutate the frame: an aliasing decode must see it
	if bytes.Equal(got[0].Bytes[0], []byte("ciphertext")) {
		t.Fatal("decoded Bytes value did not alias the frame payload")
	}
}

// TestColumnarChunkFixedValues: a Fixed column's decoded values are windows of
// the frame, each clipped to its own width — appending to one cannot reach
// the next row's bytes — and the encoder takes the width from the values,
// refusing a column whose values disagree or are empty.
func TestColumnarChunkFixedValues(t *testing.T) {
	rows, kinds := chunkRows(3)
	p, err := AppendScanChunk(nil, rows, kinds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScanChunk(p, Version)
	if err != nil {
		t.Fatal(err)
	}
	v := got[1].Bytes[3]
	if len(v) != 4 || cap(v) != 4 || &v[0] != &p[len(p)-8] {
		t.Fatalf("row 1's fixed value has len %d cap %d, want a 4-byte window of the frame", len(v), cap(v))
	}
	for name, bad := range map[string][]byte{"ragged": {1, 2, 3}, "empty": nil} {
		rows[2].Bytes[3] = bad
		if _, err := AppendScanChunk(nil, rows, kinds); err == nil {
			t.Errorf("%s: encoded a fixed-width column whose last value is %d bytes", name, len(bad))
		}
	}
}

// TestAppendScanChunkNoPerRowAllocs pins the encode path's allocation
// contract: with a primed reusable buffer, streaming a chunk performs zero
// allocations regardless of row count — the server's sink reuses one buffer
// across every chunk of a scan.
func TestAppendScanChunkNoPerRowAllocs(t *testing.T) {
	rows, kinds := chunkRows(512)
	// Prime: one encode to learn the needed capacity.
	primed, err := AppendScanChunk(nil, rows, kinds)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, cap(primed)+1024)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendScanChunk(buf[:0], rows, kinds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendScanChunk allocated %.1f times per call with a primed buffer, want 0", allocs)
	}
}

// FuzzDecodeScanChunk feeds the scan-chunk decoder hostile bytes, as a daemon
// could send them: it must never panic, and a chunk it accepts holds the row
// count its header declares, each row one cell per declared column. Seeds are
// the golden chunk, the round-trip cases' chunks, and truncations of them.
func FuzzDecodeScanChunk(f *testing.F) {
	golden, err := hex.DecodeString(goldenChunkFrame)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{golden}
	for _, n := range []int{0, 1, 7, 1000} {
		rows, kinds := chunkRows(n)
		p, err := AppendScanChunk(nil, rows, kinds)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	for _, p := range seeds {
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:len(p)-1])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rows, err := DecodeScanChunk(p, Version)
		if err != nil {
			return
		}
		nRows, n := binary.Uvarint(p)
		width, _ := binary.Uvarint(p[n:])
		if uint64(len(rows)) != nRows {
			t.Fatalf("accepted a chunk declaring %d rows as %d rows", nRows, len(rows))
		}
		for i, r := range rows {
			if uint64(len(r.U64s)) != width || uint64(len(r.Bytes)) != width || uint64(len(r.Strs)) != width {
				t.Fatalf("row %d has %d/%d/%d cells, the chunk declares %d columns", i, len(r.U64s), len(r.Bytes), len(r.Strs), width)
			}
		}
	})
}

func TestColumnarChunkRejectsHostilePayloads(t *testing.T) {
	rows, kinds := chunkRows(8)
	good, err := AppendScanChunk(nil, rows, kinds)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"huge row count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
		{"width overflows payload", []byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1, 1, 1, 1}},
		{"unknown kind", append([]byte{1, 1, 0x7F}, make([]byte, 16)...)},
		{"truncated extents", good[:len(good)-4]},
		{"fixed column one byte short", good[:len(good)-1]},
		{"fixed width 0 with rows", append([]byte{1, 1, byte(store.Fixed), 0}, make([]byte, 8)...)},
		{"fixed width with no rows", []byte{0, 1, byte(store.Fixed), 16}},
		{"fixed rows × width overflow", append([]byte{2, 1, byte(store.Fixed), 0xFF, 0xFF, 0xFF, 0xFF, 0x07}, make([]byte, 32)...)},
		{"trailing garbage", append(append([]byte{}, good...), 0xAA, 0xBB)},
	}
	for _, tc := range cases {
		if _, err := DecodeScanChunk(tc.p, Version); err == nil {
			t.Errorf("%s: decode accepted a hostile payload", tc.name)
		}
	}
}
