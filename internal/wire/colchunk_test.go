package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/store"
)

// chunkRows builds n scan rows over one U64, one Bytes, one Str and one Fixed
// (4 bytes wide) column, with per-row value lengths that vary in the
// variable columns so offset bookkeeping is exercised.
func chunkRows(n int) ([]engine.ScanRow, []store.Kind) {
	return chunkRowsFrom(0, n), []store.Kind{store.U64, store.Bytes, store.Str, store.Fixed}
}

// chunkRowsFrom builds chunkRows' rows lo..hi-1, all in one chunk of their own.
func chunkRowsFrom(lo, hi int) []engine.ScanRow {
	ch := &engine.ScanChunk{Cols: []store.Column{{Kind: store.U64}, {Kind: store.Bytes}, {Kind: store.Str}, {Kind: store.Fixed, Width: 4}}}
	for i := lo; i < hi; i++ {
		ch.IDs = append(ch.IDs, uint64(i)*3+1)
		ch.Cols[0].U64 = append(ch.Cols[0].U64, uint64(i)*0x0101010101010101)
		ch.Cols[1].Bytes = append(ch.Cols[1].Bytes, bytes.Repeat([]byte{byte(i)}, i%5))
		ch.Cols[2].Str = append(ch.Cols[2].Str, string(rune('a'+i%26)))
		ch.Cols[3].Fixed = append(ch.Cols[3].Fixed, 0xF0, byte(i), byte(i>>8), 0x0F)
	}
	return ch.Rows()
}

// sameCells reports where two scan rows first differ — identifier, width, or
// a cell as any accessor reads it — or "" when they do not.
func sameCells(got, want engine.ScanRow) string {
	if got.ID != want.ID || got.Width() != want.Width() {
		return fmt.Sprintf("row %d of width %d, want row %d of width %d", got.ID, got.Width(), want.ID, want.Width())
	}
	for j := 0; j < want.Width(); j++ {
		if got.U64(j) != want.U64(j) || !bytes.Equal(got.Bytes(j), want.Bytes(j)) || got.Str(j) != want.Str(j) {
			return fmt.Sprintf("row %d col %d: %d/%x/%q, want %d/%x/%q", want.ID, j,
				got.U64(j), got.Bytes(j), got.Str(j), want.U64(j), want.Bytes(j), want.Str(j))
		}
	}
	return ""
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
			if diff := sameCells(got[i], rows[i]); diff != "" {
				t.Fatal(diff)
			}
			if got[i].Chunk() != got[0].Chunk() {
				t.Fatalf("decoded row %d is not in row 0's chunk", i)
			}
		}
	}
}

// TestScanChunkSpansChunks: rows drawn from two chunks — a materialized scan
// sliced at ScanChunkRows crosses task boundaries — encode byte for byte as
// the same rows in one chunk.
func TestScanChunkSpansChunks(t *testing.T) {
	one, kinds := chunkRows(10)
	two := append(chunkRowsFrom(0, 4), chunkRowsFrom(4, 10)...)
	if two[3].Chunk() == two[4].Chunk() {
		t.Fatal("the split rows share a chunk")
	}
	want, err := AppendScanChunk(nil, one, kinds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendScanChunk(nil, two, kinds)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rows from two chunks encode to\n%x (%v)\nwant\n%x", got, err, want)
	}
}

// TestColumnarChunkZeroCopy verifies the decode contract: Bytes values alias
// the frame payload rather than copying out of it.
func TestColumnarChunkZeroCopy(t *testing.T) {
	ch := &engine.ScanChunk{IDs: []uint64{1}, Cols: []store.Column{{Kind: store.Bytes, Bytes: [][]byte{[]byte("ciphertext")}}}}
	p, err := AppendScanChunk(nil, ch.Rows(), []store.Kind{store.Bytes})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScanChunk(p, Version)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] ^= 0xFF // mutate the frame: an aliasing decode must see it
	if bytes.Equal(got[0].Bytes(0), []byte("ciphertext")) {
		t.Fatal("decoded Bytes value did not alias the frame payload")
	}
}

// TestColumnarChunkFixedValues: a Fixed column's decoded values are windows of
// the frame, each clipped to its own width — appending to one cannot reach
// the next row's bytes — and the encoder takes the width from the rows'
// chunks, refusing a width of 0 or rows whose chunks' widths disagree.
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
	v := got[1].Bytes(3)
	if len(v) != 4 || cap(v) != 4 || &v[0] != &p[len(p)-8] {
		t.Fatalf("row 1's fixed value has len %d cap %d, want a 4-byte window of the frame", len(v), cap(v))
	}
	wide := chunkRowsFrom(3, 4)
	wide[0].Chunk().Cols[3] = store.Column{Kind: store.Fixed, Width: 3, Fixed: []byte{1, 2, 3}}
	empty := chunkRowsFrom(0, 1)
	empty[0].Chunk().Cols[3] = store.Column{Kind: store.Fixed}
	for name, bad := range map[string][]engine.ScanRow{"ragged": append(rows, wide...), "empty": empty} {
		if _, err := AppendScanChunk(nil, bad, kinds); err == nil {
			t.Errorf("%s: encoded a fixed-width column of no one width", name)
		}
	}
}

// scanShapeRows builds n rows of the scan workload's shape — an ASHE body and
// a 16-byte DET ciphertext — sliced into chunks of ScanChunkRows, as a daemon
// frames a materialized scan.
func scanShapeRows(n int) ([][]engine.ScanRow, []store.Kind) {
	ch := &engine.ScanChunk{Cols: []store.Column{{Kind: store.U64}, {Kind: store.Fixed, Width: 16}}}
	for i := 0; i < n; i++ {
		ch.IDs = append(ch.IDs, uint64(i)+1)
		ch.Cols[0].U64 = append(ch.Cols[0].U64, uint64(i)*0x9e3779b97f4a7c15)
		ch.Cols[1].Fixed = append(ch.Cols[1].Fixed, bytes.Repeat([]byte{byte(i)}, 16)...)
	}
	rows := ch.Rows()
	var chunks [][]engine.ScanRow
	for lo := 0; lo < n; lo += engine.ScanChunkRows {
		chunks = append(chunks, rows[lo:min(lo+engine.ScanChunkRows, n)])
	}
	return chunks, []store.Kind{store.U64, store.Fixed}
}

// BenchmarkScanChunkRoundTrip measures the scan path's codec: AppendScanChunk
// into a reused buffer, then DecodeScanChunk, over 16 chunks of ScanChunkRows
// rows of the scan workload's shape.
func BenchmarkScanChunkRoundTrip(b *testing.B) {
	chunks, kinds := scanShapeRows(16 * engine.ScanChunkRows)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rows := range chunks {
			var err error
			if buf, err = AppendScanChunk(buf[:0], rows, kinds); err != nil {
				b.Fatal(err)
			}
			// The decoded rows alias buf, and are dropped before it is reused.
			if _, err := DecodeScanChunk(buf, Version); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(16*engine.ScanChunkRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestDecodeScanChunkAllocsFlat pins the decoder's allocation contract: a
// chunk decodes into a fixed handful of blocks — the chunk, its columns, the
// cursors, and a copy of each U64 extent the frame holds unaligned — however
// many rows it carries.
func TestDecodeScanChunkAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		chunks, kinds := scanShapeRows(n)
		p, err := AppendScanChunk(nil, chunks[0], kinds)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeScanChunk(p, Version); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(engine.ScanChunkRows)
	if small != large || large > 6 {
		t.Fatalf("decoding 8 rows took %.0f allocations, %d rows %.0f; want one fixed count ≤ 6", small, engine.ScanChunkRows, large)
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
// count its header declares, every row reads every declared column through
// the accessors, each column holds exactly that many values, and each Fixed
// cell is exactly its column's width. Seeds are the golden chunk, the
// round-trip cases' chunks, and truncations of them.
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
			if uint64(r.Width()) != width {
				t.Fatalf("row %d has %d columns, the chunk declares %d", i, r.Width(), width)
			}
			for j := 0; j < r.Width(); j++ {
				c := &r.Chunk().Cols[j]
				if uint64(c.Len()) != nRows {
					t.Fatalf("column %d holds %d values, the chunk declares %d rows", j, c.Len(), nRows)
				}
				_, b, _ := r.U64(j), r.Bytes(j), r.Str(j)
				if c.Kind == store.Fixed && len(b) != c.Width {
					t.Fatalf("row %d's fixed cell %d is %d bytes, its column %d wide", i, j, len(b), c.Width)
				}
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
