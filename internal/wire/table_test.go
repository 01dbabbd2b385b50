package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
	"unsafe"

	"seabed/internal/store"
)

// registerTables are the tables FuzzDecodeRegister's valid seeds carry: one
// column of each kind over two partitions, an empty table and a table of no
// partitions.
func registerTables(tb testing.TB) []*store.Table {
	tb.Helper()
	all, err := store.Build("t", []store.Column{
		{Name: "u", Kind: store.U64, U64: []uint64{1, 2, 3}},
		{Name: "b", Kind: store.Bytes, Bytes: [][]byte{{0xB0}, nil, {0xB1, 0xB2}}},
		{Name: "s", Kind: store.Str, Str: []string{"x", "", "yz"}},
		{Name: "f", Kind: store.Fixed, Width: 4, Fixed: bytes.Repeat([]byte{0xF0}, 12)},
	}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := store.BuildFrom("t", []store.Column{{Name: "u", Kind: store.U64}}, 1, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return []*store.Table{all, empty, {Name: "none"}}
}

// FuzzDecodeRegister feeds hostile bytes to the upload-frame decoder: a
// daemon decodes register and append frames from clients the threat model
// does not trust, and DecodeAppend is DecodeRegister — one layout, one
// decoder — so both must fail cleanly and agree. Whatever image decodes
// (store.DecodeImage, as the daemon decodes it) must re-emit to its own bytes
// exactly, since a durable daemon writes the image it was sent verbatim, and
// re-encode to a frame carrying the same ref and image. The seeds are the
// golden frame and its truncations, frames of every column kind, an empty
// table and a table of no partitions, and frames that lie in the ref's
// length or its padding; the image's own lies are store.FuzzRead's.
func FuzzDecodeRegister(f *testing.F) {
	golden, err := hex.DecodeString(goldenRegisterFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for cut := len(golden) - 1; cut > 0; cut /= 2 {
		f.Add(golden[:cut])
	}
	for _, tbl := range registerTables(f) {
		p, err := EncodeRegister("t@Seabed#r0", tbl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	padded := bytes.Clone(golden)
	padded[len("\x0bt@Seabed#r0")] = 1 // a padding byte that is not zero
	f.Add(padded)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 't'}) // a ref claiming 4 GiB

	f.Fuzz(func(t *testing.T, p []byte) {
		ref, img, err := DecodeRegister(p)
		aref, aimg, aerr := DecodeAppend(p)
		if (err == nil) != (aerr == nil) || aref != ref || !bytes.Equal(aimg, img) {
			t.Fatalf("DecodeRegister = %q, %v; DecodeAppend = %q, %v", ref, err, aref, aerr)
		}
		if err != nil || ref == "" {
			return
		}
		tbl, err := store.DecodeImage(img)
		if err != nil {
			return
		}
		if again, err := store.AppendImage(nil, tbl); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("accepted an image that re-emits to other bytes (%v):\n got %x\nwant %x", err, again, img)
		}
		frame, err := EncodeRegister(ref, tbl)
		if err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		if ref2, img2, err := DecodeRegister(frame); err != nil || ref2 != ref || !bytes.Equal(img2, img) {
			t.Fatalf("re-encoded frame decodes to %q, %v", ref2, err)
		}
	})
}

// TestRegisterFrameAliases: the image starts 8-aligned in the payload, so a
// payload received as ReadFrame allocates it is the storage of the table its
// image decodes to — its U64 and Fixed vectors alias the frame, nothing is
// copied out.
func TestRegisterFrameAliases(t *testing.T) {
	tbl := registerTables(t)[0]
	p, err := EncodeRegister("t@Seabed#r0", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p = bytes.Clone(p) // a fresh allocation, as ReadFrame's
	_, img, err := DecodeRegister(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := store.DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&p[len(p)-1]))
	cols := back.Parts[0].Cols
	for _, v := range []unsafe.Pointer{unsafe.Pointer(&cols[0].U64[0]), unsafe.Pointer(&cols[3].Fixed[0])} {
		if at := uintptr(v); at < lo || at > hi {
			t.Error("a U64 or Fixed column was copied out of the frame")
		}
	}
}
