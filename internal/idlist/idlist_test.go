package idlist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestAppendCoalesces(t *testing.T) {
	var l List
	for id := uint64(1); id <= 100; id++ {
		l.Append(id)
	}
	if l.NumRanges() != 1 {
		t.Fatalf("ascending appends produced %d ranges, want 1", l.NumRanges())
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d, want 100", l.Len())
	}
	if l.Ranges()[0] != (Range{1, 100}) {
		t.Fatalf("range = %v, want [1,100]", l.Ranges()[0])
	}
}

func TestAppendGaps(t *testing.T) {
	var l List
	for _, id := range []uint64{2, 3, 4, 9, 23} {
		l.Append(id)
	}
	if got := l.String(); got != "[2-4,9,23]" {
		t.Fatalf("String = %q", got)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
}

func TestAppendRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for lo > hi")
		}
	}()
	var l List
	l.AppendRange(10, 5)
}

func TestMergeCoalescesAbutting(t *testing.T) {
	a := FromRange(1, 50)
	b := FromRange(51, 100)
	a.Merge(b)
	if a.NumRanges() != 1 || a.Len() != 100 {
		t.Fatalf("merge of abutting ranges: %v (len %d)", a.String(), a.Len())
	}
}

func TestMergePreservesDuplicates(t *testing.T) {
	a := FromRange(1, 10)
	b := FromRange(5, 15)
	a.Merge(b)
	if a.Len() != 21 {
		t.Fatalf("multiset merge Len = %d, want 21", a.Len())
	}
	// IDs 5..10 must appear twice.
	counts := map[uint64]int{}
	for _, id := range a.IDs() {
		counts[id]++
	}
	for id := uint64(5); id <= 10; id++ {
		if counts[id] != 2 {
			t.Fatalf("id %d count = %d, want 2", id, counts[id])
		}
	}
}

func TestMergeInterleaved(t *testing.T) {
	var a, b List
	for id := uint64(1); id <= 1000; id += 2 {
		a.Append(id)
	}
	for id := uint64(2); id <= 1000; id += 2 {
		b.Append(id)
	}
	a.Merge(b)
	if a.NumRanges() != 1 || a.Len() != 1000 {
		t.Fatalf("interleaved merge: ranges=%d len=%d, want 1/1000", a.NumRanges(), a.Len())
	}
}

func TestMergeEmpty(t *testing.T) {
	var a List
	b := FromRange(3, 7)
	a.Merge(b)
	if !a.Equal(b) {
		t.Fatal("merge into empty must equal other")
	}
	c := FromRange(3, 7)
	var empty List
	c.Merge(empty)
	if !c.Equal(b) {
		t.Fatal("merge of empty must be identity")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRange(1, 10)
	c := a.Clone()
	a.Append(11)
	if c.Len() != 10 {
		t.Fatal("clone shares state with original")
	}
}

// randomList builds a pseudo-random list with the given number of runs.
func randomList(rng *rand.Rand, runs int) List {
	var l List
	cur := uint64(rng.Intn(100) + 1)
	for i := 0; i < runs; i++ {
		span := uint64(rng.Intn(50))
		l.AppendRange(cur, cur+span)
		cur += span + uint64(rng.Intn(100)) + 2 // keep a gap so runs stay distinct
	}
	return l
}

func TestCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, codec := range AllCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				l := randomList(rng, rng.Intn(30)+1)
				data, err := codec.Encode(l)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				got, err := codec.Decode(data)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !reflect.DeepEqual(got.IDs(), l.IDs()) {
					t.Fatalf("roundtrip mismatch:\n  in  %s\n  out %s", l, got)
				}
			}
		})
	}
}

func TestCodecRoundtripEmpty(t *testing.T) {
	for _, codec := range AllCodecs() {
		data, err := codec.Encode(List{})
		if err != nil {
			t.Fatalf("%s: encode empty: %v", codec.Name(), err)
		}
		got, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode empty: %v", codec.Name(), err)
		}
		if !got.Empty() {
			t.Fatalf("%s: decoded non-empty list from empty input", codec.Name())
		}
	}
}

func TestCodecRoundtripProperty(t *testing.T) {
	f := func(seed int64, runs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomList(rng, int(runs%20)+1)
		for _, codec := range AllCodecs() {
			data, err := codec.Encode(l)
			if err != nil {
				return false
			}
			got, err := codec.Decode(data)
			if err != nil {
				return false
			}
			if got.Len() != l.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapRejectsDuplicates(t *testing.T) {
	a := FromRange(1, 10)
	a.Merge(FromRange(5, 6))
	if _, err := Bitmap.Encode(a); err == nil {
		t.Fatal("bitmap must reject multisets with duplicates")
	}
}

func TestRangeEncodingBeatsVBDiffOnDenseLists(t *testing.T) {
	// A fully contiguous selection (selectivity 100%) is the best case for
	// range encoding (§6.4): constant size vs linear for per-id encodings.
	l := FromRange(1, 100000)
	rv, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := VBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv) >= len(vd)/100 {
		t.Fatalf("range encoding (%dB) should be tiny vs vb+diff (%dB) on contiguous lists", len(rv), len(vd))
	}
}

func TestDiffEncodingShrinksLargeIDs(t *testing.T) {
	// Lists with large absolute ids but small gaps shrink under Diff (§4.5).
	var l List
	base := uint64(1) << 40
	for i := uint64(0); i < 1000; i++ {
		l.Append(base + i*3)
	}
	abs, err := RangeVB.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) >= len(abs) {
		t.Fatalf("diff (%dB) should beat absolute (%dB) for large ids with small gaps", len(diff), len(abs))
	}
}

func TestEveryOtherRowCompressesWellUnderDeflate(t *testing.T) {
	// §6.1: selecting all even rows doubles the raw range list, but the
	// differences are constant so stock compression works very well.
	var l List
	for id := uint64(2); id <= 200000; id += 2 {
		l.Append(id)
	}
	raw, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := RangeVBDiffDeflateFast.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(raw)/10 {
		t.Fatalf("deflate (%dB) should compress the regular pattern far below raw (%dB)", len(comp), len(raw))
	}
}

func TestTable3Examples(t *testing.T) {
	// Table 3's running example: [2..14, 19..23].
	var l List
	l.AppendRange(2, 14)
	l.AppendRange(19, 23)
	if got := l.String(); got != "[2-14,19-23]" {
		t.Fatalf("String = %q, want [2-14,19-23]", got)
	}
	data, err := RangeVBDiff.Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RangeVBDiff.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Fatalf("roundtrip: %s", got)
	}
}

func BenchmarkEncodeDefaultDense(b *testing.B) {
	l := FromRange(1, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Default.Encode(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDefaultSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	l := randomList(rng, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Default.Encode(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomList(rng, 5000)
	y := randomList(rng, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.Merge(y)
	}
}

// TestAppendCodecMatchesEncodeDecode pins the append-style codec methods to
// the allocating ones: AppendEncode after a prefix yields prefix+Encode, and
// AppendDecode after existing ranges yields those ranges untouched followed
// by exactly Decode's — never coalescing across the boundary, even when the
// first decoded identifier abuts the last range already there. Running every
// list twice also exercises the pooled Deflate state's reuse.
func TestAppendCodecMatchesEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, codec := range AllCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				l := randomList(rng, rng.Intn(30)+1)
				want, err := codec.Encode(l)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				prefix := []byte("prefix")
				got, err := codec.AppendEncode(append([]byte(nil), prefix...), l)
				if err != nil {
					t.Fatalf("append-encode: %v", err)
				}
				if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("AppendEncode = %x, want prefix + %x", got, want)
				}

				dec, err := codec.Decode(want)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				first := dec.Ranges()[0].Lo
				held := []Range{{Lo: first - 1, Hi: first - 1}} // abuts the first decoded id
				out, err := codec.AppendDecode(held, want)
				if err != nil {
					t.Fatalf("append-decode: %v", err)
				}
				if out[0] != (Range{Lo: first - 1, Hi: first - 1}) || !View(out[1:]).Equal(dec) {
					t.Fatalf("AppendDecode = %v, want [%d] then %v", out, first-1, dec)
				}
			}
		})
	}
}

// TestAppendDecodeRejectsHostileCounts pins the reservation guards: a few
// bytes claiming a huge element count fail the decode instead of reserving
// for it, and a failed decode leaves the caller's ranges as they were.
func TestAppendDecodeRejectsHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	held := []Range{{Lo: 5, Hi: 9}}
	for _, codec := range []Codec{RangeVB, RangeVBDiff, VBDiff} {
		out, err := codec.AppendDecode(held, huge)
		if err == nil {
			t.Errorf("%s: hostile count accepted", codec.Name())
		}
		if len(out) != 1 || out[0] != held[0] {
			t.Errorf("%s: failed decode changed the caller's ranges: %v", codec.Name(), out)
		}
	}
	words := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 0), 1<<61) // marker, base, word count
	if _, err := Bitmap.AppendDecode(nil, words); err == nil {
		t.Error("bitmap: hostile word count accepted")
	}
}

// TestInflateRefusesOversizedList pins the Deflate decoder's bounds: a small
// payload that inflates past the limit is refused rather than buffered whole,
// and a buffer past maxPooledRaw does not go back to the pool.
func TestInflateRefusesOversizedList(t *testing.T) {
	var bomb bytes.Buffer
	w, _ := flate.NewWriter(&bomb, flate.BestSpeed)
	w.Write(make([]byte, 4<<20)) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()
	st := &inflater{}
	st.r = flate.NewReader(&st.src)
	if _, err := st.inflate(bomb.Bytes(), 1<<16); err == nil {
		t.Fatalf("%d bytes inflating to 4 MiB passed a 64 KiB limit", bomb.Len())
	}
	if cap(st.raw) > 1<<20 {
		t.Fatalf("refused list still buffered %d bytes", cap(st.raw))
	}
	raw, err := st.inflate(bomb.Bytes(), maxInflated)
	if err != nil || len(raw) != 4<<20 {
		t.Fatalf("inflate under the limit: %d bytes, %v", len(raw), err)
	}
	// The same payload through the codec (its first byte, a range count of 0,
	// makes it an empty list): the pooled state must come back small.
	if _, err := RangeVBDiffDeflateFast.AppendDecode(nil, bomb.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if st, _ := inflaters.Get().(*inflater); st != nil && cap(st.raw) > maxPooledRaw {
			t.Fatalf("pooled inflater kept %d bytes", cap(st.raw))
		}
	}
}

// TestViewAliasesWithoutCopy pins View's contract: the list reads the
// caller's ranges, and appending to the list never writes past them.
func TestViewAliasesWithoutCopy(t *testing.T) {
	backing := []Range{{Lo: 1, Hi: 3}, {Lo: 7, Hi: 7}, {Lo: 100, Hi: 100}}
	l := View(backing[:2])
	if l.Len() != 4 || l.NumRanges() != 2 {
		t.Fatalf("View = %v (n=%d)", l, l.Len())
	}
	l.Append(9)
	if backing[2] != (Range{Lo: 100, Hi: 100}) {
		t.Fatalf("appending to a view overwrote the backing array: %v", backing)
	}
}

// decodeBound is the most ranges codec c can decode from n bytes: a range
// costs rangeVB two bytes at least, an identifier costs vbDiff one, a bitmap
// word holds at most 32 runs, Deflate expands at most 1032-fold, and an
// adaptive list is one of the last two.
func decodeBound(c Codec, n int) int {
	switch e := c.(codec).encoding.(type) {
	case rangeVB:
		return n / 2
	case vbDiff:
		return n
	case bitmap:
		return 4 * n
	case deflated:
		return decodeBound(codec{e.inner}, 1032*n+64)
	case adaptive:
		return max(decodeBound(RangeVBDiffDeflateFast, n), 4*n)
	}
	panic("decodeBound: unknown codec " + c.Name())
}

// FuzzAppendDecode runs every codec's decoder over hostile bytes, as the proxy
// does over identifier lists a daemon sent: no input may panic it; a decode
// appends at most what the input can hold (decodeBound) and reserves not much
// more, and a failed one leaves the caller's ranges as they were; and a list a
// codec accepts re-encodes and decodes to the same ranges. Seeds: each codec's
// encodings of random lists, the hostile counts of
// TestAppendDecodeRejectsHostileCounts, and the adaptive codec's hostile
// bitmaps (TestAdaptiveRefusesHostileBitmaps).
func FuzzAppendDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range AllCodecs() {
		for _, runs := range []int{0, 1, 7, 40} {
			data, err := c.Encode(randomList(rng, runs))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 0), 1<<61))
	// A bitmap whose word runs past the last identifier.
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), ^uint64(0)-3), 1), bytes.Repeat([]byte{0xff}, 8)...))
	for _, data := range hostileBitmaps() {
		f.Add(data)
	}

	held := Range{Lo: 5, Hi: 9}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range AllCodecs() {
			out, err := c.AppendDecode([]Range{held}, data)
			bound := decodeBound(c, len(data))
			if cap(out) > 2*(bound+1)+64 {
				t.Fatalf("%s: %d bytes reserved room for %d ranges", c.Name(), len(data), cap(out))
			}
			if len(out) == 0 || out[0] != held {
				t.Fatalf("%s: the decode changed the caller's ranges: %v", c.Name(), out)
			}
			if err != nil {
				if len(out) != 1 {
					t.Fatalf("%s: a failed decode appended %d ranges", c.Name(), len(out)-1)
				}
				continue
			}
			got := out[1:]
			if len(got) > bound {
				t.Fatalf("%s: %d bytes decoded to %d ranges, more than they can hold", c.Name(), len(data), len(got))
			}
			enc, err := c.AppendEncode(nil, View(got))
			if err != nil {
				t.Fatalf("%s: an accepted list does not re-encode: %v", c.Name(), err)
			}
			again, err := c.AppendDecode(nil, enc)
			if err != nil || !slices.Equal(again, got) {
				t.Fatalf("%s: %v re-encoded decodes to %v (%v)", c.Name(), got, again, err)
			}
		}
	})
}
