package ashe

import (
	"math/rand"
	"testing"
	"testing/quick"

	"seabed/internal/idlist"
)

var testKey = MustNewKey([]byte("0123456789abcdef"))

func TestRoundtripSingle(t *testing.T) {
	f := func(m uint64, id uint64) bool {
		if id == 0 {
			id = 1
		}
		ct := testKey.Encrypt(m, id)
		return testKey.Decrypt(ct) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextLooksRandom(t *testing.T) {
	// Encryptions of zero under distinct ids must differ (randomized scheme).
	seen := map[uint64]bool{}
	for id := uint64(1); id <= 1000; id++ {
		body := testKey.EncryptBody(0, id)
		if seen[body] {
			t.Fatalf("duplicate ciphertext body for plaintext 0 at id %d", id)
		}
		seen[body] = true
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	f := func(m1, m2 uint64) bool {
		c1 := testKey.Encrypt(m1, 10)
		c2 := testKey.Encrypt(m2, 11)
		return testKey.Decrypt(Add(c1, c2)) == m1+m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomomorphismManyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum Ciphertext
	var want uint64
	for id := uint64(1); id <= 10000; id++ {
		m := rng.Uint64()
		want += m
		sum.AccumulateBody(testKey.EncryptBody(m, id), id)
	}
	if got := testKey.Decrypt(sum); got != want {
		t.Fatalf("Decrypt = %d, want %d", got, want)
	}
	// Contiguous ids must have collapsed to a single range: decryption is
	// two PRF evaluations (§3.2).
	if n := sum.IDs.NumRanges(); n != 1 {
		t.Fatalf("%d ranges, want 1 for contiguous ids", n)
	}
}

func TestSignedValuesViaTwosComplement(t *testing.T) {
	vals := []int64{-5, 3, -10, 12, 0}
	var sum Ciphertext
	var want int64
	for i, v := range vals {
		id := uint64(i + 1)
		want += v
		sum.Accumulate(testKey.Encrypt(uint64(v), id))
	}
	if got := int64(testKey.Decrypt(sum)); got != want {
		t.Fatalf("signed sum = %d, want %d", got, want)
	}
}

func TestWraparound(t *testing.T) {
	// Sums are mod 2^64 by construction.
	c1 := testKey.Encrypt(^uint64(0), 1)
	c2 := testKey.Encrypt(2, 2)
	if got := testKey.Decrypt(Add(c1, c2)); got != 1 {
		t.Fatalf("wraparound sum = %d, want 1", got)
	}
}

func TestMultisetSemantics(t *testing.T) {
	// Adding the same row twice must double its contribution.
	ct := testKey.Encrypt(21, 5)
	sum := Add(ct, ct)
	if got := testKey.Decrypt(sum); got != 42 {
		t.Fatalf("double-counted row decrypts to %d, want 42", got)
	}
}

func TestZeroValueIsIdentity(t *testing.T) {
	var zero Ciphertext
	ct := testKey.Encrypt(99, 7)
	if got := testKey.Decrypt(Add(zero, ct)); got != 99 {
		t.Fatalf("identity add = %d, want 99", got)
	}
	if got := testKey.Decrypt(zero); got != 0 {
		t.Fatalf("empty ciphertext decrypts to %d, want 0", got)
	}
}

func TestColumnRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := make([]uint64, 5000)
	for i := range values {
		values[i] = rng.Uint64()
	}
	bodies := testKey.EncryptColumn(values, 100)
	back := testKey.DecryptColumn(bodies, 100)
	for i := range values {
		if back[i] != values[i] {
			t.Fatalf("column roundtrip mismatch at %d", i)
		}
	}
}

func TestColumnMatchesSingleEncrypt(t *testing.T) {
	values := []uint64{5, 10, 15, 20}
	bodies := testKey.EncryptColumn(values, 7)
	for i, m := range values {
		if want := testKey.EncryptBody(m, 7+uint64(i)); bodies[i] != want {
			t.Fatalf("column body %d = %#x, want %#x", i, bodies[i], want)
		}
	}
}

// DecryptColumn inverts EncryptColumn one identifier at a time, through the
// single-block PRF path: the reference the windowed encryption is checked
// against.
func (k *Key) DecryptColumn(bodies []uint64, startID uint64) []uint64 {
	out := make([]uint64, len(bodies))
	for i, c := range bodies {
		out[i] = k.DecryptBody(c, startID+uint64(i))
	}
	return out
}

// TestWindowedMatchesPointwise: EncryptColumn's keystream windows give the
// bodies EncryptBody gives one identifier at a time, for columns shorter
// than, equal to and straddling the window, from odd and even first
// identifiers.
func TestWindowedMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, sweepWindow - 1, sweepWindow, sweepWindow + 1, 3*sweepWindow + 17} {
		for _, start := range []uint64{1, 2, 4095, 1 << 33} {
			values := make([]uint64, n)
			for i := range values {
				values[i] = rng.Uint64()
			}
			bodies := testKey.EncryptColumn(values, start)
			for i, m := range values {
				if want := testKey.EncryptBody(m, start+uint64(i)); bodies[i] != want {
					t.Fatalf("%d values from %d: body %d = %#x, pointwise %#x", n, start, i, bodies[i], want)
				}
			}
			back := testKey.DecryptColumn(bodies, start)
			for i := range values {
				if back[i] != values[i] {
					t.Fatalf("%d values from %d: decryption diverges at %d", n, start, i)
				}
			}
		}
	}
}

// TestEncryptColumnKnownAnswer pins EncryptColumn's output under a fixed key:
// every stored ASHE body is m − (F(id) − F(id−1)) under the counter encoding
// of docs/FORMAT.md §1.6, so a change to the pad must be deliberate.
func TestEncryptColumnKnownAnswer(t *testing.T) {
	want := []uint64{0xf67d46158b256b20, 0x136d838ca5b850ed, 0xbc1f79d86a3389ff, 0x82aea819b6a8ce29}
	got := testKey.EncryptColumn([]uint64{0, 1, 2, 1 << 63}, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("body %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestPadMatchesPointwise: a pad's Delta is the single-block path's, over
// spans that start and end on odd and even identifiers and start at
// identifier 1 (so read F(0)); a reused pad holds its last span only.
func TestPadMatchesPointwise(t *testing.T) {
	var pad Pad
	for _, span := range [][2]uint64{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 9}, {4, 100}, {1, 5000}} {
		testKey.Fill(&pad, span[0], span[1])
		if pad.Evals() != span[1]-span[0]+2 {
			t.Fatalf("[%d,%d]: %d evaluations, want %d", span[0], span[1], pad.Evals(), span[1]-span[0]+2)
		}
		for id := span[0]; id <= span[1]; id += 1 + id/7 {
			if got, want := pad.Delta(id), testKey.f.Delta(id); got != want {
				t.Fatalf("[%d,%d]: Delta(%d) = %#x, want %#x", span[0], span[1], id, got, want)
			}
		}
	}
}

// sweepLists deals the identifiers from start, kept one in stride, in runs of
// up to maxRun, to n lists: every list ascends without overlapping.
func sweepLists(rng *rand.Rand, n int, start, span uint64, stride, maxRun int) ([]idlist.Range, []uint64) {
	lists := make([][]idlist.Range, n)
	for id := start; id < start+span; {
		run := uint64(1 + rng.Intn(maxRun))
		if rng.Intn(stride) == 0 {
			g := rng.Intn(n)
			lists[g] = append(lists[g], idlist.Range{Lo: id, Hi: min(id+run-1, start+span-1)})
		}
		id += run + 1 // a gap, so no two ranges of one list abut
	}
	var ranges []idlist.Range
	off := []uint64{0}
	for _, l := range lists {
		ranges = append(ranges, l...)
		off = append(off, uint64(len(ranges)))
	}
	return ranges, off
}

// TestSumListsMatchesDecrypt: a sweep decrypts every list to what Decrypt
// gives it, for 1, 24 and 16k lists, from identifier 1 (F(0)) or later, over
// spans shorter than a window and crossing many, ending on odd and even
// identifiers, with lists empty, singletons or runs; and its evaluations are
// the span's.
func TestSumListsMatchesDecrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pad Pad
	for trial := 0; trial < 40; trial++ {
		n := []int{1, 24, 16_384}[trial%3]
		start := uint64(1 + rng.Intn(4))
		span := uint64(1 + rng.Intn(5*sweepWindow))
		if n == 16_384 {
			span = 200_000
		}
		ranges, off := sweepLists(rng, n, start, span, 1+rng.Intn(4), 1+rng.Intn(6))
		if len(ranges) == 0 {
			continue
		}
		lo, hi := ranges[0].Lo, ranges[0].Hi
		sums, want := make([]uint64, n), make([]uint64, n)
		for g := range sums {
			list := ranges[off[g]:off[g+1]]
			for _, r := range list {
				lo, hi = min(lo, r.Lo), max(hi, r.Hi)
			}
			if !Sweepable(list) {
				t.Fatalf("trial %d: list %d not sweepable: %v", trial, g, list)
			}
			sums[g] = rng.Uint64()
			want[g] = testKey.Decrypt(Ciphertext{Body: sums[g], IDs: idlist.View(list)})
		}
		testKey.SumLists(&pad, sums, ranges, off, lo, hi)
		for g := range sums {
			if sums[g] != want[g] {
				t.Fatalf("trial %d (%d lists over [%d,%d]): list %d sums to %#x, Decrypt gives %#x", trial, n, lo, hi, g, sums[g], want[g])
			}
		}
		if pad.Evals() != hi-lo+2 {
			t.Fatalf("trial %d: %d evaluations, want %d", trial, pad.Evals(), hi-lo+2)
		}
	}
	// Identifiers at the top of the range, as a hostile result may hold:
	// window ends must not wrap past 2⁶⁴.
	top := []idlist.Range{{Lo: 1<<64 - 3000, Hi: 1<<64 - 2990}, {Lo: 1<<64 - 7, Hi: 1<<64 - 1}}
	sums := []uint64{42}
	want := testKey.Decrypt(Ciphertext{Body: 42, IDs: idlist.View(top)})
	testKey.SumLists(&pad, sums, top, []uint64{0, 2}, top[0].Lo, top[1].Hi)
	if sums[0] != want {
		t.Fatalf("lists at the top of the identifier range: %#x, Decrypt gives %#x", sums[0], want)
	}
	if got := testKey.EncryptColumn([]uint64{1, 2, 3}, 1<<64-3); got[2] != testKey.EncryptBody(3, 1<<64-1) {
		t.Fatalf("EncryptColumn ending at identifier 2⁶⁴−1: body %#x, want %#x", got[2], testKey.EncryptBody(3, 1<<64-1))
	}
	for _, list := range [][]idlist.Range{{{Lo: 5, Hi: 4}}, {{Lo: 1, Hi: 5}, {Lo: 5, Hi: 9}}, {{Lo: 7, Hi: 7}, {Lo: 3, Hi: 3}}, {{Lo: 2, Hi: 2}, {Lo: 2, Hi: 2}}} {
		if Sweepable(list) {
			t.Errorf("%v: sweepable, but its endpoints fall", list)
		}
	}
	if !Sweepable([]idlist.Range{{Lo: 1, Hi: 4}, {Lo: 5, Hi: 5}, {Lo: 9, Hi: 12}}) {
		t.Error("abutting ascending ranges: not sweepable")
	}
}

func TestPadPays(t *testing.T) {
	for _, c := range []struct {
		lo, hi, values uint64
		want           bool
	}{
		{1, 1, 2, true},   // one identifier: a pad of 2 values for 2
		{1, 9, 2, true},   // 10 values for 2
		{1, 10, 2, false}, // 11 values for 2
		{1, 200_000, 400_000, true},
		{1, 200_000, 2, false},
		{5, 4, 100, false}, // an inverted span
		{1, 1<<64 - 1, 1 << 20, false},
	} {
		if got := PadPays(c.lo, c.hi, c.values); got != c.want {
			t.Errorf("PadPays(%d, %d, %d) = %v, want %v", c.lo, c.hi, c.values, got, c.want)
		}
	}
}

func TestDifferentKeysProduceDifferentCiphertexts(t *testing.T) {
	other := MustNewKey([]byte("fedcba9876543210"))
	same := 0
	for id := uint64(1); id <= 256; id++ {
		if testKey.EncryptBody(7, id) == other.EncryptBody(7, id) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("keys agree on %d/256 bodies", same)
	}
}

func TestIdentifierZeroPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Encrypt":       func() { testKey.Encrypt(1, 0) },
		"EncryptColumn": func() { testKey.EncryptColumn([]uint64{1}, 0) },
		"DecryptBody":   func() { testKey.DecryptBody(1, 0) },
		"Fill":          func() { testKey.Fill(new(Pad), 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with id 0: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	var sum Ciphertext
	for id := uint64(1); id <= 100; id++ {
		if id%3 == 0 {
			continue // gaps force multiple ranges
		}
		sum.AccumulateBody(testKey.EncryptBody(id*7, id), id)
	}
	for _, codec := range idlist.AllCodecs() {
		data, err := sum.Marshal(codec)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := Unmarshal(data, codec)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if testKey.Decrypt(got) != testKey.Decrypt(sum) {
			t.Fatalf("%s: marshal roundtrip changed decryption", codec.Name())
		}
	}
}

func TestUnmarshalRejectsShortBuffer(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}, idlist.Default); err == nil {
		t.Fatal("want error for short buffer")
	}
}

func TestNewKeyRejectsBadSecret(t *testing.T) {
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("want error for short secret")
	}
}

// Table 1 micro-benchmarks: ASHE encryption/decryption, paper band 12–24 ns.

func BenchmarkEncrypt(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += testKey.EncryptBody(uint64(i), uint64(i)+1)
	}
	_ = sink
}

func BenchmarkDecryptBody(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += testKey.DecryptBody(uint64(i), uint64(i)+1)
	}
	_ = sink
}

func BenchmarkPlainAddBaseline(b *testing.B) {
	// Table 1's "plain addition ~1 ns" row.
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += uint64(i)
	}
	_ = sink
}

func BenchmarkAggregateColumn(b *testing.B) {
	const rows = 1 << 16
	bodies := testKey.EncryptColumn(make([]uint64, rows), 1)
	b.SetBytes(rows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum Ciphertext
		for j, body := range bodies {
			sum.AccumulateBody(body, uint64(j)+1)
		}
		if sum.IDs.NumRanges() != 1 {
			b.Fatal("expected one range")
		}
	}
}

// BenchmarkEncryptColumn measures upload encryption: one 65,536-row column
// under consecutive identifiers, padded a window at a time.
func BenchmarkEncryptColumn(b *testing.B) {
	const rows = 1 << 16
	values := make([]uint64, rows)
	for i := range values {
		values[i] = uint64(i) * 7
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := testKey.EncryptColumn(values, 1); len(out) != rows {
			b.Fatal("short column")
		}
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkPadDecrypt prices the two ways to decrypt the shape of a dense
// group-by: singleton ranges, one identifier in three (so odd and even), dealt
// to 24 lists over a 200,000-identifier span. "point" reports ns per PRF
// value (two per range); "pad" sweeps the span once and reports ns per
// identifier of it, keystream and lookups included. Their ratio is
// padIDsPerValue.
func BenchmarkPadDecrypt(b *testing.B) {
	const span, stride, lists = 200_000, 3, 24
	var ranges []idlist.Range
	off := []uint64{0}
	for g := uint64(0); g < lists; g++ {
		for id := 1 + stride*g; id <= span; id += stride * lists {
			ranges = append(ranges, idlist.Range{Lo: id, Hi: id})
		}
		off = append(off, uint64(len(ranges)))
	}
	sums := make([]uint64, lists)
	b.Run("point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for g := range sums {
				sums[g] = testKey.Decrypt(Ciphertext{IDs: idlist.View(ranges[off[g]:off[g+1]])})
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(ranges)), "ns/value")
	})
	b.Run("pad", func(b *testing.B) {
		var pad Pad
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			testKey.SumLists(&pad, sums, ranges, off, 1, ranges[len(ranges)-1].Hi)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pad.Evals()), "ns/id")
	})
}
