package ope

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

var testKey = MustNewKey([]byte("0123456789abcdef"))

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestCompareMatchesPlaintextOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ca, cb := testKey.Encrypt(a), testKey.Encrypt(b)
		return Compare(ca, cb) == cmpU64(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAdjacentValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 127, 128, 1 << 32, ^uint64(0) - 1} {
		ca, cb := testKey.Encrypt(v), testKey.Encrypt(v+1)
		if Compare(ca, cb) != -1 {
			t.Fatalf("Compare(Enc(%d), Enc(%d)) != -1", v, v+1)
		}
		if Compare(cb, ca) != 1 {
			t.Fatalf("Compare(Enc(%d), Enc(%d)) != 1", v+1, v)
		}
	}
}

func TestDeterministicEquality(t *testing.T) {
	a := testKey.Encrypt(12345)
	b := testKey.Encrypt(12345)
	if !bytes.Equal(a, b) {
		t.Fatal("ORE is deterministic; equal plaintexts must produce equal ciphertexts")
	}
	if Compare(a, b) != 0 {
		t.Fatal("Compare of equal ciphertexts must be 0")
	}
}

func TestLeakageIsFirstDifferingBit(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		_, inddiff := CompareLeak(testKey.Encrypt(a), testKey.Encrypt(b))
		want := bits.LeadingZeros64(a^b) + 1 // 1-based index of first differing bit
		return inddiff == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareEdges walks the pairs random sampling will not find: the ends of
// the domain, neighbours, and pairs first differing at bits 32 and 33 — the
// last trit of the first word and the first of the second.
func TestCompareEdges(t *testing.T) {
	max := uint64(math.MaxUint64)
	pairs := [][2]uint64{
		{0, 0}, {0, 1}, {1, 2}, {0, max}, {1, max}, {max - 1, max}, {max, max},
		{1 << 63, 1<<63 - 1},
		{0, 1 << 32}, {1<<32 - 1, 1 << 32}, {5<<33 | 1<<32, 5 << 33}, // bit 32
		{0, 1 << 31}, {1<<31 - 1, 1 << 31}, {9<<32 | 1<<31, 9 << 32}, // bit 33
	}
	for _, p := range pairs {
		for _, ab := range [][2]uint64{p, {p[1], p[0]}} {
			a, b := ab[0], ab[1]
			cmp, inddiff := CompareLeak(testKey.Encrypt(a), testKey.Encrypt(b))
			want := 0
			if a != b {
				want = bits.LeadingZeros64(a^b) + 1
			}
			if cmp != cmpU64(a, b) || inddiff != want {
				t.Errorf("CompareLeak(Enc(%#x), Enc(%#x)) = %d, %d, want %d, %d", a, b, cmp, inddiff, cmpU64(a, b), want)
			}
		}
	}
}

// TestGoldenCiphertext freezes the packing: one key, one value, sixteen
// bytes — and reads every trit back from where the package comment says it
// is, against the scheme's formula evaluated here from scratch.
func TestGoldenCiphertext(t *testing.T) {
	const v = 0x0123456789abcdef
	ct := testKey.Encrypt(v)
	if got, want := hex.EncodeToString(ct), "2aa8510a020108191419254041648804"; got != want {
		t.Fatalf("Encrypt(%#x) = %s, want %s", uint64(v), got, want)
	}
	for i := 0; i < Bits; i++ {
		var in, out [16]byte
		in[0] = byte(i + 1)
		if i > 0 {
			binary.BigEndian.PutUint64(in[8:], v&^(^uint64(0)>>uint(i)))
		}
		testKey.block.Encrypt(out[:], in[:])
		want := (binary.BigEndian.Uint64(out[:8])%3 + v>>uint(63-i)&1) % 3
		word := binary.BigEndian.Uint64(ct[8*(i/32):])
		if got := word >> uint(62-2*(i%32)) & 3; got != want {
			t.Fatalf("trit %d = %d, the scheme gives %d", i, got, want)
		}
	}
}

// TestEncryptColumnMatchesEncrypt holds the column entry point to Encrypt's
// bytes, whatever the previous value in the run was and wherever the chunk
// boundaries fall.
func TestEncryptColumnMatchesEncrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2*4096 + 37 // large enough to split, and not evenly
	random := make([]uint64, n)
	small := make([]uint64, n)
	equal := make([]uint64, n)
	extremes := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64()
		small[i] = uint64(rng.Intn(365))
		equal[i] = 42
		if i%2 == 1 {
			extremes[i] = math.MaxUint64
		}
	}
	sorted := slices.Clone(random)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	cases := map[string][]uint64{
		"empty": nil, "one": {1 << 40}, "random": random, "small": small, "sorted": sorted,
		"reversed": reversed, "all-equal": equal, "alternating-extremes": extremes,
	}
	for name, vals := range cases {
		cts := testKey.EncryptColumn(vals)
		if len(cts) != len(vals)*CiphertextSize {
			t.Fatalf("%s: %d ciphertext bytes for %d values", name, len(cts), len(vals))
		}
		for i, v := range vals {
			got := cts[i*CiphertextSize : (i+1)*CiphertextSize]
			if want := testKey.Encrypt(v); !bytes.Equal(got, want) {
				t.Fatalf("%s: element %d (value %#x) = %x, Encrypt gives %x", name, i, v, got, want)
			}
		}
	}
}

// TestCompareMalformed pins what Compare does with bytes that are not a
// ciphertext: never "equal to a ciphertext", which the one-byte-per-trit form
// answered for every truncated or empty argument.
func TestCompareMalformed(t *testing.T) {
	ct := testKey.Encrypt(7)
	for _, bad := range [][]byte{nil, {}, ct[:15], append(slices.Clone(ct), 0), make([]byte, 64)} {
		if cmp, ind := CompareLeak(bad, ct); cmp != -1 || ind != 0 {
			t.Errorf("CompareLeak(%d bytes, ciphertext) = %d, %d, want -1, 0", len(bad), cmp, ind)
		}
		if cmp, ind := CompareLeak(ct, bad); cmp != 1 || ind != 0 {
			t.Errorf("CompareLeak(ciphertext, %d bytes) = %d, %d, want 1, 0", len(bad), cmp, ind)
		}
		if cmp, _ := CompareLeak(bad, nil); cmp != 0 {
			t.Errorf("CompareLeak(%d bytes, nil) = %d, want 0", len(bad), cmp)
		}
	}
	// The code 3 is not a trit; a pair first differing there is answered
	// "smaller" both ways round, as CompareWords documents.
	three := slices.Clone(ct)
	three[0] |= 0xc0
	if ct[0]&0xc0 == 0xc0 {
		t.Fatal("a ciphertext holds the code 3")
	}
	if a, b := Compare(three, ct), Compare(ct, three); a != -1 || b != -1 {
		t.Errorf("Compare with a code 3 first = %d and %d, want -1 and -1", a, b)
	}
}

// wellFormed reports whether b is CiphertextSize bytes free of the code 3.
func wellFormed(b []byte) bool {
	if len(b) != CiphertextSize {
		return false
	}
	hi, lo := Words(b)
	const odd = 0xaaaaaaaaaaaaaaaa
	return hi&(hi<<1)&odd == 0 && lo&(lo<<1)&odd == 0
}

// FuzzCompare: no input panics, and over well-formed ciphertexts (any sixteen
// bytes without the code 3 — the comparison needs no key) Compare is
// antisymmetric, reflexive and consistent with CompareLeak's index.
func FuzzCompare(f *testing.F) {
	a, b := testKey.Encrypt(0), testKey.Encrypt(math.MaxUint64)
	f.Add(a, b)
	f.Add(a, a)
	f.Add(testKey.Encrypt(1<<32), testKey.Encrypt(1<<32-1))
	f.Add(testKey.Encrypt(1<<31), testKey.Encrypt(1<<31-1))
	f.Add([]byte{}, a)
	f.Add(a[:15], b)
	f.Add(bytes.Repeat([]byte{0xff}, CiphertextSize), a)
	f.Add(make([]byte, 64), make([]byte, 64))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		cxy, ixy := CompareLeak(x, y)
		cyx, iyx := CompareLeak(y, x)
		if len(x) != CiphertextSize || len(y) != CiphertextSize {
			// Not ciphertexts: below every ciphertext, equal to each other.
			if cxy != -cyx || ixy != 0 || iyx != 0 {
				t.Fatalf("malformed pair: %d/%d and %d/%d", cxy, ixy, cyx, iyx)
			}
			return
		}
		if !wellFormed(x) || !wellFormed(y) {
			return
		}
		if cxy != -cyx || ixy != iyx {
			t.Fatalf("Compare(x, y) = %d/%d but Compare(y, x) = %d/%d", cxy, ixy, cyx, iyx)
		}
		if (cxy == 0) != bytes.Equal(x, y) || (cxy == 0) != (ixy == 0) || ixy < 0 || ixy > Bits {
			t.Fatalf("Compare(%x, %x) = %d, inddiff %d", x, y, cxy, ixy)
		}
		if c, _ := CompareLeak(x, x); c != 0 {
			t.Fatalf("Compare(x, x) = %d", c)
		}
	})
}

func TestLeqLess(t *testing.T) {
	c5, c9 := testKey.Encrypt(5), testKey.Encrypt(9)
	if !Less(c5, c9) || Less(c9, c5) || Less(c5, c5) {
		t.Fatal("Less misbehaves")
	}
	if Compare(c5, c9) > 0 || Compare(c5, c5) > 0 || Compare(c9, c5) <= 0 {
		t.Fatal("Compare misorders for ≤")
	}
}

func TestCiphertextSize(t *testing.T) {
	if n := len(testKey.Encrypt(7)); n != CiphertextSize {
		t.Fatalf("ciphertext is %d bytes, want %d", n, CiphertextSize)
	}
}

func TestTransitivity(t *testing.T) {
	// Sortedness check across a spread of values.
	values := []uint64{0, 1, 5, 63, 64, 1000, 1 << 20, 1 << 40, ^uint64(0)}
	cts := make([][]byte, len(values))
	for i, v := range values {
		cts[i] = testKey.Encrypt(v)
	}
	for i := range values {
		for j := range values {
			if Compare(cts[i], cts[j]) != cmpU64(values[i], values[j]) {
				t.Fatalf("Compare(%d, %d) inconsistent", values[i], values[j])
			}
		}
	}
}

func TestDifferentKeysProduceDifferentCiphertexts(t *testing.T) {
	// Sanity check that the key matters: equal plaintexts under different
	// keys must not compare equal.
	other := MustNewKey([]byte("fedcba9876543210"))
	equal := 0
	for v := uint64(0); v < 64; v++ {
		if Compare(testKey.Encrypt(v), other.Encrypt(v)) == 0 {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("%d/64 cross-key ciphertext pairs compared equal; key appears unused", equal)
	}
}

func TestNewKeyRejectsBadSecret(t *testing.T) {
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("want error for short secret")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testKey.Encrypt(uint64(i))
	}
}

// benchColumns are the two shapes a dimension takes: values under 365 (a day
// of the year — 55 leading bits in common with any neighbour) and full-width
// random values (nothing in common).
func benchColumns() map[string][]uint64 {
	rng := rand.New(rand.NewSource(1))
	small, wide := make([]uint64, 1<<14), make([]uint64, 1<<14)
	for i := range small {
		small[i], wide[i] = uint64(rng.Intn(365)), rng.Uint64()
	}
	return map[string][]uint64{"small": small, "wide": wide}
}

var benchSink int

// BenchmarkCompare compares neighbours of a column. Real dimensions are
// "small": the comparison has to get past a long common prefix.
func BenchmarkCompare(b *testing.B) {
	for name, vals := range benchColumns() {
		cts := testKey.EncryptColumn(vals[:256])
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, c := i%256*CiphertextSize, (i+1)%256*CiphertextSize
				benchSink += Compare(cts[a:a+CiphertextSize], cts[c:c+CiphertextSize])
			}
		})
	}
}

// BenchmarkEncryptColumn reports ns and allocations per value; the
// Encrypt-in-a-loop case beside it is what the client ran before.
func BenchmarkEncryptColumn(b *testing.B) {
	for name, vals := range benchColumns() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += len(vals) {
				benchSink += len(testKey.EncryptColumn(vals[:min(len(vals), b.N-i)]))
			}
		})
		b.Run(name+"/encrypt-loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(testKey.Encrypt(vals[i%len(vals)]))
			}
		})
	}
}
