package ashe

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
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

// sweepParts deals the identifiers from start, kept one in stride, in
// stretches of up to maxRun, to nParts parts, a block of stretches at a time,
// so that the parts' spans interleave as appended batches make shards' do.
// Each part then hands its identifiers, in order, to n groups in runs of up to
// maxRun, or, one part in three, all to one group without runs. It returns the
// parts and each group's identifiers as one list.
func sweepParts(rng *rand.Rand, n, nParts int, start, span uint64, stride, maxRun int) ([]Part, []idlist.List) {
	parts := make([]Part, nParts)
	p := 0
	for id := start; id < start+span; {
		run := uint64(1 + rng.Intn(maxRun))
		if rng.Intn(stride) == 0 {
			parts[p].Ranges = append(parts[p].Ranges, idlist.Range{Lo: id, Hi: min(id+run-1, start+span-1)})
		}
		id += run + 1 // a gap, so no two ranges of one part abut
		if rng.Intn(16) == 0 {
			p = rng.Intn(nParts)
		}
	}
	type piece struct {
		g      int
		lo, hi uint64
	}
	var pieces []piece
	for pi := range parts {
		part := &parts[pi]
		ids := idlist.View(part.Ranges).IDs()
		if rng.Intn(3) == 0 { // a part of one group
			part.Group = int32(rng.Intn(n))
			for _, id := range ids {
				pieces = append(pieces, piece{int(part.Group), id, id})
			}
			continue
		}
		for len(ids) > 0 {
			r := idlist.Run{Len: uint32(min(1+rng.Intn(maxRun), len(ids))), Group: int32(rng.Intn(n))}
			part.Runs = append(part.Runs, r)
			for _, id := range ids[:r.Len] {
				pieces = append(pieces, piece{int(r.Group), id, id})
			}
			ids = ids[r.Len:]
		}
	}
	slices.SortFunc(pieces, func(a, b piece) int { return cmp.Compare(a.lo, b.lo) })
	lists := make([]idlist.List, n)
	for _, pc := range pieces {
		lists[pc.g].AppendRange(pc.lo, pc.hi)
	}
	return parts, lists
}

// TestSumPartsMatchesDecrypt: a sweep over parts decrypts every group to what
// Decrypt gives its list, for 1, 24 and 16k groups and 1 to 3 parts whose
// spans interleave, some with their runs' tags mapped to groups (Part.Remap),
// from identifier 1 (F(0)) or later, over spans shorter than a window and
// crossing many, ending on odd and even identifiers, with groups empty,
// singletons or runs; its evaluations are the span's; and the pointwise walk
// (SumPieces) gives the same sums.
func TestSumPartsMatchesDecrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pad Pad
	for trial := 0; trial < 40; trial++ {
		n := []int{1, 24, 16_384}[trial%3]
		start := uint64(1 + rng.Intn(4))
		span := uint64(1 + rng.Intn(5*sweepWindow))
		if n == 16_384 {
			span = 200_000
		}
		parts, lists := sweepParts(rng, n, 1+rng.Intn(3), start, span, 1+rng.Intn(4), 1+rng.Intn(6))
		for i := range parts { // a merged result's part: its runs' tags read through a map
			if len(parts[i].Runs) == 0 || rng.Intn(2) == 0 {
				continue
			}
			remap, tag := make([]int32, n), make([]int32, n)
			for t, g := range rng.Perm(n) {
				remap[t], tag[g] = int32(g), int32(t)
			}
			runs := slices.Clone(parts[i].Runs)
			for j := range runs {
				runs[j].Group = tag[runs[j].Group]
			}
			parts[i].Runs, parts[i].Remap = runs, remap
		}
		lo, hi := uint64(1<<64-1), uint64(0)
		for _, p := range parts {
			for i, r := range p.Ranges {
				if r.Lo > r.Hi || i > 0 && r.Lo <= p.Ranges[i-1].Hi {
					t.Fatalf("trial %d: a part's ranges do not ascend: %v", trial, p.Ranges)
				}
				lo, hi = min(lo, r.Lo), max(hi, r.Hi)
			}
		}
		if lo > hi {
			continue
		}
		sums, pointwise, want := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for g := range sums {
			sums[g] = rng.Uint64()
			pointwise[g] = sums[g]
			want[g] = testKey.Decrypt(Ciphertext{Body: sums[g], IDs: lists[g]})
		}
		testKey.SumParts(&pad, sums, parts, lo, hi)
		testKey.SumPieces(pointwise, parts)
		for g := range sums {
			if sums[g] != want[g] || pointwise[g] != want[g] {
				t.Fatalf("trial %d (%d groups, %d parts over [%d,%d]): group %d sums to %#x swept and %#x pointwise, Decrypt gives %#x",
					trial, n, len(parts), lo, hi, g, sums[g], pointwise[g], want[g])
			}
		}
		if pad.Evals() != hi-lo+2 {
			t.Fatalf("trial %d: %d evaluations, want %d", trial, pad.Evals(), hi-lo+2)
		}
	}
	// Identifiers at the top of the range, as a hostile result may hold:
	// window ends must not wrap past 2⁶⁴.
	top := []idlist.Range{{Lo: 1<<64 - 3000, Hi: 1<<64 - 2990}, {Lo: 1<<64 - 7, Hi: 1<<64 - 1}}
	sums := []uint64{42, 43}
	want := []uint64{
		testKey.Decrypt(Ciphertext{Body: 42, IDs: idlist.View([]idlist.Range{top[0], {Lo: 1<<64 - 7, Hi: 1<<64 - 5}})}),
		testKey.Decrypt(Ciphertext{Body: 43, IDs: idlist.FromRange(1<<64-4, 1<<64-1)}),
	}
	testKey.SumParts(&pad, sums, []Part{{Ranges: top, Runs: []idlist.Run{{Len: 14, Group: 0}, {Len: 4, Group: 1}}}}, top[0].Lo, top[1].Hi)
	if sums[0] != want[0] || sums[1] != want[1] {
		t.Fatalf("a part at the top of the identifier range: %#x, Decrypt gives %#x", sums, want)
	}
	if got := testKey.EncryptColumn([]uint64{1, 2, 3}, 1<<64-3); got[2] != testKey.EncryptBody(3, 1<<64-1) {
		t.Fatalf("EncryptColumn ending at identifier 2⁶⁴−1: body %#x, want %#x", got[2], testKey.EncryptBody(3, 1<<64-1))
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
		ids, err := codec.Decode(data[8:])
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got := Ciphertext{Body: binary.LittleEndian.Uint64(data), IDs: ids}
		if testKey.Decrypt(got) != testKey.Decrypt(sum) {
			t.Fatalf("%s: marshal roundtrip changed decryption", codec.Name())
		}
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
// group-by: one identifier in three (so odd and even) over a
// 200,000-identifier span, dealt to 24 groups in turn, as one part of
// singleton ranges and runs. "point" reports ns per PRF value (two per piece,
// SumPieces); "pad" sweeps the span once (SumParts) and reports ns per
// identifier of it, keystream and lookups included. Their ratio is
// padIDsPerValue.
func BenchmarkPadDecrypt(b *testing.B) {
	const span, stride, groups = 200_000, 3, 24
	var part Part
	for id := uint64(1); id <= span; id += stride {
		part.Ranges = append(part.Ranges, idlist.Range{Lo: id, Hi: id})
		part.Runs = append(part.Runs, idlist.Run{Len: 1, Group: int32(len(part.Runs) % groups)})
	}
	parts := []Part{part}
	sums := make([]uint64, groups)
	b.Run("point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			testKey.SumPieces(sums, parts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(part.Ranges)), "ns/value")
	})
	b.Run("pad", func(b *testing.B) {
		var pad Pad
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			testKey.SumParts(&pad, sums, parts, 1, part.Ranges[len(part.Ranges)-1].Hi)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pad.Evals()), "ns/id")
	})
}
