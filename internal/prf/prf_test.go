package prf

import (
	"testing"
	"testing/quick"
)

var testKey = []byte("0123456789abcdef")

func TestNewRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: want error", n)
		}
	}
	if _, err := New(testKey); err != nil {
		t.Fatalf("New with 16-byte key: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	a := MustNew(testKey)
	b := MustNew(testKey)
	for id := uint64(0); id < 1000; id++ {
		if a.U64(id) != b.U64(id) {
			t.Fatalf("U64(%d) differs between instances with same key", id)
		}
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a := MustNew(testKey)
	b := MustNew([]byte("fedcba9876543210"))
	same := 0
	for id := uint64(0); id < 256; id++ {
		if a.U64(id) == b.U64(id) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different keys agree on %d/256 outputs; PRF looks key-independent", same)
	}
}

func TestCacheConsistency(t *testing.T) {
	// Random-order access must agree with sequential access.
	seq := MustNew(testKey)
	want := make(map[uint64]uint64)
	for id := uint64(0); id < 512; id++ {
		want[id] = seq.U64(id)
	}
	rnd := MustNew(testKey)
	order := []uint64{511, 0, 3, 2, 509, 1, 100, 101, 100, 99, 510}
	for _, id := range order {
		if got := rnd.U64(id); got != want[id] {
			t.Fatalf("U64(%d) = %#x out of order, want %#x", id, got, want[id])
		}
	}
}

func TestDeltaMatchesDefinition(t *testing.T) {
	p := MustNew(testKey)
	f := func(id uint64) bool {
		if id == 0 {
			id = 1
		}
		want := p.U64(id) - p.U64(id-1)
		return p.Delta(id) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeDeltaTelescopes(t *testing.T) {
	p := MustNew(testKey)
	f := func(lo uint64, span uint16) bool {
		if lo == 0 {
			lo = 1
		}
		hi := lo + uint64(span)%256
		var sum uint64
		for i := lo; i <= hi; i++ {
			sum += p.Delta(i)
		}
		return p.RangeDelta(lo, hi) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := MustNew(testKey)
	_ = a.U64(42)
	b := a.Clone()
	if a.U64(7) != b.U64(7) {
		t.Fatal("clone disagrees with original")
	}
	// Interleave accesses in different orders; caches must not interfere.
	for id := uint64(0); id < 100; id++ {
		va := a.U64(id)
		_ = b.U64(99 - id) // perturb b's cache
		if vb := b.U64(id); va != vb {
			t.Fatalf("interleaved access disagrees at id %d: %#x vs %#x", id, va, vb)
		}
	}
}

func TestOutputsLookUniform(t *testing.T) {
	// Crude sanity check: count bits set over many outputs; expect close to half.
	p := MustNew(testKey)
	ones := 0
	const n = 4096
	for id := uint64(0); id < n; id++ {
		v := p.U64(id)
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	total := n * 64
	frac := float64(ones) / float64(total)
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("bit density %.4f; expected ~0.5", frac)
	}
}

func BenchmarkU64Sequential(b *testing.B) {
	p := MustNew(testKey)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.U64(uint64(i))
	}
	_ = sink
}

func BenchmarkU64Random(b *testing.B) {
	p := MustNew(testKey)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.U64(uint64(i) * 2654435761)
	}
	_ = sink
}

// TestKnownAnswers pins F_k(0…3) under a fixed key: the counter-block
// encoding (docs/FORMAT.md §1.6) decides every stored ASHE body, so a change
// to it must be deliberate. Identifiers 0 and 1 are the high and low halves of
// AES_k(0¹²⁸), identifiers 2 and 3 those of AES_k(0¹²⁷ ‖ 1).
func TestKnownAnswers(t *testing.T) {
	want := []uint64{0x0b9b15da4b44a0f5, 0x151dcfc4c01f35d5, 0x01b04c381a66e4e9, 0x4590d25fb0335aec}
	p := MustNew(testKey)
	var s Span
	p.Fill(&s, 0, 3)
	for id, w := range want {
		if got := p.U64(uint64(id)); got != w {
			t.Errorf("U64(%d) = %#x, want %#x", id, got, w)
		}
		if got := s.At(uint64(id)); got != w {
			t.Errorf("span F(%d) = %#x, want %#x", id, got, w)
		}
	}
}

// TestFillMatchesU64: a span's keystream is the single-block path's values,
// whatever the parity of its ends and its length, and a reused span holds
// only its last fill.
func TestFillMatchesU64(t *testing.T) {
	p, ref := MustNew(testKey), MustNew(testKey)
	var s Span
	for _, span := range [][2]uint64{{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 9}, {3, 10}, {5, 200}, {1 << 40, 1<<40 + 1000}, {7, 7}, {1<<63 - 3, 1<<63 + 4}} {
		p.Fill(&s, span[0], span[1])
		for id := span[0]; id <= span[1]; id++ {
			if got, want := s.At(id), ref.U64(id); got != want {
				t.Fatalf("span [%d,%d]: F(%d) = %#x, want %#x", span[0], span[1], id, got, want)
			}
		}
	}
	f := func(lo uint64, n uint16) bool {
		hi := lo + uint64(n)%300
		if hi < lo {
			return true
		}
		p.Fill(&s, lo, hi)
		for id := lo; id <= hi; id++ {
			if s.At(id) != ref.U64(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNextContinuesKeystream: a span moved on by Next holds the identifiers
// after its last, whatever the parity of the first fill's ends, so a sweep of
// windows reads F exactly as the single-block path computes it.
func TestNextContinuesKeystream(t *testing.T) {
	p, ref := MustNew(testKey), MustNew(testKey)
	var s Span
	for _, first := range [][2]uint64{{0, 0}, {1, 6}, {2, 3}, {7, 100}} {
		p.Fill(&s, first[0], first[1])
		next := first[0]
		for _, blocks := range []int{1, 3, 64, 2} {
			for ; next <= s.End(); next++ {
				if got, want := s.At(next), ref.U64(next); got != want {
					t.Fatalf("sweep from %v: F(%d) = %#x, want %#x", first, next, got, want)
				}
			}
			if s.End()%2 != 1 {
				t.Fatalf("sweep from %v: span ends at even %d", first, s.End())
			}
			s.Next(blocks)
			if s.End() != next+uint64(2*blocks)-1 {
				t.Fatalf("sweep from %v: Next(%d) ends at %d, want %d", first, blocks, s.End(), next+uint64(2*blocks)-1)
			}
		}
	}
}

// BenchmarkSpan measures the span path: F over 4096 consecutive identifiers
// per fill, read back through At, reported in identifiers per second.
func BenchmarkSpan(b *testing.B) {
	const n = 4096
	p := MustNew(testKey)
	var s Span
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		lo := uint64(i) * n
		p.Fill(&s, lo, lo+n-1)
		for id := lo; id < lo+n; id++ {
			sink += s.At(id)
		}
	}
	_ = sink
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "ids/s")
}
