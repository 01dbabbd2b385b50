// Package ope implements the practical order-revealing encryption scheme of
// Chenette, Lewi, Weis and Wu (FSE 2016), which Seabed uses for dimensions
// with range predicates (§4.2, Appendix A.3).
//
// For an n-bit message m with bits b1…bn (most significant first), the
// ciphertext is (u1, …, un) with
//
//	u_i = (F(k, (i, b1…b_{i−1} ‖ 0^{n−i})) + b_i) mod 3
//
// where F is a PRF. Compare finds the smallest index where two ciphertexts
// differ; if u_i = (u'_i + 1) mod 3 the first plaintext is larger. The
// scheme's leakage is precisely quantified: for any pair of ciphertexts it
// reveals the order and the index of the most significant bit where the
// plaintexts differ (inddiff), and nothing more. Unlike the mutable OPE
// used by CryptDB it is stateless and handles dynamic data, which is why
// Seabed adopts it (§4.2).
//
// # Ciphertext layout
//
// A ciphertext is the 64 elements of Z_3 packed two bits each, most
// significant first, into CiphertextSize = 16 bytes: two big-endian 64-bit
// words, u_i (i counted from 0) in bits 63−2(i mod 32) and 62−2(i mod 32) of
// word ⌊i/32⌋. The first differing trit of two ciphertexts is therefore the
// first differing bit pair of their words: two XORs and a leading-zero count.
// The 2-bit code 3 is not a trit and no ciphertext Encrypt produces holds it.
//
// Anything that is not exactly CiphertextSize bytes long is not a ciphertext.
// Compare stays total over such inputs (see CompareLeak) but its answer then
// says nothing about any plaintext, so code that compares stored or received
// bytes checks the length first and reports the value as malformed; the
// engine's filters and aggregates do (engine.Run fails naming the column).
package ope

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// KeySize is the secret key length in bytes.
const KeySize = 16

// Bits is the plaintext width in bits.
const Bits = 64

// CiphertextSize is the ciphertext length in bytes: Bits elements of Z_3 at
// two bits each.
const CiphertextSize = 2 * Bits / 8

// Key encrypts 64-bit values under the ORE scheme. It is safe for concurrent
// use: every operation derives fresh AES blocks without shared state.
type Key struct {
	block cipher.Block
}

// NewKey returns a Key for the given 16-byte secret.
func NewKey(secret []byte) (*Key, error) {
	if len(secret) != KeySize {
		return nil, fmt.Errorf("ope: secret must be %d bytes, got %d", KeySize, len(secret))
	}
	block, err := aes.NewCipher(secret)
	if err != nil {
		return nil, fmt.Errorf("ope: %v", err)
	}
	return &Key{block: block}, nil
}

// MustNewKey is like NewKey but panics on error.
func MustNewKey(secret []byte) *Key {
	k, err := NewKey(secret)
	if err != nil {
		panic(err)
	}
	return k
}

// run encrypts a sequence of values, remembering the last one's PRF outputs
// and ciphertext: F's input at position i is the top i bits of the value, so
// the next value pays an AES block only below the prefix it shares with the
// last. The scheme is deterministic, so what a run produces for a value does
// not depend on what came before it.
type run struct {
	k       *Key
	started bool
	last    uint64
	f       [Bits]uint8 // f[i] = F(k, (i+1, top i bits of last)) mod 3
	w       [2]uint64   // last's ciphertext
	in, out [aes.BlockSize]byte
}

// next encrypts v into dst[:CiphertextSize].
func (r *run) next(v uint64, dst []byte) {
	// The top c bits of v and last agree: f[0..c] and trits 0..c−1 stand.
	c := -1
	if r.started {
		c = bits.LeadingZeros64(v ^ r.last)
	}
	r.started, r.last = true, v
	for i := max(c, 0); i < Bits; i++ {
		if i > c {
			var prefix uint64 // top i bits of v, remaining bits zeroed
			if i > 0 {
				prefix = v &^ (^uint64(0) >> uint(i))
			}
			r.in[0] = byte(i + 1) // bit index, 1-based as in the paper
			binary.BigEndian.PutUint64(r.in[8:], prefix)
			r.k.block.Encrypt(r.out[:], r.in[:])
			r.f[i] = uint8(binary.BigEndian.Uint64(r.out[:8]) % 3)
		}
		bit := (v >> uint(Bits-1-i)) & 1
		shift := uint(62 - 2*(i%32))
		r.w[i/32] = r.w[i/32]&^(3<<shift) | (uint64(r.f[i])+bit)%3<<shift
	}
	binary.BigEndian.PutUint64(dst, r.w[0])
	binary.BigEndian.PutUint64(dst[8:], r.w[1])
}

// Encrypt produces the ORE ciphertext of v: CiphertextSize bytes in the
// package comment's layout.
func (k *Key) Encrypt(v uint64) []byte {
	ct := make([]byte, CiphertextSize)
	r := run{k: k}
	r.next(v, ct)
	return ct
}

// EncryptColumn encrypts a whole column into one buffer of
// len(values) × CiphertextSize bytes: value i's ciphertext, byte-equal to
// Encrypt(values[i]), sits at i*CiphertextSize. The column is split over up
// to runtime.NumCPU() goroutines, and each encrypts its chunk as one run, so a
// value costs AES blocks only below the prefix it shares with the value
// before it — a dimension of small or slowly changing values (days, ages,
// sorted keys) costs a handful of blocks per value instead of 64.
func (k *Key) EncryptColumn(values []uint64) []byte {
	out := make([]byte, len(values)*CiphertextSize)
	chunk := func(lo, hi int) {
		r := run{k: k}
		for i := lo; i < hi; i++ {
			r.next(values[i], out[i*CiphertextSize:(i+1)*CiphertextSize])
		}
	}
	workers := runtime.NumCPU()
	const minChunk = 4096
	if len(values) < minChunk*2 || workers < 2 {
		chunk(0, len(values))
		return out
	}
	size := (len(values) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(values); lo += size {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			chunk(lo, hi)
		}(lo, min(lo+size, len(values)))
	}
	wg.Wait()
	return out
}

// Words returns a ciphertext's two words, the form CompareWords takes. ct
// must be CiphertextSize bytes long.
func Words(ct []byte) (hi, lo uint64) {
	_ = ct[CiphertextSize-1]
	return binary.BigEndian.Uint64(ct), binary.BigEndian.Uint64(ct[8:])
}

// CompareWords is Compare over two ciphertexts held as words, for loops that
// compare a column against one constant (it inlines).
//
// It does not look for the code 3. A hostile pair whose first difference
// holds one still gets an answer by the rule below — "smaller" whichever way
// round the pair is given, so not an order — and never a panic or a loop.
func CompareWords(hi1, lo1, hi2, lo2 uint64) int {
	a, b := hi1, hi2
	if a == b {
		a, b = lo1, lo2
		if a == b {
			return 0
		}
	}
	shift := uint(62 - bits.LeadingZeros64(a^b)&^1) // of the first differing trit
	if (a>>shift&3+3-b>>shift&3)%3 == 1 {
		return 1
	}
	return -1
}

// Compare returns the order of the plaintexts underlying two ciphertexts:
// -1 if ct1 < ct2, 0 if equal, +1 if ct1 > ct2. This is the keyless
// comparison the untrusted server evaluates.
func Compare(ct1, ct2 []byte) int {
	cmp, _ := CompareLeak(ct1, ct2)
	return cmp
}

// CompareLeak is Compare but also returns the scheme's documented leakage:
// the 1-based index of the most significant bit where the plaintexts differ
// (0 when equal).
//
// An argument that is not CiphertextSize bytes long is not a ciphertext. So
// that sorts and fuzzers still see a consistent order, it compares below
// every ciphertext and equal to any other such argument, with inddiff 0.
func CompareLeak(ct1, ct2 []byte) (cmp, inddiff int) {
	ok1, ok2 := len(ct1) == CiphertextSize, len(ct2) == CiphertextSize
	switch {
	case ok1 && ok2:
		hi1, lo1 := Words(ct1)
		hi2, lo2 := Words(ct2)
		switch {
		case hi1 != hi2:
			inddiff = bits.LeadingZeros64(hi1^hi2)/2 + 1
		case lo1 != lo2:
			inddiff = bits.LeadingZeros64(lo1^lo2)/2 + Bits/2 + 1
		}
		return CompareWords(hi1, lo1, hi2, lo2), inddiff
	case ok1:
		return 1, 0
	case ok2:
		return -1, 0
	}
	return 0, 0
}

// Less reports whether ct1's plaintext is strictly smaller than ct2's.
func Less(ct1, ct2 []byte) bool { return Compare(ct1, ct2) < 0 }
