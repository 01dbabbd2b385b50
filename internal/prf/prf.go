// Package prf implements the keyed pseudo-random function used by Seabed's
// ASHE scheme (§3.1).
//
// The PRF is built from AES-128 used as a pseudo-random permutation, exactly
// as the paper suggests in §3.1 ("Another choice is AES, when used as a
// pseudo-random permutation"). Identifier id is evaluated in the AES block
// whose input is the 128-bit big-endian integer id >> 1; following the
// packing optimization of §4.3, that block yields two 64-bit outputs, its
// high half for the even identifier and its low half for the odd one.
//
// Consecutive identifier pairs are therefore consecutive counter blocks, and
// there are two ways to evaluate the one function:
//
//   - U64, Delta and RangeDelta evaluate single identifiers, one AES call per
//     block, caching the last block so ascending pairs cost one call;
//   - Fill evaluates a span of identifiers as one AES-CTR keystream, which
//     crypto/aes pipelines several blocks at a time, and Span.Next continues
//     that keystream over the identifiers that follow, so a sweep over a
//     long span holds one window of it at a time.
//
// On amd64 Go's crypto/aes uses the AES-NI hardware instructions, which is
// the same acceleration the paper's C++ module relies on.
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"slices"
)

// KeySize is the PRF key length in bytes (AES-128).
const KeySize = 16

// PRF maps 64-bit identifiers to 64-bit pseudo-random values under a secret
// key. A PRF caches the most recently computed AES block, so evaluating
// identifiers in ascending order costs one AES operation per two identifiers
// (the §4.3 packing optimization).
//
// A PRF is not safe for concurrent use; call Clone to obtain independent
// instances for worker goroutines.
type PRF struct {
	block cipher.Block
	key   [KeySize]byte

	// Cached result of the last AES invocation: the block covering
	// identifiers {2*cachedCtr, 2*cachedCtr + 1}.
	cachedCtr uint64
	cachedHi  uint64 // output for even identifier
	cachedLo  uint64 // output for odd identifier
	valid     bool

	in  [aes.BlockSize]byte // scratch, avoids per-call allocation
	out [aes.BlockSize]byte
}

// New returns a PRF keyed with the given 16-byte key.
func New(key []byte) (*PRF, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("prf: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("prf: %v", err)
	}
	p := &PRF{block: block}
	copy(p.key[:], key)
	return p, nil
}

// MustNew is like New but panics on error. It is intended for tests and for
// callers that have already validated the key length.
func MustNew(key []byte) *PRF {
	p, err := New(key)
	if err != nil {
		panic(err)
	}
	return p
}

// Clone returns an independent PRF with the same key, suitable for use from
// another goroutine.
func (p *PRF) Clone() *PRF {
	return MustNew(p.key[:])
}

// U64 returns F_k(id), a 64-bit pseudo-random value for the identifier.
func (p *PRF) U64(id uint64) uint64 {
	ctr := id >> 1
	if !p.valid || p.cachedCtr != ctr {
		p.fill(ctr)
	}
	if id&1 == 0 {
		return p.cachedHi
	}
	return p.cachedLo
}

// Delta returns F_k(id) - F_k(id-1), the pseudo-random pad ASHE adds to a
// plaintext (Appendix A.1 calls this F'). Arithmetic is mod 2^64.
func (p *PRF) Delta(id uint64) uint64 {
	// Evaluate in ascending order so the block cache helps when id-1 and id
	// share an AES block (true for every odd id).
	prev := p.U64(id - 1)
	cur := p.U64(id)
	return cur - prev
}

// RangeDelta returns F_k(hi) - F_k(lo-1), the telescoped sum of Delta(i) for
// i in [lo, hi]. This is the §3.2 optimization: decrypting the sum of a
// contiguous identifier range costs two PRF evaluations regardless of the
// range length.
func (p *PRF) RangeDelta(lo, hi uint64) uint64 {
	low := p.U64(lo - 1)
	high := p.U64(hi)
	return high - low
}

// fill encrypts counter block ctr, the 128-bit big-endian integer 0⁶⁴ ‖ ctr.
func (p *PRF) fill(ctr uint64) {
	binary.BigEndian.PutUint64(p.in[8:], ctr)
	p.block.Encrypt(p.out[:], p.in[:])
	p.cachedCtr = ctr
	p.cachedHi = binary.BigEndian.Uint64(p.out[:8])
	p.cachedLo = binary.BigEndian.Uint64(p.out[8:])
	p.valid = true
}

// Span holds F_k over a span of identifiers: the AES-CTR keystream of the
// span's counter blocks, read in place as big-endian words. Next moves it to
// the identifiers that follow, continuing the keystream, so a sweep over any
// number of windows is one AES-CTR pass. Its buffer is reused by the next
// Fill or Next, so one Span serves any number of spans.
type Span struct {
	base uint64 // the even identifier whose value the keystream starts with
	ks   []byte
	ctr  cipher.Stream
}

// Fill computes F_k(lo) … F_k(hi) into s (lo ≤ hi) with one keystream over
// counter blocks lo>>1 … hi>>1. The caller bounds hi − lo: the span holds
// eight bytes per identifier.
func (p *PRF) Fill(s *Span, lo, hi uint64) {
	base := lo &^ 1
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[8:], base>>1)
	s.ctr, s.base = cipher.NewCTR(p.block, iv[:]), base
	s.fill(int((hi-base)/2 + 1))
}

// Next moves s to the 2·blocks identifiers after the last it held, the next
// blocks of its keystream.
func (s *Span) Next(blocks int) {
	s.base += uint64(len(s.ks) / 8)
	s.fill(blocks)
}

// End returns the last identifier s holds. It is odd: a span holds whole
// blocks.
func (s *Span) End() uint64 { return s.base + uint64(len(s.ks)/8) - 1 }

func (s *Span) fill(blocks int) {
	n := blocks * aes.BlockSize
	// Grow as append does, so spans that creep up (a table being appended
	// to) reallocate now and then, not at every fill.
	s.ks = slices.Grow(s.ks[:0], n)[:n]
	clear(s.ks)
	s.ctr.XORKeyStream(s.ks, s.ks)
}

// At returns F_k(id) for an identifier s holds.
func (s *Span) At(id uint64) uint64 {
	return binary.BigEndian.Uint64(s.ks[(id-s.base)*8:])
}
