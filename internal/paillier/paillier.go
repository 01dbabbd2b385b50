// Package paillier implements the Paillier public-key cryptosystem, the
// additively homomorphic scheme CryptDB and Monomi rely on and the baseline
// Seabed's evaluation compares against throughout §6.
//
// Encryption of m under public key (N, g = N+1) is c = (1 + mN)·r^N mod N².
// The homomorphic "addition" of two ciphertexts is their product mod N², and
// decryption computes L(c^λ mod N²)·μ mod N with L(x) = (x−1)/N. All
// arithmetic uses math/big, which is why a single Paillier addition costs
// microseconds where an ASHE addition costs a nanosecond — the gap the
// paper's Table 1 and every latency figure measure.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// DefaultBits is the modulus size used by the paper's evaluation (2048-bit
// ciphertext space; §6.1 stores 2048-bit ciphertexts).
const DefaultBits = 1024

var one = big.NewInt(1)

// PublicKey allows encryption and homomorphic addition.
type PublicKey struct {
	N        *big.Int // modulus
	NSquared *big.Int
	bits     int
}

// PrivateKey allows decryption.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p−1, q−1)
	mu     *big.Int // L(g^λ mod N²)^{−1} mod N
}

// GenerateKey creates a Paillier key pair with an N of the given bit length,
// drawing primes from random.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, errors.New("paillier: modulus too small")
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: %v", err)
		}
		q, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: %v", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, new(big.Int).GCD(nil, nil, pm1, qm1)) // lcm
		n2 := new(big.Int).Mul(n, n)

		sk := &PrivateKey{
			PublicKey: PublicKey{N: n, NSquared: n2, bits: bits},
			lambda:    lambda,
		}
		// μ = L(g^λ mod N²)^{−1} mod N, with g = N+1.
		g := new(big.Int).Add(n, one)
		glambda := new(big.Int).Exp(g, lambda, n2)
		l := sk.lFunc(glambda)
		mu := new(big.Int).ModInverse(l, n)
		if mu == nil {
			continue // λ not invertible; re-draw primes
		}
		sk.mu = mu
		return sk, nil
	}
}

// NewPublicKey reconstructs a public key from its modulus, e.g. one received
// over the wire. N² and the bit length are recovered from N itself.
func NewPublicKey(n *big.Int) *PublicKey {
	return &PublicKey{N: n, NSquared: new(big.Int).Mul(n, n), bits: n.BitLen()}
}

// L(x) = (x − 1) / N.
func (sk *PrivateKey) lFunc(x *big.Int) *big.Int {
	t := new(big.Int).Sub(x, one)
	return t.Div(t, sk.N)
}

// Encrypt encrypts m (which must satisfy 0 ≤ m < N) with fresh randomness.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: message out of range")
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	rn := new(big.Int).Exp(r, pk.N, pk.NSquared)
	return pk.encryptWithMask(m, rn), nil
}

// EncryptU64 encrypts a 64-bit value with fresh randomness.
func (pk *PublicKey) EncryptU64(random io.Reader, v uint64) (*big.Int, error) {
	return pk.Encrypt(random, new(big.Int).SetUint64(v))
}

// encryptWithMask computes (1 + mN)·mask mod N² where mask = r^N mod N².
func (pk *PublicKey) encryptWithMask(m, mask *big.Int) *big.Int {
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.NSquared)
	c.Mul(c, mask)
	return c.Mod(c, pk.NSquared)
}

func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: %v", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Add returns the homomorphic sum of two ciphertexts: c1·c2 mod N².
func (pk *PublicKey) Add(c1, c2 *big.Int) *big.Int {
	c := new(big.Int).Mul(c1, c2)
	return c.Mod(c, pk.NSquared)
}

// AddInto accumulates c into acc in place and returns acc. It is the
// aggregation hot path for the Paillier baseline.
func (pk *PublicKey) AddInto(acc, c *big.Int) *big.Int {
	acc.Mul(acc, c)
	return acc.Mod(acc, pk.NSquared)
}

// EncryptZero returns a trivial encryption of zero (mask 1), usable as the
// accumulator identity. It is NOT semantically secure and must only seed
// homomorphic sums.
func (pk *PublicKey) EncryptZero() *big.Int {
	return big.NewInt(1)
}

// Decrypt recovers the plaintext of c.
func (sk *PrivateKey) Decrypt(c *big.Int) *big.Int {
	x := new(big.Int).Exp(c, sk.lambda, sk.NSquared)
	m := sk.lFunc(x)
	m.Mul(m, sk.mu)
	return m.Mod(m, sk.N)
}

// DecryptU64 decrypts c and truncates to 64 bits (mod 2^64), matching the
// Z_2^64 semantics of the plaintext comparison systems.
func (sk *PrivateKey) DecryptU64(c *big.Int) uint64 {
	return sk.Decrypt(c).Uint64()
}

// CiphertextSize returns the fixed serialized ciphertext size in bytes
// (⌈2·bits/8⌉), which Table 5's storage accounting uses.
func (pk *PublicKey) CiphertextSize() int {
	return (2*pk.bits + 7) / 8
}

// Marshal serializes a ciphertext to the fixed CiphertextSize width.
func (pk *PublicKey) Marshal(c *big.Int) []byte {
	buf := make([]byte, pk.CiphertextSize())
	c.FillBytes(buf)
	return buf
}

// Unmarshal inverts Marshal.
func (pk *PublicKey) Unmarshal(data []byte) *big.Int {
	return new(big.Int).SetBytes(data)
}

// MaskPool holds precomputed r^N masks so large benchmark datasets can be
// encrypted quickly. Fresh Paillier encryption costs one |N|-bit modular
// exponentiation per value (≈ milliseconds); a pool amortizes that across
// the dataset. Homomorphic-add and decrypt costs — what the latency figures
// measure — are unaffected. This is a documented substitution (README.md,
// "Paper figures: what is substituted", item 3) used only for dataset preparation, never for the Table 1 cost measurement.
type MaskPool struct {
	pk    *PublicKey
	masks []*big.Int
	next  int
}

// NewMaskPool precomputes size masks. To keep pool construction cheap the
// masks form a geometric sequence base·step^i mod N² from two fresh random
// units (two modular exponentiations total instead of size of them). Each
// mask is a valid r^N value, but the sequence is correlated — acceptable for
// preparing benchmark datasets, NOT for protecting real data; production
// uploads should call Encrypt, which draws fresh randomness per value.
func (pk *PublicKey) NewMaskPool(random io.Reader, size int) (*MaskPool, error) {
	if size <= 0 {
		return nil, errors.New("paillier: mask pool size must be positive")
	}
	base, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	step, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	baseN := new(big.Int).Exp(base, pk.N, pk.NSquared)
	stepN := new(big.Int).Exp(step, pk.N, pk.NSquared)
	masks := make([]*big.Int, size)
	cur := new(big.Int).Set(baseN)
	for i := range masks {
		masks[i] = new(big.Int).Set(cur)
		cur.Mul(cur, stepN)
		cur.Mod(cur, pk.NSquared)
	}
	return &MaskPool{pk: pk, masks: masks}, nil
}

// EncryptU64 encrypts v reusing the next pooled mask.
func (mp *MaskPool) EncryptU64(v uint64) *big.Int {
	mask := mp.masks[mp.next]
	mp.next = (mp.next + 1) % len(mp.masks)
	return mp.pk.encryptWithMask(new(big.Int).SetUint64(v), mask)
}
