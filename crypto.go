package seabed

import (
	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/idlist"
	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/splashe"
)

// Direct access to the encryption schemes, for users composing Seabed's
// primitives without the full proxy stack (e.g. the quickstart example
// aggregates ASHE ciphertexts by hand).

// ASHE (§3.1): the additively symmetric homomorphic scheme.
type (
	// ASHEKey encrypts and decrypts one column.
	ASHEKey = ashe.Key
	// ASHECiphertext is a group element plus an identifier multiset.
	ASHECiphertext = ashe.Ciphertext
	// IDList is a compressed multiset of row identifiers (§4.5).
	IDList = idlist.List
	// IDListCodec serializes identifier lists (Table 3's encodings).
	IDListCodec = idlist.Codec
)

// NewASHEKey creates an ASHE column key from a 16-byte secret.
func NewASHEKey(secret []byte) (*ASHEKey, error) { return ashe.NewKey(secret) }

// ASHEAdd homomorphically adds two ciphertexts.
func ASHEAdd(a, b ASHECiphertext) ASHECiphertext { return ashe.Add(a, b) }

// DET (§2.1): deterministic encryption for joins and equality.
type DETKey = det.Key

// NewDETKey creates a DET key from a 16-byte secret.
func NewDETKey(secret []byte) (*DETKey, error) { return det.NewKey(secret) }

// ORE (§4.2, Appendix A.3): the Chenette et al. order-revealing scheme.
// Encrypt returns a 16-byte ciphertext (64 trits, two bits each);
// EncryptColumn encrypts a whole column to the same bytes, faster.
type OREKey = ope.Key

// NewOREKey creates an ORE key from a 16-byte secret.
func NewOREKey(secret []byte) (*OREKey, error) { return ope.NewKey(secret) }

// ORECompare order-compares two 16-byte ORE ciphertexts without any key:
// -1, 0 or +1. Bytes of any other length are not a ciphertext: they compare
// below every ciphertext and equal to each other, so check lengths before
// trusting an answer about data you did not encrypt.
func ORECompare(ct1, ct2 []byte) int { return ope.Compare(ct1, ct2) }

// Paillier: the asymmetric baseline CryptDB and Monomi build on.
type (
	// PaillierPrivateKey decrypts.
	PaillierPrivateKey = paillier.PrivateKey
	// PaillierPublicKey encrypts and adds.
	PaillierPublicKey = paillier.PublicKey
)

// SPLASHE (§3.3–3.4): splayed layouts for frequency-attack defense.
type (
	// SplasheLayout describes how one dimension is splayed.
	SplasheLayout = splashe.Layout
)

// PlanBasicSplashe plans a basic layout for a dimension of cardinality d.
func PlanBasicSplashe(d int) (SplasheLayout, error) { return splashe.PlanBasic(d) }

// PlanEnhancedSplashe plans an enhanced layout from per-value counts.
func PlanEnhancedSplashe(counts []uint64) (SplasheLayout, error) {
	return splashe.PlanEnhanced(counts)
}

// FrequencyAttack mounts the rank-matching frequency attack of [36] —
// useful for demonstrating what SPLASHE defends against (see the
// splashe-tour example).
func FrequencyAttack(observed, known []uint64) []int {
	return splashe.FrequencyAttack(observed, known)
}

// IDListCodecs returns the Table 3 / Figure 8 encoding family, in sweep
// order.
func IDListCodecs() []IDListCodec { return idlist.AllCodecs() }
