// Package client implements Seabed's trusted client-side proxy (§4): the key
// ring, the encryption module that uploads plaintext tables into the
// encrypted schema (§4.3), the decryption module that post-processes query
// results (§4.6), and the proxy facade that ties planner, translator, engine
// and network model together.
//
// Because the proxy holds all secrets and clients talk only to the proxy,
// access revocation never requires re-encryption (§4.3) — the proxy simply
// stops serving a revoked user.
package client

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/ope"
	"seabed/internal/paillier"
)

// KeyRing derives every per-column key from one master secret, so a Seabed
// deployment manages exactly one secret. ASHE keys are derived per physical
// column (§4.2: "We choose a different secret key k for each new column we
// encrypt"); DET and OPE keys per source column.
type KeyRing struct {
	master []byte

	mu     sync.Mutex
	pailSK *paillier.PrivateKey
}

// NewKeyRing creates a key ring from a master secret (at least 16 bytes).
func NewKeyRing(master []byte) (*KeyRing, error) {
	if len(master) < 16 {
		return nil, fmt.Errorf("client: master secret must be at least 16 bytes, got %d", len(master))
	}
	return &KeyRing{master: append([]byte(nil), master...)}, nil
}

func (k *KeyRing) derive(domain, col string) []byte {
	h := hmac.New(sha256.New, k.master)
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(col))
	return h.Sum(nil)[:16]
}

// Ashe returns the ASHE key for a physical column. Each call returns a fresh
// instance, safe to use on the calling goroutine.
func (k *KeyRing) Ashe(col string) *ashe.Key {
	return ashe.MustNewKey(k.derive("ashe", col))
}

// Det returns the DET key for a source column.
func (k *KeyRing) Det(col string) *det.Key {
	return det.MustNewKey(k.derive("det", col))
}

// Ope returns the OPE key for a source column.
func (k *KeyRing) Ope(col string) *ope.Key {
	return ope.MustNewKey(k.derive("ope", col))
}

// EnsurePaillier generates the Paillier key pair used by the baseline mode,
// if not already present.
func (k *KeyRing) EnsurePaillier(bits int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.pailSK != nil {
		return nil
	}
	sk, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return err
	}
	k.pailSK = sk
	return nil
}

// PaillierPK returns the Paillier public key, or nil before EnsurePaillier.
func (k *KeyRing) PaillierPK() *paillier.PublicKey {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.pailSK == nil {
		return nil
	}
	return &k.pailSK.PublicKey
}

// PaillierSK returns the Paillier private key, or nil before EnsurePaillier.
func (k *KeyRing) PaillierSK() *paillier.PrivateKey {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.pailSK
}
