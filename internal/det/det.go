// Package det implements the deterministic encryption scheme Seabed falls
// back to for dimensions that take part in joins or that enhanced SPLASHE
// stores in its balanced "others" column (§2.1, §3.4, §4.2).
//
// Deterministic encryption maps each plaintext to exactly one ciphertext, so
// the untrusted server can evaluate equality predicates, group rows, and
// compute joins by comparing ciphertexts directly. The cost is the leakage
// the paper discusses at length: ciphertext equality reveals plaintext
// equality, which is what frequency attacks exploit and what SPLASHE exists
// to prevent.
//
// Two forms are provided:
//
//   - 64-bit values encrypt to a single AES block (the value padded with a
//     verification tag), giving 16-byte ciphertexts.
//   - Arbitrary byte strings use an SIV-style composition: a keyed MAC of
//     the plaintext serves as the synthetic IV for AES-CTR, making the
//     scheme deterministic yet decryptable, with the MAC verified on
//     decryption.
package det

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the master secret length in bytes.
const KeySize = 16

// U64Size is the ciphertext length for 64-bit values.
const U64Size = aes.BlockSize

// sivSize is the synthetic-IV (and MAC tag) length for byte-string mode.
const sivSize = 16

// ErrCorrupt is returned when a ciphertext fails verification on decryption.
var ErrCorrupt = errors.New("det: ciphertext verification failed")

// Key holds the derived block and MAC keys. It is safe for concurrent use.
type Key struct {
	block  cipher.Block // for 64-bit values and CTR mode
	macKey [32]byte     // for the SIV tag
	pad    [8]byte      // keyed verification pad for 64-bit mode
}

// NewKey derives a Key from a 16-byte master secret.
func NewKey(secret []byte) (*Key, error) {
	if len(secret) != KeySize {
		return nil, fmt.Errorf("det: secret must be %d bytes, got %d", KeySize, len(secret))
	}
	// Domain-separated subkeys from the master secret.
	encKey := hmacSHA256(secret, []byte("det-enc"))[:16]
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, fmt.Errorf("det: %v", err)
	}
	k := &Key{block: block}
	copy(k.macKey[:], hmacSHA256(secret, []byte("det-mac")))
	copy(k.pad[:], hmacSHA256(secret, []byte("det-pad")))
	return k, nil
}

// MustNewKey is like NewKey but panics on error.
func MustNewKey(secret []byte) *Key {
	k, err := NewKey(secret)
	if err != nil {
		panic(err)
	}
	return k
}

// EncryptU64 deterministically encrypts a 64-bit value to a 16-byte
// ciphertext.
func (k *Key) EncryptU64(v uint64) []byte {
	return k.EncryptU64Column([]uint64{v})
}

// EncryptU64Column encrypts a whole column into one buffer of
// len(values) × U64Size bytes: value i's ciphertext, byte-equal to
// EncryptU64(values[i]), sits at i*U64Size.
func (k *Key) EncryptU64Column(values []uint64) []byte {
	out := make([]byte, len(values)*U64Size)
	var in [aes.BlockSize]byte
	copy(in[:8], k.pad[:])
	for i, v := range values {
		binary.BigEndian.PutUint64(in[8:], v)
		k.block.Encrypt(out[i*U64Size:(i+1)*U64Size], in[:])
	}
	return out
}

// DecryptU64 inverts EncryptU64, verifying the embedded pad.
func (k *Key) DecryptU64(ct []byte) (uint64, error) {
	var out [aes.BlockSize]byte
	return k.DecryptU64In(ct, &out)
}

// DecryptU64In is DecryptU64 decrypting into out, which the caller keeps: the
// cipher is an interface, so a block of DecryptU64's own is allocated a call,
// and a caller decrypting a column of keys allocates it once.
func (k *Key) DecryptU64In(ct []byte, out *[aes.BlockSize]byte) (uint64, error) {
	if len(ct) != U64Size {
		return 0, fmt.Errorf("det: u64 ciphertext must be %d bytes, got %d", U64Size, len(ct))
	}
	k.block.Decrypt(out[:], ct)
	if !bytes.Equal(out[:8], k.pad[:]) {
		return 0, ErrCorrupt
	}
	return binary.BigEndian.Uint64(out[8:]), nil
}

// EncryptBytes deterministically encrypts an arbitrary byte string. The
// ciphertext is sivSize bytes longer than the plaintext.
func (k *Key) EncryptBytes(p []byte) []byte {
	tag := hmacSHA256(k.macKey[:], p)[:sivSize]
	out := make([]byte, sivSize+len(p))
	copy(out, tag)
	ctr := cipher.NewCTR(k.block, tag)
	ctr.XORKeyStream(out[sivSize:], p)
	return out
}

// DecryptBytes inverts EncryptBytes, verifying the synthetic IV.
func (k *Key) DecryptBytes(ct []byte) ([]byte, error) {
	if len(ct) < sivSize {
		return nil, fmt.Errorf("det: ciphertext too short (%d bytes)", len(ct))
	}
	tag := ct[:sivSize]
	p := make([]byte, len(ct)-sivSize)
	ctr := cipher.NewCTR(k.block, tag)
	ctr.XORKeyStream(p, ct[sivSize:])
	want := hmacSHA256(k.macKey[:], p)[:sivSize]
	if !hmac.Equal(tag, want) {
		return nil, ErrCorrupt
	}
	return p, nil
}

// EncryptString deterministically encrypts a string.
func (k *Key) EncryptString(s string) []byte {
	return k.EncryptBytes([]byte(s))
}

// DecryptString inverts EncryptString.
func (k *Key) DecryptString(ct []byte) (string, error) {
	p, err := k.DecryptBytes(ct)
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func hmacSHA256(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}
