// Package ashe implements ASHE, Seabed's additively symmetric homomorphic
// encryption scheme (§3.1, Appendix A.1).
//
// Plaintexts are elements of the additive group Z_2^64, represented as
// uint64 (signed measures map through two's complement). A ciphertext is a
// pair (c, S) where c = m − F_k(id) + F_k(id−1) mod 2^64 and S is a multiset
// of identifiers. Homomorphic addition adds the group elements and unions
// the multisets:
//
//	(c1, S1) ⊕ (c2, S2) = (c1 + c2, S1 ∪ S2)
//
// Decryption computes c + Σ_{i∈S} (F_k(i) − F_k(i−1)). Because the pad of
// identifier i is the telescoping difference F(i) − F(i−1), the sum over a
// contiguous identifier range [lo, hi] collapses to F(hi) − F(lo−1): two PRF
// evaluations per range regardless of length (§3.2). Identifier lists are
// managed by package idlist, which stores them as ranges for exactly this
// reason. Identifiers dense over a span instead — a result's identifier
// section, a window of scan rows, an upload's column — decrypt or encrypt
// against F over the whole span, computed as one AES-CTR keystream (package
// prf) and read a window at a time (SumParts, EncryptColumn) or whole (Pad).
//
// Identifier 0 is reserved: decrypting it would require F(−1), which wraps.
// Seabed assigns row identifiers starting at 1 (§4.2).
package ashe

import (
	"fmt"
	"slices"

	"seabed/internal/idlist"
	"seabed/internal/prf"
)

// Key is a per-column ASHE secret key. Seabed chooses a fresh key for every
// encrypted column (§4.2).
//
// A Key is not safe for concurrent use (the underlying PRF caches its last
// AES block); use Clone to derive per-goroutine instances.
type Key struct {
	f *prf.PRF
}

// NewKey returns a Key for the given 16-byte secret.
func NewKey(secret []byte) (*Key, error) {
	f, err := prf.New(secret)
	if err != nil {
		return nil, fmt.Errorf("ashe: %v", err)
	}
	return &Key{f: f}, nil
}

// MustNewKey is like NewKey but panics on error.
func MustNewKey(secret []byte) *Key {
	k, err := NewKey(secret)
	if err != nil {
		panic(err)
	}
	return k
}

// Clone returns an independent Key with the same secret.
func (k *Key) Clone() *Key { return &Key{f: k.f.Clone()} }

// Ciphertext is an ASHE ciphertext: a group element plus the identifier
// multiset it covers. The zero value is the encryption of 0 over the empty
// multiset and is the identity for Add.
type Ciphertext struct {
	Body uint64
	IDs  idlist.List
}

// Encrypt encrypts m under identifier id (which must be ≥ 1).
func (k *Key) Encrypt(m uint64, id uint64) Ciphertext {
	return Ciphertext{Body: k.EncryptBody(m, id), IDs: idlist.FromRange(id, id)}
}

// EncryptBody returns only the group element of Enc(m, id). Columnar storage
// keeps bodies in a []uint64 with the identifier implicit in the row
// position, so this is the hot path for uploads.
func (k *Key) EncryptBody(m uint64, id uint64) uint64 {
	if id == 0 {
		panic("ashe: identifier 0 is reserved")
	}
	return m - k.f.Delta(id)
}

// Decrypt recovers the plaintext sum encrypted by ct.
func (k *Key) Decrypt(ct Ciphertext) uint64 {
	sum := ct.Body
	for _, r := range ct.IDs.Ranges() {
		if r.Lo == 0 {
			panic("ashe: identifier 0 is reserved")
		}
		sum += k.f.RangeDelta(r.Lo, r.Hi)
	}
	return sum
}

// DecryptBody recovers the plaintext of a single-row ciphertext body.
func (k *Key) DecryptBody(body uint64, id uint64) uint64 {
	if id == 0 {
		panic("ashe: identifier 0 is reserved")
	}
	return body + k.f.Delta(id)
}

// Add returns the homomorphic sum of two ciphertexts.
func Add(a, b Ciphertext) Ciphertext {
	ids := a.IDs.Clone()
	ids.Merge(b.IDs)
	return Ciphertext{Body: a.Body + b.Body, IDs: ids}
}

// Accumulate adds b into a in place, avoiding the clone in Add. It is the
// aggregation hot path on the server.
func (a *Ciphertext) Accumulate(b Ciphertext) {
	a.Body += b.Body
	a.IDs.Merge(b.IDs)
}

// AccumulateBody adds a single row's ciphertext body with identifier id.
func (a *Ciphertext) AccumulateBody(body uint64, id uint64) {
	a.Body += body
	a.IDs.Append(id)
}

// sweepWindow is how many identifiers a sweep of F holds at a time: 32 KiB
// of keystream, which stays in the L1/L2 cache while it is read. A sweep keeps
// one cursor per part (SumParts), a handful, so a window costs a few visits
// however many groups the sums are for.
const sweepWindow = 4096

// EncryptColumn encrypts values under consecutive identifiers starting at
// startID (which must be ≥ 1) and returns the ciphertext bodies. Consecutive
// identifiers give uploads the contiguous-ID property that range encoding
// exploits (§4.2, §4.5), and let the pads come from one AES-CTR keystream
// over the column, sweepWindow identifiers at a time, instead of one AES call
// per value.
func (k *Key) EncryptColumn(values []uint64, startID uint64) []uint64 {
	if startID == 0 {
		panic("ashe: identifier 0 is reserved")
	}
	out := make([]uint64, len(values))
	if len(values) == 0 {
		return out
	}
	last, base := startID+uint64(len(values))-1, (startID-1)&^1
	var s prf.Span
	k.f.Fill(&s, startID-1, base+min(sweepWindow-1, last-base))
	prev, id := s.At(startID-1), startID
	for i, m := range values {
		if id > s.End() {
			s.Next(int(min(sweepWindow, last-id+2) / 2))
		}
		cur := s.At(id)
		out[i] = m - (cur - prev)
		prev, id = cur, id+1
	}
	return out
}

// Part is one identifier section as a sweep reads it: the selected
// identifiers, as ranges, and the runs that hand them out to groups in list
// order (idlist.Run) — Runs[0].Len identifiers to group Runs[0].Group, the
// next Runs[1].Len to Runs[1].Group, and so on. Every run holds at least one
// identifier, and the runs hold exactly the identifiers of Ranges. A part
// without runs hands them all to Group.
type Part struct {
	Ranges []idlist.Range
	Runs   []idlist.Run
	Group  int32
}

// cursor is a sweep's walk over one part's pieces (idlist.Pieces). A piece
// [lo, hi] of group g adds F(hi) − F(lo−1) to g's sum (§3.2); open marks a
// piece whose F(lo−1) is already subtracted while its F(hi) waits for a later
// window.
type cursor struct {
	idlist.Pieces
	open bool
}

// Pieces counts the part's pieces without computing a PRF value.
func (p Part) Pieces() (n uint64) {
	var c idlist.Pieces
	for c.Reset(p.Ranges, p.Runs, p.Group); !c.Done(); n++ {
		lo, hi, _ := c.Piece()
		c.Next(lo, hi)
	}
	return n
}

// SumParts decrypts many ASHE sums against one sweep of F. sums[g] holds the
// body of group g's ciphertext, whose identifiers are the parts' pieces of
// group g, and gains F(hi) − F(lo−1) for each such piece [lo, hi] (§3.2),
// which makes it the plaintext sum. F is computed once over [lo−1, hi], the
// parts' union span, as one AES-CTR keystream read in ascending windows, and
// each part keeps one cursor into its pieces, so p holds one window at a time
// and a sweep costs the same however many groups share the parts. Parts may
// interleave — appended batches spread one range of identifiers over every
// shard — as long as each is Sweepable and inside [lo, hi], and every group a
// run names indexes sums; the caller bounds the span (PadPays). Afterwards
// p.Evals counts the span's values.
func (k *Key) SumParts(p *Pad, sums []uint64, parts []Part, lo, hi uint64) {
	if lo == 0 {
		panic("ashe: identifier 0 is reserved")
	}
	p.cur = slices.Grow(p.cur[:0], len(parts))[:len(parts)]
	for i := range parts {
		p.cur[i] = cursor{}
		p.cur[i].Reset(parts[i].Ranges, parts[i].Runs, parts[i].Group)
	}
	span := hi - lo + 2
	windows := (span + sweepWindow - 1) / sweepWindow
	window := ((span+windows-1)/windows + 2) &^ 1
	s, base := &p.s, (lo-1)&^1
	p.lo, p.hi = lo, hi
	k.f.Fill(s, lo-1, base+min(window-1, hi-base)) // no overflow near 2⁶⁴
	for {
		end := s.End()
		for i := range p.cur {
			c := &p.cur[i]
			for !c.Done() {
				plo, phi, g := c.Piece()
				if !c.open {
					if plo-1 > end {
						break
					}
					sums[g] -= s.At(plo - 1)
					c.open = true
				}
				if phi > end {
					break
				}
				sums[g] += s.At(phi)
				c.open = false
				c.Next(plo, phi)
			}
		}
		if end >= hi {
			return
		}
		s.Next(int(min(window, hi-end+1) / 2))
	}
}

// SumPieces decrypts the same sums as SumParts with two PRF values per piece,
// computed one by one: what a sparse section costs less as (PadPays against
// twice Pieces). Parts need not be Sweepable. It returns the number of
// pieces.
func (k *Key) SumPieces(sums []uint64, parts []Part) (pieces uint64) {
	var c idlist.Pieces
	for _, part := range parts {
		for c.Reset(part.Ranges, part.Runs, part.Group); !c.Done(); pieces++ {
			lo, hi, g := c.Piece()
			if lo == 0 {
				panic("ashe: identifier 0 is reserved")
			}
			sums[g] += k.f.RangeDelta(lo, hi)
			c.Next(lo, hi)
		}
	}
	return pieces
}

// Sweepable reports whether SumParts can read a part's list: its ranges
// ascend without overlapping, so their endpoints Lo−1, Hi, Lo−1, Hi, … never
// fall.
func Sweepable(list []idlist.Range) bool {
	for i, r := range list {
		if r.Lo > r.Hi || i > 0 && r.Lo <= list[i-1].Hi {
			return false
		}
	}
	return true
}

// padIDsPerValue is the break-even between the two ways to compute the PRF
// values a decryption needs. A value computed alone costs ≈ 25 ns: an AES
// call for each value that does not share its block with the other end of
// its range. A sweep costs ≈ 5 ns per identifier of its span, keystream and
// lookups included (BenchmarkPadDecrypt, on a 2-core Xeon with AES-NI). So a
// pad pays while its span holds at most 25/5 = 5 identifiers per value
// needed pointwise. The same rule bounds a pad by what asked for it: at most
// 5 × 8 bytes per value, 80 bytes a scan row or an identifier range (16
// bytes decoded), so a hostile result cannot make a large pad.
const padIDsPerValue = 5

// PadPays reports whether decrypting against one pad over [lo−1, hi] costs
// less than computing the given number of PRF values one by one.
func PadPays(lo, hi, values uint64) bool {
	return lo <= hi && float64(hi-lo)+2 <= padIDsPerValue*float64(values)
}

// Pad holds F_k over [lo−1, hi], the values decrypting any identifiers in
// [lo, hi] needs, computed as one keystream. Its buffers are reused by the
// next Fill or SumParts, so one Pad serves any number of spans.
type Pad struct {
	s      prf.Span
	lo, hi uint64
	cur    []cursor // SumParts' cursor per part
}

// Fill computes the pad of identifiers [lo, hi] under k. Identifier 0 is
// reserved, so lo must be ≥ 1; the caller bounds the span, eight bytes per
// identifier (PadPays).
func (k *Key) Fill(p *Pad, lo, hi uint64) {
	if lo == 0 {
		panic("ashe: identifier 0 is reserved")
	}
	k.f.Fill(&p.s, lo-1, hi)
	p.lo, p.hi = lo, hi
}

// Evals reports how many PRF values the last Fill or SumParts computed.
func (p *Pad) Evals() uint64 { return p.hi - p.lo + 2 }

// Delta returns F_k(id) − F_k(id−1) for id in [lo, hi]: the pad that
// DecryptBody adds to a body.
func (p *Pad) Delta(id uint64) uint64 { return p.s.At(id) - p.s.At(id-1) }
