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
	"math"
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
// identifiers, as ranges, and the runs that hand them out in list order
// (idlist.Run) — Runs[0].Len identifiers to the sum of Runs[0].Group, the
// next Runs[1].Len to that of Runs[1].Group, and so on, each Group read
// through Remap when the part has one. Every run holds at least one
// identifier, and the runs hold exactly the identifiers of Ranges. A part
// without runs hands them all to the sum of Group.
type Part struct {
	Ranges []idlist.Range
	Runs   []idlist.Run
	Group  int32
	Remap  []int32
}

// cursor is a sweep's walk over one part: the next identifier pos of range r,
// the identifiers left of run number run (−1 before the walk starts) and the
// sum g they add to. While open, prev is F(pos−1), whose subtraction the piece from pos
// owes; a piece [lo, hi] adds F(hi) − F(lo−1) to its sum (§3.2), so a run that
// ends inside its range leaves F(hi) as the next piece's F(lo−1), read once.
type cursor struct {
	r, run    int
	pos, left uint64
	g         int32
	prev      uint64
	open      bool
}

// sweep adds to sums every piece of the part whose identifiers, and the one
// before them, s holds: it stops at the first piece that ends past s, or at
// the part's end — the end of its ranges, or of its runs if it has any. The
// walk runs in locals, saved to the cursor when it stops.
func (c *cursor) sweep(p *Part, s *prf.Span, sums []uint64) {
	span := *s // held in registers: the stores to sums cannot reach it
	end := span.End()
	ranges, runs, remap := p.Ranges, p.Runs, p.Remap
	r, run, pos, left, g, prev, open := c.r, c.run, c.pos, c.left, c.g, c.prev, c.open
	next := func() {
		if run++; run < len(runs) {
			left, g = uint64(runs[run].Len), runs[run].Group
			if remap != nil {
				g = remap[g]
			}
		}
	}
	if run < 0 && len(ranges) > 0 { // the sweep's first window: start at the first run
		pos, left, g = ranges[0].Lo, math.MaxUint64, p.Group
		next()
	}
	for r < len(ranges) && (len(runs) == 0 || run < len(runs)) {
		if !open {
			if pos-1 > end {
				break
			}
			prev, open = span.At(pos-1), true
		}
		hi := ranges[r].Hi
		// The runs that end inside the range and the window, one keystream
		// value each. pos−1 is in the window, so pos ≤ stop+1.
		for stop := min(hi-1, end); run < len(runs) && left <= stop+1-pos; {
			last := pos + left - 1
			v := span.At(last)
			sums[g] += v - prev
			prev, pos = v, last+1
			next()
		}
		if len(runs) > 0 && run == len(runs) || left-1 < hi-pos || hi > end {
			break // the part's end, or a run that ends past the window
		}
		sums[g] += span.At(hi) - prev
		left -= hi - pos + 1
		open = false
		if r++; r < len(ranges) {
			pos = ranges[r].Lo
		}
		if left == 0 {
			next()
		}
	}
	c.r, c.run, c.pos, c.left, c.g, c.prev, c.open = r, run, pos, left, g, prev, open
}

// Pieces counts the part's pieces without computing a PRF value: the
// stretches of identifiers that lie in one range and one run, each of which
// SumPieces decrypts with two PRF values.
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
// each part keeps one cursor, so p holds one window at a time and a sweep
// costs the same however many groups share the parts; a run inside one range
// costs one keystream read. Parts may interleave — appended batches spread
// one range of identifiers over every shard — as long as each one's ranges
// ascend without overlapping inside [lo, hi], and every sum a run names
// indexes sums; the caller bounds the span (PadPays). Afterwards p.Evals
// counts the span's values.
func (k *Key) SumParts(p *Pad, sums []uint64, parts []Part, lo, hi uint64) {
	if lo == 0 {
		panic("ashe: identifier 0 is reserved")
	}
	p.cur = slices.Grow(p.cur[:0], len(parts))[:len(parts)]
	for i := range p.cur {
		p.cur[i] = cursor{run: -1}
	}
	span := hi - lo + 2
	windows := (span + sweepWindow - 1) / sweepWindow
	window := ((span+windows-1)/windows + 2) &^ 1
	s, base := &p.s, (lo-1)&^1
	p.lo, p.hi = lo, hi
	k.f.Fill(s, lo-1, base+min(window-1, hi-base)) // no overflow near 2⁶⁴
	for {
		for i := range p.cur {
			p.cur[i].sweep(&parts[i], s, sums)
		}
		end := s.End()
		if end >= hi {
			return
		}
		s.Next(int(min(window, hi-end+1) / 2))
	}
}

// SumPieces decrypts the same sums as SumParts with two PRF values per piece,
// computed one by one: what a sparse section costs less as (PadPays against
// twice Pieces). Their ranges may come in any order. It returns the number
// of pieces.
func (k *Key) SumPieces(sums []uint64, parts []Part) (pieces uint64) {
	var c idlist.Pieces
	for i := range parts {
		part := &parts[i]
		for c.Reset(part.Ranges, part.Runs, part.Group); !c.Done(); pieces++ {
			lo, hi, g := c.Piece()
			if lo == 0 {
				panic("ashe: identifier 0 is reserved")
			}
			if len(part.Runs) > 0 && part.Remap != nil {
				g = part.Remap[g]
			}
			sums[g] += k.f.RangeDelta(lo, hi)
			c.Next(lo, hi)
		}
	}
	return pieces
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
