package idlist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// adaptive is Default: the paper's ranges+VB+diff+Deflate(fast) bytes for
// each list, except for a dense one, which it writes as a word bitmap over the
// list's span when that is smaller — the per-container choice of Roaring
// bitmaps (Chambi et al., arXiv:1402.6407), made per list. §6.4 set bitmaps
// aside because sparse lists bloat them; a list that selects a large share of
// its span at random is a short range every few identifiers, which Deflate
// cannot code in much under a bit an identifier, and a bitmap spends exactly
// one. A list is one mode byte, then its body (docs/FORMAT.md §3.2):
//
//	modeDeflate  RangeVBDiffDeflateFast's bytes, unchanged
//	modeBitmap   base uvarint, words uvarint, words × 8 B little-endian:
//	             bit b of word w is identifier base + 64w + b
type adaptive struct{}

// The mode byte that opens an adaptive list.
const (
	modeDeflate = 0
	modeBitmap  = 1
)

// sampleBytes is how much of a list's ranges+VB+diff encoding the encoder
// deflates to estimate the whole list's deflated size, and bitmapMargin how
// far under that estimate a bitmap must come before the encoder writes it:
// a bitmap of b bytes is written when b + b/bitmapMargin < the estimate. A
// list whose encoding fits in sampleBytes is deflated whole and the smaller
// body written, so the rule decides only for longer ones. Both come from
// BenchmarkDefaultDensity's sweep (random selections of 1–99 % and periodic
// ones; its comment has the numbers, on a 2-core Xeon): from a 4 KiB prefix
// the estimate stays within −2 % and +4.2 % of the real deflated size, where
// 2 KiB strays to +7 % and 8 KiB costs 1.6 times as much; a 1/16 margin
// covers the overshoot and still leaves every 20–80 % random selection a
// bitmap, which beats the deflated ranges there by 10–38 %.
const (
	sampleBytes  = 4 << 10
	bitmapMargin = 16
)

// deflateFast is RangeVBDiffDeflateFast's encoding, the adaptive codec's
// sparse mode.
var deflateFast = RangeVBDiffDeflateFast.(codec).encoding.(deflated)

// Name implements encoding.
func (adaptive) Name() string { return "adaptive" }

// AppendEncode implements encoding: the bitmap when the list can be one and
// it is smaller than the deflated ranges would be, else the deflated ranges.
func (adaptive) AppendEncode(dst []byte, l List) ([]byte, error) {
	at, rs := len(dst), l.ranges
	dst = append(dst, modeDeflate)
	if len(rs) == 0 {
		return deflateFast.AppendEncode(dst, l)
	}
	base := rs[0].Lo
	words := (rs[len(rs)-1].Hi-base)/64 + 1
	raw, k := rawPrefix(rs)
	if k == len(rs) {
		// The sample is the whole list: deflate it, and keep the smaller body.
		out, err := deflateFast.AppendEncode(dst, l)
		if d := len(out) - at - 1; err != nil || words > uint64(d)/8 || bitmapLen(base, words) >= d || !gapped(rs) || !inside(base, words) {
			return out, err
		}
		dst = out[:at+1]
	} else {
		// A bitmap (8 bytes a word) over half the raw ranges, as the prefix
		// extrapolates them, is not sampled: Deflate keeps 40–53 % of a
		// random selection's raw ranges.
		if words > uint64(raw)*uint64(len(rs))/uint64(k)/16 || !gapped(rs) || !inside(base, words) {
			return deflateFast.AppendEncode(dst, l)
		}
		compressed, err := deflateFast.deflatedLen(List{ranges: rs[:k]})
		if err != nil {
			return nil, err
		}
		n := bitmapLen(base, words)
		if estimate := float64(compressed) * float64(len(rs)) / float64(k); float64(n+n/bitmapMargin) >= estimate {
			return deflateFast.AppendEncode(dst, l)
		}
	}
	dst[at] = modeBitmap
	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, words)
	body := len(dst)
	dst = append(dst, make([]byte, 8*words)...)
	fillBits(dst[body:], rs, base)
	return dst, nil
}

// bitmapLen is the length of a bitmap body of the given words from base.
func bitmapLen(base, words uint64) int {
	return uvarintLen(base) + uvarintLen(words) + 8*int(words)
}

// inside reports whether a bitmap of words ≥ 1 words from base ends at or
// before the last identifier.
func inside(base, words uint64) bool {
	room := ^uint64(0) - base // the identifiers after base
	return room >= 63 && words-1 <= (room-63)/64
}

// gapped reports whether a bitmap holds rs exactly: rs is not empty, and its
// ranges ascend with a gap between each two, so the bitmap's runs are rs.
func gapped(rs []Range) bool {
	for i, r := range rs {
		if r.Lo > r.Hi || i > 0 && (r.Lo <= rs[i-1].Hi || r.Lo-rs[i-1].Hi == 1) {
			return false
		}
	}
	return len(rs) > 0
}

// rawPrefix returns how many leading ranges of rs make up the first
// sampleBytes of their ranges+VB+diff encoding — all of them when the
// encoding is shorter — and the length of those ranges' encoding.
func rawPrefix(rs []Range) (raw, k int) {
	raw = uvarintLen(uint64(len(rs)))
	var prevHi uint64
	for ; k < len(rs) && raw < sampleBytes; k++ {
		d := int64(rs[k].Lo - prevHi)
		raw += uvarintLen(uint64(d<<1)^uint64(d>>63)) + uvarintLen(rs[k].Hi-rs[k].Lo)
		prevHi = rs[k].Hi
	}
	return raw, k
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// AppendDecode implements encoding. A bitmap body must hold exactly its
// words, none past the last identifier.
func (adaptive) AppendDecode(dst []Range, data []byte) ([]Range, error) {
	if len(data) == 0 {
		return dst, fmt.Errorf("idlist: adaptive: missing mode")
	}
	switch data[0] {
	case modeDeflate:
		return deflateFast.AppendDecode(dst, data[1:])
	case modeBitmap:
		base, words, rest, err := wordsOf("adaptive", data[1:])
		if err != nil {
			return dst, err
		}
		if len(rest) != 0 {
			return dst, fmt.Errorf("idlist: adaptive: %d trailing bytes", len(rest))
		}
		if n := uint64(len(words)) / 8; n > 0 && !inside(base, n) {
			return dst, fmt.Errorf("idlist: adaptive: %d words from %d overflow the identifiers", n, base)
		}
		return appendRuns(dst, words, base), nil
	}
	return dst, fmt.Errorf("idlist: adaptive: unknown mode %d", data[0])
}
