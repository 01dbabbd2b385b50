package idlist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// adaptive is Default: the paper's ranges+VB+diff+Deflate(fast) bytes for
// each list, except for a dense one, which it writes as a word bitmap when
// that is smaller — the per-container choice of Roaring bitmaps (Chambi et
// al., arXiv:1402.6407), made per list. §6.4 set bitmaps aside because sparse
// lists bloat them; a list that selects a large share of its span at random
// is a short range every few identifiers, which Deflate cannot code in much
// under a bit an identifier, and a bitmap spends exactly one. The bitmap
// skips whole words that hold none of the list's identifiers, such as those
// other ranges' appends hold. A list is one mode byte, then its body
// (docs/FORMAT.md §3.2):
//
//	modeDeflate  RangeVBDiffDeflateFast's bytes, unchanged
//	modeBitmap   base uvarint, words uvarint, words × 8 B little-endian —
//	             bit b of word w is identifier base + 64w + b — then, to the
//	             end, segments of skip uvarint ≥ 1, words uvarint ≥ 1, words
//	             × 8 B, each starting skip words after the one before ends
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
// Only a bitmap of the whole span that loses is measured again with holes.
func (adaptive) AppendEncode(dst []byte, l List) ([]byte, error) {
	at, rs := len(dst), l.ranges
	dst = append(dst, modeDeflate)
	if len(rs) == 0 {
		return deflateFast.AppendEncode(dst, l)
	}
	base := rs[0].Lo
	words := (rs[len(rs)-1].Hi-base)/64 + 1
	if words > wordsFrom(base) {
		return deflateFast.AppendEncode(dst, l)
	}
	n, holes := uvarintLen(base)+uvarintLen(words)+8*int(words), false
	raw, k := rawPrefix(rs)
	if k == len(rs) {
		// The sample is the whole list: deflate it, and keep the smaller body.
		out, err := deflateFast.AppendEncode(dst, l)
		if err != nil {
			return out, err
		}
		if d := len(out) - at - 1; n >= d || !gapped(rs) {
			if _, n, holes = segmentWords(l, base, uint64(d)/8); !holes || n >= d {
				return out, nil
			}
		}
		dst = out[:at+1]
	} else {
		// A bitmap (8 bytes a word) over half the raw ranges, as the prefix
		// extrapolates them, is not sampled: Deflate keeps 40–53 % of a
		// random selection's raw ranges.
		half := uint64(raw) * uint64(len(rs)) / uint64(k) / 16
		if words > half || !gapped(rs) {
			if _, n, holes = segmentWords(l, base, half); !holes {
				return deflateFast.AppendEncode(dst, l)
			}
		}
		compressed, err := deflateFast.deflatedLen(List{ranges: rs[:k]})
		if err != nil {
			return nil, err
		}
		estimate := float64(compressed) * float64(len(rs)) / float64(k)
		if float64(n+n/bitmapMargin) >= estimate && !holes {
			if _, n, holes = segmentWords(l, base, uint64(estimate)/8); !holes {
				return deflateFast.AppendEncode(dst, l)
			}
		}
		if float64(n+n/bitmapMargin) >= estimate {
			return deflateFast.AppendEncode(dst, l)
		}
	}
	dst[at] = modeBitmap
	return appendBitmap(dst, rs, base, holes), nil
}

// appendBitmap appends the mode 1 body of gapped rs from base: one segment of
// the whole span, or with holes, one per stretch of words no zero word breaks.
func appendBitmap(dst []byte, rs []Range, base uint64, holes bool) []byte {
	dst = binary.AppendUvarint(dst, base)
	for i, end := 0, uint64(0); i < len(rs); { // end: the word after the last segment
		j, first, last := len(rs), (rs[i].Lo-base)/64, (rs[len(rs)-1].Hi-base)/64
		if holes {
			for j, last = i+1, (rs[i].Hi-base)/64; j < len(rs) && (rs[j].Lo-base)/64 <= last+1; j++ {
				last = (rs[j].Hi - base) / 64
			}
		}
		if i > 0 {
			dst = binary.AppendUvarint(dst, first-end)
		}
		dst = binary.AppendUvarint(dst, last-first+1)
		body := len(dst)
		dst = append(dst, make([]byte, 8*(last-first+1))...)
		fillBits(dst[body:], rs[i:j], base+64*first)
		i, end = j, last+1
	}
	return dst
}

// segmentWords measures appendBitmap's body of l's ranges with holes, in one
// pass that allocates nothing: its words and its length. ok is false when no
// bitmap holds the ranges exactly (gapped), or when it needs more than most
// words — which l's identifiers alone, 64 to a word, may tell before the pass.
func segmentWords(l List, base, most uint64) (words uint64, n int, ok bool) {
	if l.n/64 > most {
		return 0, 0, false
	}
	var first, last uint64 // the open segment's first and last word
	n = uvarintLen(base)
	for i, r := range l.ranges {
		if r.Lo > r.Hi || i > 0 && (r.Lo <= l.ranges[i-1].Hi || r.Lo-l.ranges[i-1].Hi == 1) {
			return 0, 0, false
		}
		if lo := (r.Lo - base) / 64; lo > last+1 {
			n += uvarintLen(last-first+1) + uvarintLen(lo-last-1)
			words, first = words+last-first+1, lo
		}
		if last = (r.Hi - base) / 64; words+last-first >= most {
			return 0, 0, false
		}
	}
	words += last - first + 1
	return words, n + uvarintLen(last-first+1) + 8*int(words), true
}

// wordsFrom is the most words a bitmap from base may hold.
func wordsFrom(base uint64) uint64 {
	room := ^uint64(0) - base // the identifiers after base
	return room/64 + (room%64+1)/64
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

// AppendDecode implements encoding. A bitmap is checked whole before a range
// is appended, and dst grown once by the runs of all its segments.
func (adaptive) AppendDecode(dst []Range, data []byte) ([]Range, error) {
	if len(data) == 0 {
		return dst, fmt.Errorf("idlist: adaptive: missing mode")
	}
	switch data[0] {
	case modeDeflate:
		return deflateFast.AppendDecode(dst, data[1:])
	case modeBitmap:
		runs := 0
		if err := walkSegments(data[1:], func(words []byte, _ uint64) { runs += countRuns(words) }); err != nil {
			return dst, err
		}
		dst = slices.Grow(dst, runs)
		walkSegments(data[1:], func(words []byte, at uint64) { dst = appendRuns(dst, words, at) }) //nolint:errcheck // the first walk checked every segment
		return dst, nil
	}
	return dst, fmt.Errorf("idlist: adaptive: unknown mode %d", data[0])
}

// walkSegments calls f with each segment of a mode 1 body, its words and its
// first bit's identifier. It stops at a segment of no words, a skip of none
// (two segments would abut, and a run could split in two), a word count past
// the payload, a segment past the last identifier, or a partial header.
func walkSegments(data []byte, f func(words []byte, at uint64)) error {
	base, words, rest, err := wordsOf("adaptive", data)
	room, end, skip := wordsFrom(base), uint64(0), uint64(0) // the words from base, those before the segment, and the skip after it
	for err == nil {
		n := uint64(len(words)) / 8
		if n == 0 || n > room-end {
			return fmt.Errorf("idlist: adaptive: a segment of %d words at word %d from %d: none, or past the last identifier", n, end, base)
		}
		f(words, base+64*end)
		if end += n; len(rest) == 0 {
			return nil
		}
		if skip, words, rest, err = wordsOf("adaptive", rest); err == nil && (skip == 0 || skip > room-end) {
			return fmt.Errorf("idlist: adaptive: a skip of %d words after word %d from %d: none, or past the last identifier", skip, end, base)
		}
		end += skip
	}
	return err
}
