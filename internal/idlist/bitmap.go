package idlist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Word bitmaps. Bit b of word w (little-endian, 8 bytes a word) stands for
// identifier base + 64w + b; the Figure 8 baseline and the adaptive codec's
// dense mode share the layout and the helpers below.

type bitmap struct{}

// Name implements encoding.
func (bitmap) Name() string { return "bitmap" }

// AppendEncode implements encoding: a base identifier plus one bit per position.
func (bitmap) AppendEncode(buf []byte, l List) ([]byte, error) {
	if l.n == 0 {
		return binary.AppendUvarint(buf, 0), nil
	}
	base := l.ranges[0].Lo
	var hi uint64
	for _, r := range l.ranges {
		if r.Lo < base {
			base = r.Lo
		}
		if r.Hi > hi {
			hi = r.Hi
		}
	}
	span := hi - base + 1
	if span > 1<<33 {
		return nil, fmt.Errorf("idlist: bitmap: span %d too large", span)
	}
	buf = binary.AppendUvarint(buf, 1) // non-empty marker
	buf = binary.AppendUvarint(buf, base)
	buf = binary.AppendUvarint(buf, (span+63)/64)
	at := len(buf)
	buf = append(buf, make([]byte, (span+63)/64*8)...)
	if fillBits(buf[at:], l.ranges, base) {
		return nil, fmt.Errorf("idlist: bitmap: duplicate id (bitmaps have set semantics)")
	}
	return buf, nil
}

// AppendDecode implements encoding.
func (bitmap) AppendDecode(dst []Range, data []byte) ([]Range, error) {
	marker, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, fmt.Errorf("idlist: bitmap: bad marker")
	}
	if marker == 0 {
		return dst, nil
	}
	base, words, _, err := wordsOf("bitmap", data[k:])
	if err != nil {
		return dst, err
	}
	for w := len(words) - 8; w >= 0; w -= 8 {
		if word := binary.LittleEndian.Uint64(words[w:]); word != 0 {
			if off := uint64(w)*8 + 63 - uint64(bits.LeadingZeros64(word)); off > ^uint64(0)-base {
				return dst, fmt.Errorf("idlist: bitmap: bit %d past the last identifier", off)
			}
			break
		}
	}
	return appendRuns(slices.Grow(dst, countRuns(words)), words, base), nil
}

// wordsOf reads a bitmap segment's header — its base identifier, or its
// skip — and word count from data and returns the words and the bytes after
// them, refusing a count past the payload.
func wordsOf(name string, data []byte) (base uint64, words, rest []byte, err error) {
	base, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, nil, fmt.Errorf("idlist: %s: bad header", name)
	}
	data = data[k:]
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, nil, fmt.Errorf("idlist: %s: bad word count", name)
	}
	data = data[k:]
	if n > uint64(len(data))/8 {
		return 0, nil, nil, fmt.Errorf("idlist: %s: word count %d past the payload", name, n)
	}
	return base, data[:8*n], data[8*n:], nil
}

// fillBits sets the bits of every range in rs, less base, in the
// little-endian words of b, and reports whether two ranges shared a bit. It
// fills whole words at a time, and builds the word a run of short ranges
// falls in before it touches memory; rs may come in any order.
func fillBits(b []byte, rs []Range, base uint64) (overlap bool) {
	var word, at uint64 // the word being built, and its index
	for _, r := range rs {
		lo, hi := r.Lo-base, r.Hi-base
		first, last := lo/64, hi/64
		if first != at {
			overlap = orWord(b[8*at:], word) || overlap
			word, at = 0, first
		}
		head, tail := ^uint64(0)<<(lo%64), ^uint64(0)>>(63-hi%64)
		if first == last {
			overlap = overlap || word&head&tail != 0
			word |= head & tail
			continue
		}
		overlap = orWord(b[8*at:], word|head) || overlap || word&head != 0
		for w := first + 1; w < last; w++ {
			overlap = orWord(b[8*w:], ^uint64(0)) || overlap
		}
		word, at = tail, last
	}
	return orWord(b[8*at:], word) || overlap
}

// orWord sets the bits of mask in the word at the head of b and reports
// whether any of them was set already.
func orWord(b []byte, mask uint64) bool {
	w := binary.LittleEndian.Uint64(b)
	binary.LittleEndian.PutUint64(b, w|mask)
	return w&mask != 0
}

// countRuns returns the number of runs of set bits in the little-endian
// words of b.
func countRuns(b []byte) int {
	runs, carry := 0, uint64(0)
	for i := 0; i < len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		runs += bits.OnesCount64(w &^ (w<<1 | carry)) // a run starts at each 1 after a 0
		carry = w >> 63
	}
	return runs
}

// appendRuns appends the runs of set bits in the little-endian words of b to
// dst, as ranges of base + bit position, into the room the caller grew dst
// by (countRuns). Runs are maximal, so no two ranges abut; the caller has
// checked that no set bit lies past the last identifier.
func appendRuns(dst []Range, b []byte, base uint64) []Range {
	open, lo := false, uint64(0)
	for i := 0; i < len(b); i += 8 {
		w, at := binary.LittleEndian.Uint64(b[i:]), base+uint64(i)*8
		if open { // the run from an earlier word ends at this word's first 0
			end := bits.TrailingZeros64(^w)
			if end == 64 {
				continue
			}
			dst = append(dst, Range{lo, at + uint64(end) - 1})
			open, w = false, w&(^uint64(0)<<end)
		}
		for w != 0 {
			start := bits.TrailingZeros64(w)
			filled := w | (w - 1) // the run's start and every bit below it set
			end := bits.TrailingZeros64(^filled)
			if end == 64 {
				open, lo = true, at+uint64(start)
				break
			}
			dst = append(dst, Range{at + uint64(start), at + uint64(end) - 1})
			w &= filled + 1 // clear the run and the bits below it
		}
	}
	if open {
		dst = append(dst, Range{lo, base + uint64(len(b))*8 - 1})
	}
	return dst
}
