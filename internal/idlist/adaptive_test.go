package idlist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// selection is one list of the adaptive codec's sweep: a random selection of
// the given share of its span, or a periodic one (share 0).
type selection struct {
	name  string
	share float64
	l     List
}

// selections returns the sweep over identifiers 1 … span: a random selection
// at each percent from 1 to 99, every 2nd identifier, every 24th, and a
// 13-identifier cycle of seven picks in four runs. Then, for each count a of
// appends, the same sweep over span identifiers laid out as one range of a
// three-daemon fleet after a appends of 2,000 rows: the last 667·a of them in
// stretches of 667 every 2,000, the holes the other two ranges' shares.
func selections(span uint64, seed int64, appends ...uint64) []selection {
	rng := rand.New(rand.NewSource(seed))
	var out []selection
	for _, a := range append([]uint64{0}, appends...) {
		head, suffix := span-667*a, "" // the identifiers before the stretches
		if a > 0 {
			suffix = fmt.Sprintf(",%d-appends", a)
		}
		pick := func(name string, share float64, keep func(id uint64) bool) {
			var l List
			for i := uint64(1); i <= span; i++ {
				id := i
				if i > head {
					id = head + 1 + (i-head-1)/667*2000 + (i-head-1)%667
				}
				if keep(id) {
					l.Append(id)
				}
			}
			out = append(out, selection{name + suffix, share, l})
		}
		for pct := 1; pct <= 99; pct++ {
			pick(fmt.Sprintf("random-%d%%", pct), float64(pct)/100, func(uint64) bool { return rng.Intn(100) < pct })
		}
		const cycle13 = 0b1100100100111
		pick("every-2nd", 0, func(id uint64) bool { return id%2 == 0 })
		pick("every-24th", 0, func(id uint64) bool { return id%24 == 0 })
		pick("13-cycle", 0, func(id uint64) bool { return cycle13>>(id%13)&1 == 1 })
	}
	return out
}

// TestDefaultDensity is the adaptive codec's table test: over random
// selections of 1–99 % and periodic ones, from a span short enough that the
// encoder deflates the whole list to one long enough that it samples, and
// over the longer span laid out as a range after 10 and 57 appends, every
// list round-trips to its own ranges, none comes out more than its mode byte
// over RangeVBDiffDeflateFast's bytes, and a random selection of 20–80 %
// comes out strictly smaller. After appends, a random selection of 20–75 % is
// a bitmap and strictly smaller: the segments' edge words cost the 57-append
// layout 6 % (1,103 words where its identifiers fill 1,042), which leaves its
// 80 % list's bitmap 4.9 % under the deflated ranges, inside bitmapMargin.
func TestDefaultDensity(t *testing.T) {
	if Default != Adaptive {
		t.Fatalf("Default is %s, want %s", Default.Name(), Adaptive.Name())
	}
	for _, span := range []uint64{3_000, 66_667} {
		var appends []uint64
		if span == 66_667 {
			appends = []uint64{10, 57}
		}
		for _, s := range selections(span, int64(span), appends...) {
			enc, err := Adaptive.Encode(s.l)
			if err != nil {
				t.Fatalf("span %d %s: %v", span, s.name, err)
			}
			dec, err := Adaptive.Decode(enc)
			if err != nil || !dec.Equal(s.l) {
				t.Fatalf("span %d %s: decoded to %d ranges (%v), want %d", span, s.name, dec.NumRanges(), err, s.l.NumRanges())
			}
			deflated, err := RangeVBDiffDeflateFast.Encode(s.l)
			if err != nil {
				t.Fatal(err)
			}
			if len(enc) > len(deflated)+1 {
				t.Errorf("span %d %s: %d bytes, deflated ranges %d", span, s.name, len(enc), len(deflated))
			}
			holes := strings.HasSuffix(s.name, "appends")
			dense := s.share >= 0.2 && s.share <= 0.8 && (!holes || s.share <= 0.75)
			if dense && len(enc) >= len(deflated) {
				t.Errorf("span %d %s: %d bytes, not under the deflated ranges' %d", span, s.name, len(enc), len(deflated))
			}
			if dense && holes && enc[0] != modeBitmap {
				t.Errorf("span %d %s: mode %d, want the bitmap", span, s.name, enc[0])
			}
		}
	}
}

// TestDefaultDeflateModeIsThePapers: a list the adaptive codec does not write
// as a bitmap — sparse, periodic, contiguous, overlapping or empty — is the
// mode byte and then RangeVBDiffDeflateFast's bytes, unchanged.
func TestDefaultDeflateModeIsThePapers(t *testing.T) {
	dup := FromRange(1, 10)
	dup.Merge(FromRange(5, 6))
	lists := []List{{}, FromRange(1, 100_000), dup, randomList(rand.New(rand.NewSource(3)), 500)}
	for _, s := range selections(66_667, 4) {
		if s.share == 0 || s.share < 0.05 {
			lists = append(lists, s.l)
		}
	}
	for _, l := range lists {
		enc, err := Adaptive.Encode(l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RangeVBDiffDeflateFast.Encode(l)
		if err != nil {
			t.Fatal(err)
		}
		if enc[0] != modeDeflate || !slices.Equal(enc[1:], want) {
			t.Errorf("%d ranges: mode %d, %d body bytes; want mode 0 and the %d deflated bytes", l.NumRanges(), enc[0], len(enc)-1, len(want))
		}
	}
}

// hostileBitmaps are adaptive lists no encoder writes: an unknown mode, a
// word count past the payload, words that run past the last identifier,
// trailing bytes, a segment of no words, a skip of none, a later segment's
// word count past the payload, a later segment or skip past the last
// identifier, a partial segment header, and identifier 0 — which decodes,
// and which the proxy then refuses as reserved.
func hostileBitmaps() map[string][]byte {
	header := func(base, words uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint([]byte{modeBitmap}, base), words)
	}
	word := binary.LittleEndian.AppendUint64(nil, 1)
	// segment appends a segment of skip and words to b, and one word of it.
	segment := func(b []byte, skip, words uint64) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(b, skip), words), word...)
	}
	first := append(header(1, 1), word...)
	last3 := append(header(^uint64(0)-191, 1), word...) // three words fit from its base
	return map[string][]byte{
		"unknown mode":               {2, 0},
		"words past payload":         append(header(1, 1<<40), word...),
		"overflow":                   append(header(^uint64(0)-62, 1), word...),
		"trailing bytes":             append(slices.Clip(first), 0),
		"empty first segment":        header(1, 0),
		"empty segment":              binary.AppendUvarint(binary.AppendUvarint(slices.Clip(first), 1), 0),
		"skip of none":               segment(slices.Clip(first), 0, 1),
		"segment words past payload": segment(slices.Clip(first), 1, 1<<40),
		"segment overflow":           append(segment(slices.Clip(last3), 1, 2), word...),
		"skip overflow":              segment(slices.Clip(last3), 1<<62, 1),
		"partial skip":               append(slices.Clip(first), 0x80),
		"partial segment header":     binary.AppendUvarint(slices.Clip(first), 1),
		"identifier 0":               append(header(0, 1), word...),
	}
}

// TestAdaptiveRefusesHostileBitmaps: each malformed bitmap fails to decode
// and leaves the caller's ranges as they were; a well-formed bitmap from
// identifier 0 decodes to [0] (the reserved identifier, for the proxy to
// refuse), and one that ends exactly at the last identifier decodes, in one
// segment or two.
func TestAdaptiveRefusesHostileBitmaps(t *testing.T) {
	held := []Range{{Lo: 5, Hi: 9}}
	for name, data := range hostileBitmaps() {
		out, err := Adaptive.AppendDecode(held, data)
		if name == "identifier 0" {
			if err != nil || !slices.Equal(out[1:], []Range{{0, 0}}) {
				t.Errorf("%s: %v, %v; want [0]", name, out[1:], err)
			}
			continue
		}
		if err == nil || len(out) != 1 || out[0] != held[0] {
			t.Errorf("%s: %v, %v; want an error and the caller's ranges", name, out, err)
		}
	}
	last := binary.LittleEndian.AppendUint64(binary.AppendUvarint(binary.AppendUvarint([]byte{modeBitmap}, ^uint64(0)-63), 1), 1<<63)
	if out, err := Adaptive.AppendDecode(nil, last); err != nil || !slices.Equal(out, []Range{{^uint64(0), ^uint64(0)}}) {
		t.Errorf("bitmap ending at the last identifier: %v, %v", out, err)
	}
	base := ^uint64(0) - 191 // three words from base end at the last identifier
	two := binary.LittleEndian.AppendUint64(binary.AppendUvarint(binary.AppendUvarint([]byte{modeBitmap}, base), 1), 1)
	two = binary.LittleEndian.AppendUint64(binary.AppendUvarint(binary.AppendUvarint(two, 1), 1), 1<<63)
	if out, err := Adaptive.AppendDecode(nil, two); err != nil || !slices.Equal(out, []Range{{base, base}, {^uint64(0), ^uint64(0)}}) {
		t.Errorf("two segments ending at the last identifier: %v, %v", out, err)
	}
}

// TestFillAndWalkRuns pins the two word helpers against a per-identifier
// model: fillBits sets exactly the bits of ranges given in any order and
// reports a shared bit, and appendRuns returns the maximal runs of set bits,
// across word edges, into storage that room for exactly them suffices.
func TestFillAndWalkRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		const span = 700
		base := uint64(rng.Intn(1000))
		ids := make([]bool, span)
		var rs []Range
		for lo := rng.Intn(70); lo < span; {
			hi := min(lo+rng.Intn([]int{3, 70, 200}[trial%3]), span-1)
			rs = append(rs, Range{base + uint64(lo), base + uint64(hi)})
			for id := lo; id <= hi; id++ {
				ids[id] = true
			}
			lo = hi + 2 + rng.Intn(40)
		}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		b := make([]byte, (span+63)/64*8)
		if fillBits(b, rs, base) {
			t.Fatalf("trial %d: disjoint ranges reported overlapping", trial)
		}
		var want []Range
		for id := 0; id < span; id++ {
			if binary.LittleEndian.Uint64(b[id/64*8:])>>(id%64)&1 == 1 != ids[id] {
				t.Fatalf("trial %d: bit %d is wrong", trial, id)
			}
			if ids[id] {
				if k := len(want); k > 0 && want[k-1].Hi == base+uint64(id)-1 {
					want[k-1].Hi++
				} else {
					want = append(want, Range{base + uint64(id), base + uint64(id)})
				}
			}
		}
		room := make([]Range, 1, 1+len(want))
		got := appendRuns(room, b, base)
		if !slices.Equal(got[1:], want) || &got[0] != &room[0] {
			t.Fatalf("trial %d: runs %v (moved: %v), want %v", trial, got[1:], &got[0] != &room[0], want)
		}
		if len(rs) > 0 && !fillBits(b, rs[:1], base) {
			t.Fatalf("trial %d: a range filled twice not reported overlapping", trial)
		}
	}
}

// BenchmarkDefaultDensity sweeps Default over selections of a
// 66,667-identifier span — one daemon's share of the fleet benchmark's
// 200k-row table — and of the same count laid out as that range after 10
// and 57 appends (the cases named ",10-appends" and ",57-appends"),
// encoding and decoding one list per iteration. Per
// selection it reports the list's bytes under Default and under
// RangeVBDiffDeflateFast, whether Default wrote the bitmap, and
// est/deflated: the deflated size as the encoder estimates it from its
// sample, over the real one.
//
// What it derives (2-core Xeon, Go 1.24, shared host). Random selections
// of 18–81 % are where a bitmap beats the deflated ranges at all, by up to
// 38 % (8,340 bytes against 13,377 at 50 %); Deflate keeps 40–53 % of a
// random selection's raw ranges, so a bitmap over half of them is not
// sampled. The deflated size estimated from the first 4 KiB, by range,
// stayed within 0.981–1.042 of the real one over ten seeds of random 15–85 %
// selections of 20k-, 66,667- and 250k-identifier spans; a 1 KiB prefix
// overshoots by up to 11 % and a 2 KiB one by 7 %, and 8 KiB (3 %) costs
// 1.6 times as much, so sampleBytes is 4 KiB. Every bitmapMargin from 1/32
// to 1/12 wrote a bitmap for each of those seeds' 1,830 random 20–80 %
// lists and never one larger than the deflated ranges; 1/16 covers the
// worst overshoot, 4.2 %, on its own. With it, none of 4,080 lists over
// 5k–250k spans came out more than the mode byte over the deflated ranges,
// and each random 20–80 % one came out under them. Periodic lists are overestimated up to 2.2 times, by the
// sample's Huffman tables, but they deflate to a few hundred bytes, far
// under any bitmap. A 72 % list encodes and decodes in ≈ 0.2 ms, against
// ≈ 1.1 ms as deflated ranges.
//
// After appends (measured in-process against the one-segment encoder,
// alternating, 41 pairs a case). After 57 appends a 72 % list's bitmap over
// its span, 2,209 words, loses; its segments, 8,932 bytes, beat the
// deflated ranges' 11,283 and encode and decode in ≈ 0.32 ms against
// ≈ 1.14 ms; so do 20 % and 50 % (8,804 and 8,932 bytes, 0.18 and 0.23 ms,
// against 9,491 and 13,509 bytes in 0.66 and 0.98 ms). After 10 appends the
// span's bitmap of a 50 % or 72 % list (9,836 and 9,844 bytes) still wins and
// is written as before; at 20 % and 80 % it loses, and segments (8,414 and
// 8,438 bytes) are written in ≈ 0.27 and 0.22 ms against ≈ 0.97 and 0.92 ms
// deflated. The 80 % list after 57 appends stays deflated: its segments'
// edge words leave the bitmap under 5 % below the deflated ranges, inside
// bitmapMargin, and it pays the sampled estimate it skipped before, 0.92 ms
// against 0.79. The cases without holes keep their bytes; the measuring
// pass, which a list pays only after the span's bitmap lost and while its
// identifiers could still fit the budget, leaves each within 4.4 % of its
// time before (15 %, 17 % and 83 % pay it whole).
func BenchmarkDefaultDensity(b *testing.B) {
	sweep := selections(66_667, 37, 10, 57)
	for _, s := range sweep {
		if s.share != 0 && !slices.Contains([]int{1, 5, 10, 15, 17, 20, 30, 40, 50, 60, 70, 72, 80, 83, 85, 90, 95, 99}, int(math.Round(s.share*100))) {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			deflated, err := RangeVBDiffDeflateFast.Encode(s.l)
			if err != nil {
				b.Fatal(err)
			}
			var enc []byte
			var dec []Range
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if enc, err = Default.AppendEncode(enc[:0], s.l); err != nil {
					b.Fatal(err)
				}
				if dec, err = Default.AppendDecode(dec[:0], enc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(enc)), "B/list")
			b.ReportMetric(float64(len(deflated)), "deflated_B/list")
			b.ReportMetric(float64(enc[0]), "bitmap")
			if _, k := rawPrefix(s.l.ranges); k < s.l.NumRanges() {
				est, err := deflateFast.deflatedLen(List{ranges: s.l.ranges[:k]})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(est)*float64(s.l.NumRanges())/float64(k)/float64(len(deflated)), "est/deflated")
			}
		})
	}
}
