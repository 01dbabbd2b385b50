// ID-list encodings (§4.5, Table 3). Seabed's default aggregation codec is
// the composition Range + VB + Diff + Deflate(fast), or a word bitmap for a
// list dense enough that the bitmap is smaller (adaptive.go); group-by
// results use VB + Diff without ranges because their per-group lists are
// sparse.
package idlist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// Codec serializes and deserializes identifier lists.
type Codec interface {
	encoding
	Encode(l List) ([]byte, error)
	Decode(data []byte) (List, error)
}

// encoding is what one encoding implements; codec makes a Codec of it.
type encoding interface {
	// Name identifies the codec in benchmark output, e.g. "ranges+vb+diff".
	Name() string
	// AppendEncode appends l's encoding to dst and returns the extended
	// buffer: Encode into storage the caller owns, so a loop that only sizes
	// lists, or packs many into one arena, allocates nothing per list.
	AppendEncode(dst []byte, l List) ([]byte, error)
	// AppendDecode appends the ranges of the list encoded in data to dst and
	// returns the extended slice; the appended ranges are exactly those of
	// Decode(data), and never coalesce with what dst already held. On error
	// dst is returned unextended.
	AppendDecode(dst []Range, data []byte) ([]Range, error)
}

// codec adds Encode and Decode, into fresh storage, to an encoding.
type codec struct{ encoding }

// Encode implements Codec.
func (c codec) Encode(l List) ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, 16+10*len(l.ranges)), l)
}

// Decode implements Codec, inverting Encode.
func (c codec) Decode(data []byte) (List, error) {
	rs, err := c.AppendDecode(nil, data)
	if err != nil {
		return List{}, err
	}
	return View(rs), nil
}

// pushID appends one identifier to the ranges decoded so far (dst[base:]),
// with List.Append's coalescing: an id that extends the last range grows it.
func pushID(dst []Range, base int, id uint64) []Range {
	if k := len(dst); k > base {
		if last := &dst[k-1]; id == last.Hi+1 && last.Hi != ^uint64(0) {
			last.Hi = id
			return dst
		}
	}
	return append(dst, Range{id, id})
}

// Named codecs matching the encoding progression evaluated in Figure 8.
var (
	// RangeVB writes ranges with absolute variable-byte bounds ("Ranges & VB").
	RangeVB Codec = codec{rangeVB{diff: false}}
	// RangeVBDiff adds differential encoding of range bounds ("+Diff").
	RangeVBDiff Codec = codec{rangeVB{diff: true}}
	// RangeVBDiffDeflateFast adds Deflate optimized for speed ("+Deflate(Fast)").
	RangeVBDiffDeflateFast Codec = codec{deflated{inner: rangeVB{diff: true}, level: flate.BestSpeed, name: "ranges+vb+diff+deflate(fast)"}}
	// RangeVBDiffDeflateCompact adds Deflate optimized for ratio ("+Deflate(Compact)").
	RangeVBDiffDeflateCompact Codec = codec{deflated{inner: rangeVB{diff: true}, level: flate.BestCompression, name: "ranges+vb+diff+deflate(compact)"}}
	// VBDiff encodes individual identifiers with differential variable-byte
	// encoding and no range encoding; Seabed uses it for group-by results
	// whose sparse lists would bloat under range encoding (§4.5).
	VBDiff Codec = codec{vbDiff{}}
	// Bitmap is the dense-bitmap baseline that "performed poorly" (§6.4).
	Bitmap Codec = codec{bitmap{}}
	// Adaptive writes each list as RangeVBDiffDeflateFast's bytes or, when
	// the list is dense enough that it is smaller, as a word bitmap.
	Adaptive Codec = codec{adaptive{}}
)

// Default is the codec Seabed selects for plain aggregation queries. It is
// §6.4's choice — range encoding, VB, differential encoding, and Deflate
// optimized for speed — for every list but a dense one, which travels as a
// bitmap when that is smaller (Adaptive).
var Default = Adaptive

// AllCodecs lists every codec in the Figure 8 sweep order.
func AllCodecs() []Codec {
	return []Codec{RangeVB, RangeVBDiff, RangeVBDiffDeflateCompact, RangeVBDiffDeflateFast, VBDiff, Bitmap, Adaptive}
}

type rangeVB struct{ diff bool }

// Name implements encoding.
func (c rangeVB) Name() string {
	if c.diff {
		return "ranges+vb+diff"
	}
	return "ranges+vb"
}

// AppendEncode implements encoding: one (Lo, span) varint pair per range,
// delta-chained from the previous range's Hi in the diff variant.
func (c rangeVB) AppendEncode(buf []byte, l List) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(l.ranges)))
	var prevHi uint64
	for _, r := range l.ranges {
		if c.diff {
			// Delta from the previous range's Hi. Out-of-order (overlapping)
			// ranges can make the delta negative; encode with zig-zag.
			buf = binary.AppendVarint(buf, int64(r.Lo-prevHi))
			buf = binary.AppendUvarint(buf, r.Hi-r.Lo)
			prevHi = r.Hi
		} else {
			buf = binary.AppendUvarint(buf, r.Lo)
			buf = binary.AppendUvarint(buf, r.Hi-r.Lo)
		}
	}
	return buf, nil
}

// AppendDecode implements encoding.
func (c rangeVB) AppendDecode(dst []Range, data []byte) ([]Range, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, fmt.Errorf("idlist: %s: bad range count", c.Name())
	}
	data = data[k:]
	// A range takes at least two bytes, which bounds what a hostile count can
	// make the decoder reserve.
	if n > uint64(len(data))/2 {
		return dst, fmt.Errorf("idlist: %s: range count %d exceeds payload", c.Name(), n)
	}
	dst = slices.Grow(dst, int(n)) // exactly what the list needs, in one step
	base := len(dst)
	var prevHi uint64
	for i := uint64(0); i < n; i++ {
		var lo uint64
		if c.diff {
			d, k := binary.Varint(data)
			if k <= 0 {
				return dst[:base], fmt.Errorf("idlist: %s: truncated lo at range %d", c.Name(), i)
			}
			data = data[k:]
			lo = prevHi + uint64(d)
		} else {
			v, k := binary.Uvarint(data)
			if k <= 0 {
				return dst[:base], fmt.Errorf("idlist: %s: truncated lo at range %d", c.Name(), i)
			}
			data = data[k:]
			lo = v
		}
		span, k := binary.Uvarint(data)
		if k <= 0 {
			return dst[:base], fmt.Errorf("idlist: %s: truncated span at range %d", c.Name(), i)
		}
		data = data[k:]
		hi := lo + span
		dst = append(dst, Range{lo, hi})
		prevHi = hi
	}
	return dst, nil
}

type vbDiff struct{}

// Name implements encoding.
func (vbDiff) Name() string { return "vb+diff" }

// AppendEncode implements encoding: one zig-zag delta varint per identifier.
func (vbDiff) AppendEncode(buf []byte, l List) ([]byte, error) {
	buf = binary.AppendUvarint(buf, l.n)
	var prev uint64
	for _, r := range l.ranges {
		for id := r.Lo; ; id++ {
			buf = binary.AppendVarint(buf, int64(id-prev))
			prev = id
			if id == r.Hi {
				break
			}
		}
	}
	return buf, nil
}

// AppendDecode implements encoding.
func (vbDiff) AppendDecode(dst []Range, data []byte) ([]Range, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, fmt.Errorf("idlist: vb+diff: bad id count")
	}
	data = data[k:]
	base := len(dst)
	var prev uint64
	for i := uint64(0); i < n; i++ {
		d, k := binary.Varint(data)
		if k <= 0 {
			return dst[:base], fmt.Errorf("idlist: vb+diff: truncated id %d", i)
		}
		data = data[k:]
		prev += uint64(d)
		dst = pushID(dst, base, prev)
	}
	return dst, nil
}

type deflated struct {
	inner encoding
	level int
	name  string
}

// Name implements encoding.
func (c deflated) Name() string { return c.name }

// A flate.Writer is hundreds of KB of tables that NewWriter zeroes, and a
// reader tens of KB, so both are pooled and Reset instead of rebuilt per list.
// raw holds the inner codec's bytes between the two stages of an Encode or a
// Decode.

// deflater is the pooled state of one deflated Encode.
type deflater struct {
	w     *flate.Writer
	out   appendWriter
	count byteCounter
	raw   []byte
}

// inflater is the pooled state of one deflated Decode; r implements
// flate.Resetter.
type inflater struct {
	r   io.ReadCloser
	src bytes.Reader
	raw []byte
}

// appendWriter is the io.Writer a pooled flate.Writer compresses into: the
// caller's buffer, extended in place.
type appendWriter struct{ buf []byte }

// Write implements io.Writer.
func (a *appendWriter) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// byteCounter is the io.Writer that only sizes a DEFLATE stream.
type byteCounter int

// Write implements io.Writer.
func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// deflaters holds idle compressor state per flate level (the index is
// level − flate.HuffmanOnly), up to one per processor: a channel, not a
// sync.Pool, because a row view encodes thousands of short lists in a row and
// a Pool under the race detector drops a quarter of what it is given, each
// drop a flate.Writer rebuilt. inflaters pools decompressor state.
var (
	deflaters = func() (d [flate.BestCompression - flate.HuffmanOnly + 1]chan *deflater) {
		for i := range d {
			d[i] = make(chan *deflater, runtime.GOMAXPROCS(0))
		}
		return d
	}()
	inflaters sync.Pool
)

// AppendEncode implements encoding: the inner codec's bytes, DEFLATE-compressed.
func (c deflated) AppendEncode(dst []byte, l List) ([]byte, error) {
	st, err := c.deflater()
	if err != nil {
		return nil, err
	}
	defer c.release(st)
	if st.raw, err = c.inner.AppendEncode(st.raw[:0], l); err != nil {
		return nil, err
	}
	st.out.buf = dst
	if err := st.compress(&st.out); err != nil {
		return nil, err
	}
	return st.out.buf, nil
}

// deflatedLen returns the length of l's encoding, which it counts instead of
// keeping.
func (c deflated) deflatedLen(l List) (int, error) {
	st, err := c.deflater()
	if err != nil {
		return 0, err
	}
	defer c.release(st)
	if st.raw, err = c.inner.AppendEncode(st.raw[:0], l); err != nil {
		return 0, err
	}
	st.count = 0
	if err := st.compress(&st.count); err != nil {
		return 0, err
	}
	return int(st.count), nil
}

// deflater takes compressor state at c's level from its pool.
func (c deflated) deflater() (*deflater, error) {
	select {
	case st := <-deflaters[c.level-flate.HuffmanOnly]:
		return st, nil
	default:
	}
	st := &deflater{}
	w, err := flate.NewWriter(&st.out, c.level)
	if err != nil {
		return nil, fmt.Errorf("idlist: deflate: %v", err)
	}
	st.w = w
	return st, nil
}

// release returns st to its pool, holding no caller's buffer and no large
// one of its own.
func (c deflated) release(st *deflater) {
	st.out.buf = nil
	if cap(st.raw) > maxPooledRaw {
		st.raw = nil
	}
	select {
	case deflaters[c.level-flate.HuffmanOnly] <- st:
	default:
	}
}

// compress writes st.raw's DEFLATE stream to w.
func (st *deflater) compress(w io.Writer) error {
	st.w.Reset(w)
	if _, err := st.w.Write(st.raw); err != nil {
		return fmt.Errorf("idlist: deflate: %v", err)
	}
	if err := st.w.Close(); err != nil {
		return fmt.Errorf("idlist: deflate: %v", err)
	}
	return nil
}

// maxInflated bounds what one list may inflate to — what a wire frame could
// carry uncompressed — so a few hostile KB cannot demand unbounded memory, and
// maxPooledRaw bounds the raw buffer a pooled inflater or deflater keeps, so
// one large list does not stay pinned after its query.
const (
	maxInflated  = 1 << 30
	maxPooledRaw = 1 << 20
)

// AppendDecode implements encoding, inflating then delegating to the inner
// encoding.
func (c deflated) AppendDecode(dst []Range, data []byte) ([]Range, error) {
	st, _ := inflaters.Get().(*inflater)
	if st == nil {
		st = &inflater{}
		st.r = flate.NewReader(&st.src)
	}
	raw, err := st.inflate(data, maxInflated)
	out := dst
	if err == nil {
		out, err = c.inner.AppendDecode(dst, raw)
	}
	st.src.Reset(nil) // drop the reference to the caller's data
	if cap(st.raw) > maxPooledRaw {
		st.raw = nil
	}
	inflaters.Put(st)
	return out, err
}

// inflate decompresses data into st.raw, refusing more than limit bytes.
func (st *inflater) inflate(data []byte, limit int) ([]byte, error) {
	st.src.Reset(data)
	if err := st.r.(flate.Resetter).Reset(&st.src, nil); err != nil {
		return nil, fmt.Errorf("idlist: inflate: %v", err)
	}
	raw := st.raw[:0]
	for {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
		n, err := st.r.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		st.raw = raw
		if err == io.EOF {
			return raw, nil
		}
		if err != nil {
			return nil, fmt.Errorf("idlist: inflate: %v", err)
		}
		if len(raw) > limit {
			return nil, fmt.Errorf("idlist: inflate: list exceeds %d bytes", limit)
		}
	}
}
