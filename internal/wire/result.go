package wire

import (
	"fmt"
	"math/big"
	"time"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/obs"
	"seabed/internal/store"
)

// EncodeResult serializes a MsgResult payload: the codec the engine actually
// used (the client must decode identifier lists with the same one — the
// in-process path communicates it by mutating the plan, the wire path carries
// it here) followed by the result's groups, scan rows, metrics, and the
// daemon's span breakdown for the query trace (nil spans encode as an empty
// list). version must be Version.
func EncodeResult(codecName string, res *engine.Result, spans []obs.FlatSpan, version uint64) ([]byte, error) {
	if err := checkVersion(version, "encode result"); err != nil {
		return nil, err
	}
	e := &enc{buf: make([]byte, 0, resultSizeHint(res))}
	e.str(codecName)

	e.uint(uint64(len(res.Groups)))
	for i := range res.Groups {
		g := &res.Groups[i]
		e.uint(uint64(g.KeyKind))
		e.uint(g.KeyU64)
		e.bytes(g.KeyBytes)
		e.str(g.KeyStr)
		e.int(int64(g.Suffix))
		e.uint(g.Rows)
		e.uint(uint64(len(g.Aggs)))
		for j := range g.Aggs {
			encodeAggValue(e, &g.Aggs[j])
		}
	}

	if err := encodeScanRows(e, res.Scan); err != nil {
		return nil, err
	}

	encodeMetrics(e, &res.Metrics)
	encodeSpans(e, spans)
	return e.buf, nil
}

// resultSizeHint estimates a result frame's size from its variable-length
// parts, so a multi-megabyte group-by frame is written into one allocation
// instead of growing its way up (BenchmarkEncodeResultWide: 4.2 → 1.3 MB and
// about a third of the time per 16k-group frame). A guess only: the frame
// still grows by append.
func resultSizeHint(res *engine.Result) int {
	n := 256
	for i := range res.Groups {
		g := &res.Groups[i]
		n += 16 + len(g.KeyBytes) + len(g.KeyStr)
		for j := range g.Aggs {
			av := &g.Aggs[j]
			n += 32 + len(av.Ashe.Encoded) + 4*av.Ashe.IDs.NumRanges() + len(av.Ope) + len(av.CompanionBytes)
		}
	}
	return n
}

// encodeSpans appends a span-record section: the daemon's trace breakdown,
// flattened preorder with depths (obs.Flatten).
func encodeSpans(e *enc, spans []obs.FlatSpan) {
	e.uint(uint64(len(spans)))
	for i := range spans {
		s := &spans[i]
		depth := s.Depth
		if depth < 0 {
			depth = 0
		}
		e.uint(uint64(depth))
		e.str(s.Name)
		e.int(int64(s.Start))
		e.int(int64(s.Dur))
		e.uint(uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			e.str(a.Key)
			e.str(a.Val)
		}
	}
}

// decodeSpans parses a span-record section. Counts are hostile-guarded
// like every other section; tree-shape sanity (depth sequences) is the
// client's problem — obs.AttachFlat clamps rather than trusts.
func decodeSpans(d *dec) []obs.FlatSpan {
	n := d.uint()
	// Each span record consumes ≥ 5 payload bytes (depth, empty name, start,
	// dur, attr count).
	if !d.checkCount(n, 5, "spans") || n == 0 {
		return nil
	}
	spans := make([]obs.FlatSpan, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var s obs.FlatSpan
		s.Depth = int(d.uint())
		s.Name = d.str()
		s.Start = time.Duration(d.int())
		s.Dur = time.Duration(d.int())
		nAttrs := d.uint()
		if !d.checkCount(nAttrs, 2, "span attrs") {
			break
		}
		for j := uint64(0); j < nAttrs && d.err == nil; j++ {
			k := d.str()
			v := d.str()
			s.Attrs = append(s.Attrs, obs.Attr{Key: k, Val: v})
		}
		spans = append(spans, s)
	}
	return spans
}

// encodeScanRows appends the result frame's length-prefixed scan-row section.
func encodeScanRows(e *enc, scan []engine.ScanRow) error {
	e.uint(uint64(len(scan)))
	for i := range scan {
		r := &scan[i]
		e.uint(r.ID)
		n := len(r.U64s)
		if len(r.Bytes) != n || len(r.Strs) != n {
			return fmt.Errorf("wire: encode result: scan row %d has ragged projections (%d/%d/%d)",
				i, len(r.U64s), len(r.Bytes), len(r.Strs))
		}
		e.uint(uint64(n))
		for j := 0; j < n; j++ {
			e.uint(r.U64s[j])
			e.bytes(r.Bytes[j])
			e.str(r.Strs[j])
		}
	}
	return nil
}

// decodeScanRows parses a scan-row section into dst.
func decodeScanRows(d *dec, dst *[]engine.ScanRow) {
	nScan := d.uint()
	for i := uint64(0); i < nScan && d.err == nil; i++ {
		var r engine.ScanRow
		r.ID = d.uint()
		n := d.uint()
		// Each projected cell consumes ≥ 3 payload bytes, bounding the
		// allocation a hostile count can demand.
		if !d.checkCount(n, 3, "scan columns") {
			break
		}
		if d.err == nil && n > 0 {
			r.U64s = make([]uint64, n)
			r.Bytes = make([][]byte, n)
			r.Strs = make([]string, n)
			for j := uint64(0); j < n && d.err == nil; j++ {
				r.U64s[j] = d.uint()
				r.Bytes[j] = d.bytes()
				r.Strs[j] = d.str()
			}
		}
		*dst = append(*dst, r)
	}
}

// DecodeResult parses a MsgResult payload; version must be Version. The
// groups decode into a few blocks per result, not a
// few allocations per group: one []Group, the aggregates from []AggValue
// blocks, and every byte field (keys, encoded id-lists, OPE ciphertexts) and
// id-list range run carved from shared arenas. The result does not alias p.
func DecodeResult(p []byte, version uint64) (codecName string, res *engine.Result, spans []obs.FlatSpan, err error) {
	if err := checkVersion(version, "decode result"); err != nil {
		return "", nil, nil, err
	}
	d := newDec(p)
	codecName = d.str()
	res = &engine.Result{}

	nGroups := d.uint()
	// A group consumes ≥ 7 payload bytes (kind, key u64, two empty keys,
	// suffix, rows, aggregate count), bounding the allocation.
	if d.checkCount(nGroups, 7, "groups") && nGroups > 0 {
		res.Groups = make([]engine.Group, nGroups)
		// Byte fields are copied, so together they fit in what is left of p.
		a := resultArena{d: d, bytes: make([]byte, 0, len(p)-d.off)}
		for i := range res.Groups {
			g := &res.Groups[i]
			g.KeyKind = store.Kind(d.uint())
			g.KeyU64 = d.uint()
			g.KeyBytes = a.copyBytes()
			g.KeyStr = d.str()
			g.Suffix = int(d.int())
			g.Rows = d.uint()
			nAggs := d.uint()
			// An aggregate consumes ≥ 13 payload bytes (see encodeAggValue).
			if !d.checkCount(nAggs, 13, "aggregates") {
				break
			}
			g.Aggs = a.aggValues(int(nAggs), len(res.Groups)-i)
			for j := range g.Aggs {
				a.decodeAggValue(&g.Aggs[j])
			}
			if d.err != nil {
				break
			}
		}
	}

	decodeScanRows(d, &res.Scan)

	decodeMetrics(d, &res.Metrics)
	spans = decodeSpans(d)
	if err := d.close("result"); err != nil {
		return "", nil, nil, err
	}
	return codecName, res, spans, nil
}

// resultArena is the block storage of one result's decode. Every reservation
// is bounded by the payload bytes still unread, so a hostile count cannot make
// the decoder reserve more than a small multiple of the frame it arrived in.
type resultArena struct {
	d      *dec
	bytes  []byte
	aggs   []engine.AggValue
	ranges []idlist.Range
}

// copyBytes reads a length-prefixed byte field into the arena; like dec.bytes
// an empty field is nil. The arena's capacity covers every byte field of the
// payload, so the append never reallocates under earlier fields.
func (a *resultArena) copyBytes() []byte {
	d := a.d
	n := d.uint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	lo := len(a.bytes)
	a.bytes = append(a.bytes, d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return a.bytes[lo:len(a.bytes):len(a.bytes)]
}

// aggValues carves n zeroed aggregate values; left is how many groups
// (this one included) remain, each assumed to want as many, so a uniform
// result takes one block.
func (a *resultArena) aggValues(n, left int) []engine.AggValue {
	if n == 0 {
		return nil
	}
	if len(a.aggs) < n {
		want := uint64(n) * uint64(left)
		if most := uint64(len(a.d.buf)-a.d.off) / 13; want > most {
			want = max(most, uint64(n))
		}
		a.aggs = make([]engine.AggValue, want)
	}
	out := a.aggs[:n:n]
	a.aggs = a.aggs[n:]
	return out
}

// rangeRun returns an empty run with room for n ranges, carved from a block
// that doubles as the result asks for more.
func (a *resultArena) rangeRun(n int) []idlist.Range {
	if cap(a.ranges)-len(a.ranges) < n {
		a.ranges = make([]idlist.Range, 0, max(n, 2*cap(a.ranges), 256))
	}
	lo := len(a.ranges)
	a.ranges = a.ranges[:lo+n]
	return a.ranges[lo : lo : lo+n]
}

// aggTailEmpty is the encoding of an aggregate value's fields after the ASHE
// section when none is set: no Paillier ciphertext, an empty OPE ciphertext,
// ArgID 0, no companion, four empty median collections. Encoder and decoder
// take it in one step (about a fifth of BenchmarkEncodeResultWide and two
// fifths of BenchmarkDecodeResultWide); TestEncodeResultGolden pins that the
// bytes are the general path's.
var aggTailEmpty [8]byte

func encodeAggValue(e *enc, av *engine.AggValue) {
	e.uint(uint64(av.Kind))
	e.uint(av.U64)

	// ASHE: body, the raw identifier-list ranges, and the codec-compressed
	// encoding. Shipping the ranges too keeps the decoded AggValue equivalent
	// to the in-process one (deflateGroups and tests inspect them).
	e.uint(av.Ashe.Body)
	ranges := av.Ashe.IDs.Ranges()
	e.uint(uint64(len(ranges)))
	prev := uint64(0)
	for _, r := range ranges {
		// Differential bounds, the same trick the id-list codecs use (§4.5).
		e.uint(r.Lo - prev)
		e.uint(r.Hi - r.Lo)
		prev = r.Lo
	}
	e.bytes(av.Ashe.Encoded)

	// What follows is empty on every count, sum and ASHE aggregate — all but
	// a few of a wide result's values — and then encodes as eight zero bytes.
	if av.Pail == nil && len(av.Ope) == 0 && av.ArgID == 0 && len(av.CompanionBytes) == 0 &&
		len(av.MedU64) == 0 && len(av.MedOpe) == 0 && len(av.MedIDs) == 0 && len(av.MedComp) == 0 {
		e.buf = append(e.buf, aggTailEmpty[:]...)
		return
	}

	if av.Pail != nil {
		e.bool(true)
		e.bytes(av.Pail.Bytes())
	} else {
		e.bool(false)
	}

	e.bytes(av.Ope)
	e.uint(av.ArgID)
	e.bytes(av.CompanionBytes)

	// Partial-plan median collections: one range cannot collapse a median
	// locally, so the collected inputs cross the wire for the coordinator's
	// merge. All four are empty on non-Partial plans.
	e.uint(uint64(len(av.MedU64)))
	for _, v := range av.MedU64 {
		e.uint(v)
	}
	e.uint(uint64(len(av.MedOpe)))
	for _, b := range av.MedOpe {
		e.bytes(b)
	}
	e.uint(uint64(len(av.MedIDs)))
	for _, v := range av.MedIDs {
		e.uint(v)
	}
	e.uint(uint64(len(av.MedComp)))
	for _, v := range av.MedComp {
		e.uint(v)
	}
}

func (a *resultArena) decodeAggValue(av *engine.AggValue) {
	d := a.d
	av.Kind = engine.AggKind(d.uint())
	av.U64 = d.uint()

	av.Ashe.Body = d.uint()
	nRanges := d.uint()
	// Each range consumes ≥ 2 payload bytes, bounding the allocation.
	if d.checkCount(nRanges, 2, "id-list ranges") && nRanges > 0 {
		ranges := a.rangeRun(int(nRanges))
		prev := uint64(0)
		for i := uint64(0); i < nRanges && d.err == nil; i++ {
			lo := prev + d.uint()
			hi := lo + d.uint()
			if hi < lo { // span overflowed: hostile or corrupt frame
				d.fail("id-list range span")
				break
			}
			ranges = append(ranges, idlist.Range{Lo: lo, Hi: hi})
			prev = lo
		}
		if d.err == nil {
			av.Ashe.IDs = idlist.View(ranges)
		}
	}
	av.Ashe.Encoded = a.copyBytes()

	if d.err == nil && len(d.buf)-d.off >= len(aggTailEmpty) && [8]byte(d.buf[d.off:d.off+8]) == aggTailEmpty {
		d.off += len(aggTailEmpty)
		return
	}

	if d.bool() {
		av.Pail = new(big.Int).SetBytes(d.bytes())
	}

	av.Ope = a.copyBytes()
	av.ArgID = d.uint()
	av.CompanionBytes = a.copyBytes()

	if n := d.uint(); d.checkCount(n, 1, "median u64s") && n > 0 {
		av.MedU64 = make([]uint64, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			av.MedU64 = append(av.MedU64, d.uint())
		}
	}
	if n := d.uint(); d.checkCount(n, 1, "median opes") && n > 0 {
		av.MedOpe = make([][]byte, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			av.MedOpe = append(av.MedOpe, a.copyBytes())
		}
	}
	if n := d.uint(); d.checkCount(n, 1, "median ids") && n > 0 {
		av.MedIDs = make([]uint64, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			av.MedIDs = append(av.MedIDs, d.uint())
		}
	}
	if n := d.uint(); d.checkCount(n, 1, "median companions") && n > 0 {
		av.MedComp = make([]uint64, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			av.MedComp = append(av.MedComp, d.uint())
		}
	}
}

func encodeMetrics(e *enc, m *engine.Metrics) {
	e.int(int64(m.ServerTime))
	e.int(int64(m.MapTime))
	e.int(int64(m.ReduceTime))
	e.int(int64(m.ShuffleTime))
	e.int(int64(m.DriverTime))
	e.int(int64(m.ShuffleBytes))
	e.int(int64(m.ResultBytes))
	e.int(int64(m.MapTasks))
	e.int(int64(m.ReduceTasks))
	e.uint(m.RowsScanned)
	e.uint(m.RowsSelected)
	// Per-task duration sample.
	e.int(int64(m.TaskMin))
	e.int(int64(m.TaskP50))
	e.int(int64(m.TaskMax))
	// Streamed-scan first-chunk latency.
	e.int(int64(m.FirstChunk))
	// Per-operator execution counters — EXPLAIN ANALYZE's payload.
	e.uint(m.Ops.Batches)
	e.uint(m.Ops.DenseBatches)
	e.uint(m.Ops.JoinProbed)
	e.uint(m.Ops.JoinMatched)
	e.uint(m.Ops.GroupDense)
	e.uint(m.Ops.GroupHash)
	e.uint(m.Ops.RadixBatches)
	e.uint(m.Ops.GroupSlots)
	e.uint(m.Ops.GroupTableLen)
	e.uint(m.Ops.ColumnPins)
	e.uint(m.Ops.ColumnFaults)
}

func decodeMetrics(d *dec, m *engine.Metrics) {
	m.ServerTime = time.Duration(d.int())
	m.MapTime = time.Duration(d.int())
	m.ReduceTime = time.Duration(d.int())
	m.ShuffleTime = time.Duration(d.int())
	m.DriverTime = time.Duration(d.int())
	m.ShuffleBytes = int(d.int())
	m.ResultBytes = int(d.int())
	m.MapTasks = int(d.int())
	m.ReduceTasks = int(d.int())
	m.RowsScanned = d.uint()
	m.RowsSelected = d.uint()
	m.TaskMin = time.Duration(d.int())
	m.TaskP50 = time.Duration(d.int())
	m.TaskMax = time.Duration(d.int())
	m.FirstChunk = time.Duration(d.int())
	m.Ops.Batches = d.uint()
	m.Ops.DenseBatches = d.uint()
	m.Ops.JoinProbed = d.uint()
	m.Ops.JoinMatched = d.uint()
	m.Ops.GroupDense = d.uint()
	m.Ops.GroupHash = d.uint()
	m.Ops.RadixBatches = d.uint()
	m.Ops.GroupSlots = d.uint()
	m.Ops.GroupTableLen = d.uint()
	m.Ops.ColumnPins = d.uint()
	m.Ops.ColumnFaults = d.uint()
}
