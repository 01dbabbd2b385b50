package wire

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"time"

	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/store"
)

// EncodeResult serializes a MsgResult payload: the codec the engine actually
// used (the client must decode the identifier section with the same one — the
// in-process path communicates it by mutating the plan, the wire path carries
// it here) followed by the result's group columns, its counts (encodeMetrics),
// and the daemon's span breakdown for the query trace (nil spans encode as an
// empty list). version must be Version. Scan rows travel only in
// MsgResultChunk frames, so a result that carries Scan rows is refused.
func EncodeResult(codecName string, res *engine.Result, spans []obs.FlatSpan, version uint64) ([]byte, error) {
	if err := checkVersion(version, "encode result"); err != nil {
		return nil, err
	}
	if len(res.Scan) > 0 {
		return nil, fmt.Errorf("wire: encode result: %d scan rows (scan rows travel in chunk frames)", len(res.Scan))
	}
	cols := res.Cols
	// Reserve the extents' size, so a multi-megabyte group-by frame is written
	// into one allocation.
	size := 512
	if cols != nil {
		size += 8*(len(cols.Rows)+len(cols.KeyU64)+len(cols.KeyOff)+len(cols.Suffix)) + len(cols.KeyArena)
		for i := range cols.Aggs {
			col := &cols.Aggs[i]
			size += 8*len(col.Lane) + 32*len(col.Vals) + 16
		}
		for i := range cols.IDs {
			size += len(cols.IDs[i].List) + len(cols.IDs[i].Runs) + 32
		}
	}
	e := &enc{buf: make([]byte, 0, size)}
	e.str(codecName)
	if err := encodeGroupCols(e, cols); err != nil {
		return nil, err
	}
	encodeMetrics(e, &res.Metrics)
	encodeSpans(e, spans)
	return e.buf, nil
}

// encodeGroupCols appends the group section: the engine's column set written
// column by column in the column-extent encoding durable segments and scan
// chunks use (store/colframe.go; docs/FORMAT.md §3.1 specifies the section).
// A varint header — group count, key kind, inflation flag, fixed key length,
// aggregate kinds — is followed by the extents in a fixed order: row counts,
// suffixes, keys, then per aggregate its lane or a generic kind's values as
// varint fields. Every extent starts on an 8-byte boundary of the payload, so
// a decoder handed an aligned payload aliases the lanes in place. The
// identifier section every ASHE sum shares follows, unaligned (encodeIDs).
func encodeGroupCols(e *enc, c *engine.GroupCols) error {
	n := c.Len()
	e.uint(uint64(n))
	if n == 0 {
		return nil
	}
	keyed := c.KeyKind != store.U64
	if keyed && len(c.KeyOff) != n+1 || !keyed && len(c.KeyU64) != n || c.Suffix != nil && len(c.Suffix) != n {
		return fmt.Errorf("wire: encode result: key columns do not hold %d groups", n)
	}
	e.uint(uint64(c.KeyKind))
	e.bool(c.Suffix != nil)
	keyLen := uint64(0)
	if keyed {
		keyLen = fixedKeyLen(c.KeyOff)
		e.uint(keyLen)
	}
	e.uint(uint64(len(c.Aggs)))
	for i := range c.Aggs {
		e.uint(uint64(c.Aggs[i].Kind))
	}

	e.lane(c.Rows)
	if c.Suffix != nil {
		sfx := make([]uint64, n)
		for g, v := range c.Suffix {
			sfx[g] = uint64(int64(v))
		}
		e.lane(sfx)
	}
	switch {
	case !keyed:
		e.lane(c.KeyU64)
	case keyLen > 0:
		e.align()
		e.buf = append(e.buf, c.KeyArena[:c.KeyOff[n]]...)
	default:
		e.blob(c.KeyOff, c.KeyArena)
	}
	for i := range c.Aggs {
		col := &c.Aggs[i]
		if col.Lane != nil && len(col.Lane) != n || col.Lane == nil && len(col.Vals) != n {
			return fmt.Errorf("wire: encode result: aggregate %d's column does not hold %d groups", i, n)
		}
		if col.Lane != nil {
			e.lane(col.Lane)
			continue
		}
		e.align()
		for g := range col.Vals {
			encodeAggFields(e, &col.Vals[g])
		}
	}
	return encodeIDs(e, c)
}

// encodeIDs appends the identifier section (docs/FORMAT.md §3.1): its part
// count, then per part the selected count, the list as the engine encoded it,
// and — with more than one group — the packed runs, tagged with the frame's
// groups. Only a run's result frames: a merged result, whose parts map their
// tags to its groups (engine.IDPart.Remap), is the proxy's to decrypt, and is
// refused.
func encodeIDs(e *enc, c *engine.GroupCols) error {
	n := c.Len()
	e.uint(uint64(len(c.IDs)))
	for i := range c.IDs {
		p := &c.IDs[i]
		if p.Remap != nil || p.Groups != n {
			return fmt.Errorf("wire: encode result: identifier section part %d tags %d groups of %d, or is a merged result's", i, p.Groups, n)
		}
		e.uint(p.Selected)
		e.bytes(p.List)
		if n > 1 {
			e.bytes(p.Runs)
		}
	}
	return nil
}

// fixedKeyLen returns 1 + the length every key has, or 0 when they differ.
func fixedKeyLen(off []uint64) uint64 {
	k := off[1]
	for g := 1; g < len(off); g++ {
		if off[g]-off[g-1] != k {
			return 0
		}
	}
	return k + 1
}

// align pads the frame with zero bytes to the next 8-byte boundary.
func (e *enc) align() {
	for len(e.buf)%8 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// lane appends a U64 extent on an 8-byte boundary.
func (e *enc) lane(v []uint64) {
	e.align()
	e.buf = store.AppendColumnExtent(e.buf, &store.Column{Kind: store.U64, U64: v})
}

// blob appends a Bytes extent, held flat, on an 8-byte boundary.
func (e *enc) blob(off []uint64, heap []byte) {
	e.align()
	e.buf = store.AppendBlobExtent(e.buf, off, heap)
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

// DecodeResult parses a MsgResult payload; version must be Version. The
// groups decode into a fixed handful of allocations however many there are:
// res.Cols' lanes, key arena and identifier section alias p (a lane is copied
// instead when p is not 8-byte aligned), so the caller must leave p's backing
// array alone afterwards — ReadFrame allocates per frame, which satisfies
// this. Every length is checked against the bytes present before anything is
// reserved, every lane holds exactly one word per group, and every run of the
// identifier section is checked and decoded, once (engine.IDPart.DecodeRuns):
// the runs are the one thing decoded into memory of their own, a word a run.
// The columns' codec is the one the frame names, nil when this build has none
// by that name.
func DecodeResult(p []byte, version uint64) (codecName string, res *engine.Result, spans []obs.FlatSpan, err error) {
	if err := checkVersion(version, "decode result"); err != nil {
		return "", nil, nil, err
	}
	d := newDec(p)
	codecName = d.str()
	res = &engine.Result{Cols: decodeGroupCols(d)}
	if res.Cols != nil {
		res.Cols.Codec, _ = CodecByName(codecName)
	}
	decodeMetrics(d, &res.Metrics)
	spans = decodeSpans(d)
	if err := d.close("result"); err != nil {
		return "", nil, nil, err
	}
	return codecName, res, spans, nil
}

// decodeGroupCols parses the group section (see encodeGroupCols); nil for a
// frame without groups.
func decodeGroupCols(d *dec) *engine.GroupCols {
	groups := d.uint()
	// A group consumes ≥ 8 payload bytes (its row count), bounding every
	// allocation below.
	if !d.checkCount(groups, 8, "groups") || groups == 0 {
		return nil
	}
	n := int(groups)
	c := &engine.GroupCols{KeyKind: store.Kind(d.uint())}
	if c.KeyKind != store.U64 && c.KeyKind != store.Bytes && c.KeyKind != store.Str {
		d.invalid("group key kind")
	}
	inflated := d.bool()
	keyLen := uint64(0)
	if c.KeyKind != store.U64 {
		keyLen = d.uint()
	}
	nAggs := d.uint()
	if !d.checkCount(nAggs, 1, "aggregates") {
		return nil
	}
	c.Aggs = make([]engine.AggCol, nAggs)
	for i := range c.Aggs {
		c.Aggs[i].Kind = engine.AggKind(d.uint())
		if c.Aggs[i].Kind < 0 || c.Aggs[i].Kind > engine.AggOpeMedian {
			d.invalid("aggregate kind")
		}
	}

	c.Rows = d.lane(n, "group rows")
	if inflated {
		if words := d.lane(n, "group suffixes"); d.err == nil {
			c.Suffix = make([]int32, n)
			for g, w := range words {
				if v := int64(w); v < -1 || v > math.MaxInt32 {
					d.invalid("group suffix")
				} else {
					c.Suffix[g] = int32(v)
				}
			}
		}
	}
	switch {
	case c.KeyKind == store.U64:
		c.KeyU64 = d.lane(n, "group keys")
	case keyLen > 0:
		k := keyLen - 1
		d.align()
		if d.err != nil {
			break
		}
		if k > 0 && groups > uint64(len(d.buf)-d.off)/k {
			d.fail("group keys")
			break
		}
		end := d.off + n*int(k)
		c.KeyArena = d.buf[d.off:end:end]
		d.off = end
		c.KeyOff = make([]uint64, n+1)
		for g := range c.KeyOff {
			c.KeyOff[g] = uint64(g) * k
		}
	default:
		c.KeyOff, c.KeyArena = d.blob(n, "group keys")
	}
	for i := range c.Aggs {
		col := &c.Aggs[i]
		if d.err != nil {
			return nil
		}
		switch {
		case engine.LaneKind(col.Kind):
			col.Lane = d.lane(n, "aggregate lane")
		default:
			d.align()
			// A value's fields consume ≥ 9 payload bytes (decodeAggFields), but
			// a decoded value is many times that: the column grows as values
			// actually arrive, never from the count alone.
			if !d.checkCount(groups, 9, "aggregate values") {
				break
			}
			col.Vals = make([]engine.AggValue, 0, min(n, 1024))
			for g := 0; g < n && d.err == nil; g++ {
				col.Vals = append(col.Vals, engine.AggValue{Kind: col.Kind})
				decodeAggFields(d, &col.Vals[g])
			}
		}
	}
	if d.err != nil {
		return nil
	}
	c.IDs = decodeIDs(d, c)
	if d.err != nil {
		return nil
	}
	return c
}

// decodeIDs parses the identifier section (see encodeIDs): one part or more
// when an aggregate is an ASHE sum, none otherwise, each part's list and
// packed runs aliasing the payload, and its runs decoded as they are checked
// (engine.IDPart.DecodeRuns) — none cut short or tagged past the groups, and
// the runs adding up to exactly its selected count — into a buffer the part
// keeps, which the client sweeps without walking the packed runs again.
func decodeIDs(d *dec, c *engine.GroupCols) []engine.IDPart {
	n := c.Len()
	parts := d.uint()
	// A part consumes ≥ 2 payload bytes (its count and its list's length).
	if !d.checkCount(parts, 2, "identifier section parts") {
		return nil
	}
	ashe := slices.ContainsFunc(c.Aggs, func(a engine.AggCol) bool { return a.Kind == engine.AggAsheSum })
	if ashe != (parts > 0) {
		d.invalid("identifier section part count")
		return nil
	}
	if parts == 0 {
		return nil
	}
	out := make([]engine.IDPart, 0, parts)
	for i := uint64(0); i < parts && d.err == nil; i++ {
		p := engine.IDPart{Selected: d.uint(), List: d.view("identifier list"), Groups: n}
		if n > 1 {
			p.Runs = d.view("identifier runs")
		}
		if d.err != nil {
			break
		}
		if err := p.DecodeRuns(); err != nil {
			d.err = fmt.Errorf("%v (part %d, before offset %d)", err, i, d.off)
			break
		}
		out = append(out, p)
	}
	return out
}

// view reads a length-prefixed byte string, aliasing the payload.
func (d *dec) view(what string) []byte {
	n := d.uint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail(what)
		return nil
	}
	end := d.off + int(n)
	v := d.buf[d.off:end:end]
	d.off = end
	return v
}

// invalid latches an error for a field that is present but out of range.
func (d *dec) invalid(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("invalid %s at offset %d", what, d.off)
	}
}

// align skips the zero bytes that pad the frame to the next 8-byte boundary.
func (d *dec) align() {
	for d.err == nil && d.off%8 != 0 {
		if d.off >= len(d.buf) || d.buf[d.off] != 0 {
			d.invalid("extent padding")
			return
		}
		d.off++
	}
}

// lane reads a U64 extent of n words from the next 8-byte boundary.
func (d *dec) lane(n int, what string) []uint64 {
	d.align()
	if d.err != nil {
		return nil
	}
	col, used, err := store.DecodeColumnExtent(store.ColMeta{Name: what, Kind: store.U64}, n, d.buf[d.off:])
	if err != nil {
		d.err = fmt.Errorf("%v (at offset %d)", err, d.off)
		return nil
	}
	d.off += used
	return col.U64
}

// blob reads a Bytes extent of n rows, kept flat, from the next 8-byte
// boundary: the heap aliases the payload.
func (d *dec) blob(n int, what string) (off []uint64, heap []byte) {
	d.align()
	if d.err != nil {
		return nil, nil
	}
	off, heap, used, err := store.DecodeBlobExtent(what, n, d.buf[d.off:])
	if err != nil {
		d.err = fmt.Errorf("%v (at offset %d)", err, d.off)
		return nil, nil
	}
	d.off += used
	return off, heap[:len(heap):len(heap)]
}

// encodeAggFields writes the fields of an aggregate value that has no lane —
// a Paillier sum, an OPE extreme, a median — as varints and length-prefixed
// bytes; its kind is the column's.
func encodeAggFields(e *enc, av *engine.AggValue) {
	e.uint(av.U64)
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
	e.uints(av.MedU64)
	e.uint(uint64(len(av.MedOpe)))
	for _, b := range av.MedOpe {
		e.bytes(b)
	}
	e.uints(av.MedIDs)
	e.uints(av.MedComp)
}

// uints appends a counted run of uvarints.
func (e *enc) uints(vs []uint64) {
	e.uint(uint64(len(vs)))
	for _, v := range vs {
		e.uint(v)
	}
}

func decodeAggFields(d *dec, av *engine.AggValue) {
	av.U64 = d.uint()
	if d.bool() {
		av.Pail = new(big.Int).SetBytes(d.bytes())
	}

	av.Ope = d.bytes()
	av.ArgID = d.uint()
	av.CompanionBytes = d.bytes()

	av.MedU64 = d.uints("median u64s")
	if n := d.uint(); d.checkCount(n, 1, "median opes") && n > 0 {
		av.MedOpe = make([][]byte, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			av.MedOpe = append(av.MedOpe, d.bytes())
		}
	}
	av.MedIDs = d.uints("median ids")
	av.MedComp = d.uints("median companions")
}

// uints reads a counted run of uvarints (nil when empty); each consumes ≥ 1
// payload byte, which bounds the allocation a hostile count can demand.
func (d *dec) uints(what string) []uint64 {
	n := d.uint()
	if !d.checkCount(n, 1, what) || n == 0 {
		return nil
	}
	vs := make([]uint64, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		vs = append(vs, d.uint())
	}
	return vs
}

// encodeMetrics appends a run's counts and its first-chunk latency. Stage
// times travel as the span breakdown, and the in-process cost-model inputs
// (task times, driver time, identifier-list sizes) not at all.
func encodeMetrics(e *enc, m *engine.Metrics) {
	e.int(int64(m.ShuffleBytes))
	e.int(int64(m.ResultBytes))
	e.int(int64(m.MapTasks))
	e.int(int64(m.ReduceTasks))
	e.uint(m.RowsScanned)
	e.uint(m.RowsSelected)
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
	m.ShuffleBytes = int(d.int())
	m.ResultBytes = int(d.int())
	m.MapTasks = int(d.int())
	m.ReduceTasks = int(d.int())
	m.RowsScanned = d.uint()
	m.RowsSelected = d.uint()
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
