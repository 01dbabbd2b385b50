package client

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// ValueKind tags a result value.
type ValueKind int

const (
	// Int values come from sums, counts and min/max.
	Int ValueKind = iota
	// Float values come from averages, variances and deviations.
	Float
	// Str values come from string group keys and scans.
	Str
)

// Value is one plaintext result cell.
type Value struct {
	Name string
	Kind ValueKind
	I64  int64
	F64  float64
	Str  string
}

// Display renders the value for humans.
func (v Value) Display() string {
	switch v.Kind {
	case Float:
		return fmt.Sprintf("%.4f", v.F64)
	case Str:
		return v.Str
	}
	return fmt.Sprintf("%d", v.I64)
}

// Row is one decrypted result row.
type Row struct {
	// Key is the group key (nil for ungrouped aggregates and scans).
	Key *Value
	// Values holds the query's output columns.
	Values []Value
}

// Result is a fully decrypted query result.
type Result struct {
	Rows []Row
	// PRFEvals counts the PRF values the decryption computed, the statistic
	// §6.6 reports: two per piece decrypted pointwise — a stretch of
	// identifiers in one range of a section's list and one of its runs
	// (ashe.SumPieces), one range of an ungrouped result's list — and every
	// value in a pad's span (ashe.Pad.Evals).
	PRFEvals uint64
}

// decrypter caches derived keys across rows.
type decrypter struct {
	ring     *KeyRing
	asheKeys map[string]*ashe.Key
	detKeys  map[string]*det.Key
	// scanAshe holds each projected ASHE column's key by position, and
	// scanCell every other column's decryption, both picked by resolveScan.
	scanAshe []*ashe.Key
	scanCell []cellFunc
	prfEvals uint64
	codec    idlist.Codec
	// sums holds each ASHE aggregate column's decrypted group sums, by
	// aggregate, from the first output that reads the column; they live in
	// scratch.sums.
	sums [][]uint64
	// sec is the result's identifier section, decoded at the first ASHE sum
	// an output reads and shared by all of them.
	sec *section
	// scratch is the pooled memory the ASHE columns decrypt in, taken at
	// first use and returned by release.
	scratch *padScratch
	// block is where DET integers — group keys, scan cells — decrypt, one
	// after another.
	block [det.U64Size]byte
}

// cellFunc decrypts cell j of a scan row into v, which holds the column's
// name and Kind Int.
type cellFunc func(sr *engine.ScanRow, j int, v *Value) error

// padScratch is the memory ASHE columns decrypt in: a pad, the identifier
// section's parts' lists decoded back to back, the runs of parts that arrive
// without them decoded (an in-process result's), the parts viewing both, and
// the group sums. A dense group-by's run to megabytes, so they are pooled
// across queries.
type padScratch struct {
	pad    ashe.Pad
	ranges []idlist.Range
	runs   []idlist.Run
	parts  []ashe.Part
	sums   []uint64
	sec    section
}

// section is a result's identifier section as the ASHE sums read it: its parts
// decoded, the union span [lo, hi] of their identifiers, and whether the sums
// decrypt against one sweep over it.
type section struct {
	parts  []ashe.Part
	lo, hi uint64
	swept  bool
}

var padPool = sync.Pool{New: func() any { return new(padScratch) }}

// scratchBuf returns the decrypter's scratch, taking one from the pool at
// first use.
func (d *decrypter) scratchBuf() *padScratch {
	if d.scratch == nil {
		d.scratch = padPool.Get().(*padScratch)
	}
	return d.scratch
}

// release returns the scratch to the pool. Nothing the decrypter handed out
// may point into it: sums are copied into Values before it is called.
func (d *decrypter) release() {
	if d.scratch != nil {
		padPool.Put(d.scratch)
		d.scratch, d.sums, d.sec = nil, nil, nil
	}
}

// ReservedIDError reports a result that has the proxy decrypt under ASHE identifier 0, which
// no row carries (a malformed or hostile result); Where names the aggregate or the scan row.
type ReservedIDError struct{ Where string }

// Error names the aggregate or the row.
func (e *ReservedIDError) Error() string {
	return "client: " + e.Where + " decrypts under the reserved ASHE identifier 0 (malformed or hostile result)"
}

// newDecrypter builds a decrypter over the given key ring and identifier-
// list codec. Shared by the materialized path (Decrypt) and the streaming
// path (stream.go).
func newDecrypter(ring *KeyRing, codec idlist.Codec) *decrypter {
	return &decrypter{
		ring:     ring,
		asheKeys: make(map[string]*ashe.Key),
		detKeys:  make(map[string]*det.Key),
		codec:    codec,
	}
}

func (d *decrypter) ashe(col string) *ashe.Key {
	k := d.asheKeys[col]
	if k == nil {
		k = d.ring.Ashe(col)
		d.asheKeys[col] = k
	}
	return k
}

func (d *decrypter) det(col string) *det.Key {
	k := d.detKeys[col]
	if k == nil {
		k = d.ring.Det(col)
		d.detKeys[col] = k
	}
	return k
}

// Decrypt executes the client plan over a server result (§4.6). The result's
// identifier section — one part from a daemon or an in-process engine, one per
// shard from a fleet's merge — arrives codec-encoded, and decoding it is part
// of the client's share, exactly as in the paper's cost breakdown: the query's
// decrypt span.
func Decrypt(tr *translate.Translation, res *engine.Result, ring *KeyRing) (*Result, error) {
	d := newDecrypter(ring, tr.Server.EffectiveCodec())
	defer d.release()
	out := &Result{}

	if len(tr.Client.ScanCols) > 0 {
		if err := d.decryptScan(tr, res, out); err != nil {
			return nil, err
		}
		out.PRFEvals = d.prfEvals
		return out, nil
	}

	// The result's columns are walked as they are — never a struct per group —
	// and never written: they may alias a received frame.
	cols := res.Cols
	if err := cols.CheckPlan(tr.Server); err != nil {
		return nil, err
	}
	if tr.Client.Inflated && cols != nil {
		// §4.5: "the client has to perform the remaining aggregations".
		var err error
		if cols, err = engine.DeflateGroups(tr.Server, cols); err != nil {
			return nil, err
		}
	}
	n := cols.Len()
	// Rows come from one block per result, and their values and keys from
	// another. Keys decrypt first: they fix the row order (by group key, for
	// stable output), and the rows are then built in that order.
	nOut := len(tr.Client.Outputs)
	var keys, values []Value
	if tr.Client.GroupKey != nil {
		values = make([]Value, n*(nOut+1))
		keys, values = values[:n:n], values[n:]
		for g := range keys {
			kv, err := d.groupKey(tr.Client.GroupKey, cols, g)
			if err != nil {
				return nil, err
			}
			keys[g] = kv
		}
	} else {
		values = make([]Value, n*nOut)
	}
	out.Rows = make([]Row, n)
	order, err := keyOrder(keys, n)
	if err != nil {
		return nil, err
	}
	for ri, gi := range order {
		g, row := int(gi), &out.Rows[ri]
		row.Values = values[ri*nOut : (ri+1)*nOut : (ri+1)*nOut]
		if keys != nil {
			row.Key = &keys[gi]
		}
		for oi := range tr.Client.Outputs {
			v, err := d.output(tr, &tr.Client.Outputs[oi], cols, g, row.Key)
			if err != nil {
				return nil, err
			}
			row.Values[oi] = v
		}
	}
	out.PRFEvals = d.prfEvals
	return out, nil
}

// asheSums returns every group's decrypted sum of ASHE aggregate column agg,
// decrypting the whole column the first time an output reads it (§3.2),
// against the result's identifier section (decodeSection): with one sweep of
// F over the section's span (ashe.SumParts), or two PRF values a piece
// (ashe.SumPieces).
func (d *decrypter) asheSums(o *translate.Output, cols *engine.GroupCols) ([]uint64, error) {
	col, n, sc := &cols.Aggs[o.Agg], cols.Len(), d.scratchBuf()
	if d.sums == nil {
		d.sums = make([][]uint64, len(cols.Aggs))
		sc.sums = slices.Grow(sc.sums[:0], n*len(cols.Aggs))[:n*len(cols.Aggs)]
	}
	if sums := d.sums[o.Agg]; sums != nil {
		return sums, nil
	}
	if d.sec == nil {
		if err := d.decodeSection(o, cols); err != nil {
			return nil, err
		}
	}
	sec := d.sec
	k, sums := d.ashe(o.SourceCol), sc.sums[o.Agg*n:(o.Agg+1)*n:(o.Agg+1)*n]
	copy(sums, col.Lane[:n])
	if sec.swept {
		k.SumParts(&sc.pad, sums, sec.parts, sec.lo, sec.hi)
		d.prfEvals += sc.pad.Evals()
	} else {
		d.prfEvals += 2 * k.SumPieces(sums, sec.parts)
	}
	d.sums[o.Agg] = sums
	return sums, nil
}

// decodeSection readies the columns' identifier section once, in the
// scratch, for every ASHE sum: each part's list decoded back to back into one
// block of ranges (engine.IDPart.DecodeList, which refuses a list that does
// not hold exactly the identifiers its runs hand out), beside its runs as
// they arrived decoded (engine.IDPart.Tags). Before any PRF value is computed
// it refuses identifier 0, naming the aggregate o that asked.
//
// The sums are swept when every part's list ascends, as every run writes
// them, and ashe.PadPays says the sweep costs less than the two PRF values a
// piece the parts need pointwise. A part's piece count lies between the larger
// of its run and range counts and their sum less one (its last run and range
// end together), so the pieces are counted only when PadPays answers
// differently at the two bounds.
func (d *decrypter) decodeSection(o *translate.Output, cols *engine.GroupCols) error {
	sc := d.scratchBuf()
	sc.sec = section{lo: math.MaxUint64}
	sec := &sc.sec
	sc.ranges, sc.runs, sc.parts = sc.ranges[:0], sc.runs[:0], sc.parts[:0]
	ascending, fewest, most := true, uint64(0), uint64(0)
	for i := range cols.IDs {
		p := &cols.IDs[i]
		from := len(sc.ranges)
		var err error
		var asc bool
		if sc.ranges, asc, err = p.DecodeList(d.codec, sc.ranges); err != nil {
			return fmt.Errorf("client: part %d: %v", i, err)
		}
		runs, err := p.Tags(&sc.runs)
		if err != nil {
			return fmt.Errorf("client: part %d: %v", i, err)
		}
		list := sc.ranges[from:len(sc.ranges):len(sc.ranges)]
		if len(list) == 0 {
			continue
		}
		// An ascending list's least identifier is its first.
		if asc && list[0].Lo == 0 || !asc && slices.ContainsFunc(list, func(r idlist.Range) bool { return r.Lo == 0 }) {
			return &ReservedIDError{Where: fmt.Sprintf("aggregate %d (sum of %s)", o.Agg, o.SourceCol)}
		}
		ascending = ascending && asc
		sec.lo, sec.hi = min(sec.lo, list[0].Lo), max(sec.hi, list[len(list)-1].Hi)
		ranges, nRuns := uint64(len(list)), uint64(len(runs))
		fewest += max(ranges, nRuns)
		most += ranges + max(nRuns, 1) - 1
		sc.parts = append(sc.parts, ashe.Part{Ranges: list, Runs: runs, Group: p.WholeGroup(), Remap: p.Remap})
	}
	sec.parts = sc.parts
	pays := func(pieces uint64) bool { return ascending && ashe.PadPays(sec.lo, sec.hi, 2*pieces) }
	sec.swept = pays(fewest)
	if !sec.swept && pays(most) {
		pieces := uint64(0)
		for _, part := range sec.parts {
			pieces += part.Pieces()
		}
		sec.swept = pays(pieces)
	}
	d.sec = sec
	return nil
}

// output evaluates one client-plan output for group g of the columns.
func (d *decrypter) output(tr *translate.Translation, o *translate.Output, cols *engine.GroupCols, g int, key *Value) (Value, error) {
	switch o.Kind {
	case translate.OutGroupKey:
		if key == nil {
			return Value{}, fmt.Errorf("client: group-key output without GROUP BY")
		}
		kv := *key
		kv.Name = o.Name
		return kv, nil
	case translate.OutPlain:
		col := &cols.Aggs[o.Agg]
		if col.Lane == nil {
			return Value{Name: o.Name, Kind: Int, I64: int64(col.Vals[g].U64)}, nil
		}
		return Value{Name: o.Name, Kind: Int, I64: int64(col.Lane[g])}, nil
	case translate.OutAsheSum:
		sums, err := d.asheSums(o, cols)
		if err != nil {
			return Value{}, err
		}
		return Value{Name: o.Name, Kind: Int, I64: int64(sums[g])}, nil
	case translate.OutPailSum:
		sk := d.ring.PaillierSK()
		if sk == nil {
			return Value{}, fmt.Errorf("client: no Paillier key for decryption")
		}
		return Value{Name: o.Name, Kind: Int, I64: int64(sk.DecryptU64(cols.Aggs[o.Agg].Vals[g].Pail))}, nil
	case translate.OutAvg:
		sum, err := d.output(tr, o.AuxSum, cols, g, key)
		if err != nil {
			return Value{}, err
		}
		cnt, err := d.output(tr, o.AuxCount, cols, g, key)
		if err != nil {
			return Value{}, err
		}
		if cnt.I64 == 0 {
			return Value{Name: o.Name, Kind: Float, F64: 0}, nil
		}
		return Value{Name: o.Name, Kind: Float, F64: float64(sum.I64) / float64(cnt.I64)}, nil
	case translate.OutVar, translate.OutStddev:
		sum, err := d.output(tr, o.AuxSum, cols, g, key)
		if err != nil {
			return Value{}, err
		}
		sq, err := d.output(tr, o.AuxSq, cols, g, key)
		if err != nil {
			return Value{}, err
		}
		cnt, err := d.output(tr, o.AuxCount, cols, g, key)
		if err != nil {
			return Value{}, err
		}
		if cnt.I64 == 0 {
			return Value{Name: o.Name, Kind: Float, F64: 0}, nil
		}
		n := float64(cnt.I64)
		mean := float64(sum.I64) / n
		v := float64(sq.I64)/n - mean*mean
		if v < 0 {
			v = 0 // floating-point guard
		}
		if o.Kind == translate.OutStddev {
			v = math.Sqrt(v)
		}
		return Value{Name: o.Name, Kind: Float, F64: v}, nil
	case translate.OutMinMax:
		av := &cols.Aggs[o.Agg].Vals[g]
		if len(av.CompanionBytes) > 0 {
			sk := d.ring.PaillierSK()
			if sk == nil {
				return Value{}, fmt.Errorf("client: no Paillier key for min/max companion")
			}
			return Value{Name: o.Name, Kind: Int, I64: int64(sk.DecryptU64(new(big.Int).SetBytes(av.CompanionBytes)))}, nil
		}
		if av.ArgID == 0 {
			return Value{Name: o.Name, Kind: Int, I64: 0}, nil // empty selection
		}
		d.prfEvals += 2
		return Value{Name: o.Name, Kind: Int, I64: int64(d.ashe(o.SourceCol).DecryptBody(av.U64, av.ArgID))}, nil
	}
	return Value{}, fmt.Errorf("client: unknown output kind %d", o.Kind)
}

// groupKey decrypts group g's key.
func (d *decrypter) groupKey(gk *translate.GroupKeyPlan, cols *engine.GroupCols, g int) (Value, error) {
	name := gk.SourceCol
	if cols.KeyKind == store.U64 {
		if gk.Det {
			return Value{}, fmt.Errorf("client: decrypt group key: result carries integer keys for a DET column")
		}
		return Value{Name: name, Kind: Int, I64: int64(cols.KeyU64[g])}, nil
	}
	key := cols.KeyBytes(g)
	if !gk.Det {
		return Value{Name: name, Kind: Str, Str: string(key)}, nil
	}
	keyName := gk.KeyName
	if keyName == "" {
		keyName = gk.SourceCol
	}
	dk := d.det(keyName)
	if gk.StrValues {
		s, err := dk.DecryptString(key)
		if err != nil {
			return Value{}, fmt.Errorf("client: decrypt group key: %v", err)
		}
		return Value{Name: name, Kind: Str, Str: s}, nil
	}
	id, err := dk.DecryptU64In(key, &d.block)
	if err != nil {
		return Value{}, fmt.Errorf("client: decrypt group key: %v", err)
	}
	if len(gk.Dict) > 0 {
		if id >= uint64(len(gk.Dict)) {
			return Value{}, fmt.Errorf("client: group key id %d outside dictionary", id)
		}
		return Value{Name: name, Kind: Str, Str: gk.Dict[id]}, nil
	}
	return Value{Name: name, Kind: Int, I64: int64(id)}, nil
}

// resolveScan picks, once per query, how each projected column decrypts: an
// ASHE column's key, by position, for scanRows' column pass, and for every
// other column the function that decrypts one of its cells, so no cell looks
// a key up or switches on its kind.
func (d *decrypter) resolveScan(cols []translate.ScanCol) {
	d.scanAshe, d.scanCell = make([]*ashe.Key, len(cols)), make([]cellFunc, len(cols))
	for i, sc := range cols {
		switch {
		case sc.Pail:
			sk := d.ring.PaillierSK()
			d.scanCell[i] = func(sr *engine.ScanRow, j int, v *Value) error {
				if sk == nil {
					return fmt.Errorf("client: no Paillier key for scan decryption")
				}
				v.I64 = int64(sk.DecryptU64(new(big.Int).SetBytes(sr.Bytes(j))))
				return nil
			}
		case sc.Ashe:
			d.scanAshe[i] = d.ashe(sc.SourceCol)
		case sc.Det && sc.StrValues:
			dk := d.det(sc.SourceCol)
			d.scanCell[i] = func(sr *engine.ScanRow, j int, v *Value) error {
				s, err := dk.DecryptString(sr.Bytes(j))
				if err != nil {
					return fmt.Errorf("client: scan decrypt: %v", err)
				}
				v.Kind, v.Str = Str, s
				return nil
			}
		case sc.Det:
			dk, dict := d.det(sc.SourceCol), sc.Dict
			d.scanCell[i] = func(sr *engine.ScanRow, j int, v *Value) error {
				id, err := dk.DecryptU64In(sr.Bytes(j), &d.block)
				if err != nil {
					return fmt.Errorf("client: scan decrypt: %v", err)
				}
				if id < uint64(len(dict)) {
					v.Kind, v.Str = Str, dict[id]
				} else {
					v.I64 = int64(id)
				}
				return nil
			}
		default:
			d.scanCell[i] = func(sr *engine.ScanRow, j int, v *Value) error {
				if s := sr.Str(j); s != "" {
					v.Kind, v.Str = Str, s
				} else {
					v.I64 = int64(sr.U64(j))
				}
				return nil
			}
		}
	}
}

// decryptScan processes scan-mode results.
func (d *decrypter) decryptScan(tr *translate.Translation, res *engine.Result, out *Result) error {
	cols := tr.Client.ScanCols
	d.resolveScan(cols)
	vals, err := d.scanRows(cols, res.Scan)
	if err != nil {
		return err
	}
	out.Rows = make([]Row, len(res.Scan))
	for i := range out.Rows {
		out.Rows[i] = scanRow(vals, len(cols), i)
	}
	return nil
}

// scanRow is row i of the values scanRows decrypted, n columns a row.
func scanRow(vals []Value, n, i int) Row {
	return Row{Values: vals[i*n : (i+1)*n : (i+1)*n]}
}

// scanRows decrypts scan rows, under the columns resolveScan resolved, into
// one backing array of values, row-major: the unit of work the streaming path
// (stream.go) applies per chunk as chunks arrive, and decryptScan's body for
// materialized results. scanRow carves a row's Values from it, exactly
// len(cols) long.
//
// The rows decrypt column by column, ScanChunkRows rows at a time. A window
// of an ASHE column decrypts against one pad over its identifiers' span
// [min, max] when ashe.PadPays says that costs less than the two PRF values
// a row needs pointwise, which a chunk's ascending identifiers make the common
// case. Every row's width is validated against the plan, and its identifier
// against the reserved 0 when an ASHE column is projected, before any cell is
// touched or pad computed: an in-process backend checks neither, and an
// untrusted server must not crash the client with either.
func (d *decrypter) scanRows(cols []translate.ScanCol, batch []engine.ScanRow) ([]Value, error) {
	n := len(cols)
	asheCol := slices.IndexFunc(d.scanAshe, func(k *ashe.Key) bool { return k != nil })
	for i := range batch {
		sr := &batch[i]
		if sr.Width() < n {
			return nil, fmt.Errorf("client: scan row %d carries %d columns, plan projects %d (malformed or hostile result)",
				sr.ID, sr.Width(), n)
		}
		if sr.ID == 0 && asheCol >= 0 {
			return nil, &ReservedIDError{Where: fmt.Sprintf("scan row 0 (column %s)", cols[asheCol].Name)}
		}
	}
	vals := make([]Value, len(batch)*n)
	for j, sc := range cols {
		for i := range batch {
			vals[i*n+j] = Value{Name: sc.Name, Kind: Int}
		}
		if d.scanAshe[j] != nil {
			continue
		}
		for i := range batch {
			if err := d.scanCell[j](&batch[i], j, &vals[i*n+j]); err != nil {
				return nil, err
			}
		}
	}
	defer d.release()
	for w := 0; w < len(batch); w += engine.ScanChunkRows {
		win := batch[w:min(w+engine.ScanChunkRows, len(batch))]
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for i := range win {
			lo, hi = min(lo, win[i].ID), max(hi, win[i].ID)
		}
		padded := ashe.PadPays(lo, hi, 2*uint64(len(win)))
		for j, k := range d.scanAshe {
			if k == nil {
				continue
			}
			if !padded {
				d.prfEvals += 2 * uint64(len(win))
				for i := range win {
					vals[(w+i)*n+j].I64 = int64(k.DecryptBody(win[i].U64(j), win[i].ID))
				}
				continue
			}
			pad := &d.scratchBuf().pad
			k.Fill(pad, lo, hi)
			d.prfEvals += pad.Evals()
			for i := range win {
				vals[(w+i)*n+j].I64 = int64(win[i].U64(j) + pad.Delta(win[i].ID))
			}
		}
	}
	return vals, nil
}

// DuplicateKeyError reports a result that holds two groups whose keys
// decrypt to one value. A merge or deflate folds equal keys together and a
// run's reducers own disjoint key buckets, so no legitimate result holds them:
// the server sent a malformed or hostile result.
type DuplicateKeyError struct {
	Key Value
}

// Error names the repeated key.
func (e *DuplicateKeyError) Error() string {
	return fmt.Sprintf("client: result holds group key %s twice (malformed or hostile result)", e.Key.Display())
}

// keyOrder returns the order result rows take: the n groups' indices sorted
// by decrypted group key (string keys as strings, others as integers), or as
// they are when the query has no group key. Two groups with one key are a
// DuplicateKeyError. Integer keys sort beside their indices by radix
// (sortKeyRefs), so no comparison reads a Value or calls a function.
func keyOrder(keys []Value, n int) ([]int32, error) {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if n == 0 || keys == nil {
		return order, nil
	}
	if keys[0].Kind == Str {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(keys[a].Str, keys[b].Str) })
		for i := 1; i < n; i++ {
			if keys[order[i-1]].Str == keys[order[i]].Str {
				return nil, &DuplicateKeyError{Key: keys[order[i]]}
			}
		}
		return order, nil
	}
	refs := make([]keyRef, n)
	for g := range refs {
		refs[g] = keyRef{uint64(keys[g].I64) ^ 1<<63, int32(g)}
	}
	refs = sortKeyRefs(refs)
	for i, r := range refs {
		if i > 0 && refs[i-1].k == r.k {
			return nil, &DuplicateKeyError{Key: keys[r.g]}
		}
		order[i] = r.g
	}
	return order, nil
}

// keyRef is an integer group key beside its group: the key with its sign bit
// flipped, so that unsigned order is the keys' signed order.
type keyRef struct {
	k uint64
	g int32
}

// sortKeyRefs sorts refs by key with a least-significant-byte-first radix
// sort, eight counting passes at most: a pass whose byte every key shares —
// the high bytes of small keys — is skipped. It returns the sorted slice,
// which is refs or a buffer of its length.
func sortKeyRefs(refs []keyRef) []keyRef {
	tmp := make([]keyRef, len(refs))
	for shift := uint(0); shift < 64; shift += 8 {
		var count [256]int
		for _, r := range refs {
			count[byte(r.k>>shift)]++
		}
		if count[byte(refs[0].k>>shift)] == len(refs) {
			continue
		}
		at := 0
		for b, c := range count {
			count[b], at = at, at+c
		}
		for _, r := range refs {
			b := byte(r.k >> shift)
			tmp[count[b]] = r
			count[b]++
		}
		refs, tmp = tmp, refs
	}
	return refs
}
