package client

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"time"

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

// Result is a fully decrypted query result with its cost breakdown.
type Result struct {
	Rows []Row
	// ClientTime is the measured decryption + post-processing time (§4.6).
	ClientTime time.Duration
	// PRFEvals counts the AES operations the decryption performed, the
	// statistic §6.6 reports.
	PRFEvals uint64
	// Metrics echoes the server-side metrics.
	Metrics engine.Metrics
}

// decrypter caches derived keys across rows.
type decrypter struct {
	ring     *KeyRing
	asheKeys map[string]*ashe.Key
	detKeys  map[string]*det.Key
	prfEvals uint64
	codec    idlist.Codec
	// ranges is asheOf's decode buffer, reused across identifier lists.
	ranges []idlist.Range
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

// Decrypt executes the client plan over a server result (§4.6). The
// identifier lists of a result decoded from a frame, or handed over by an
// in-process engine, are codec-encoded, and decoding them is part of the
// measured client time, exactly as in the paper's cost breakdown; those of a
// result merged in this process (a fleet's, or inflated groups deflated here)
// are already decoded and are read where they lie.
func Decrypt(tr *translate.Translation, res *engine.Result, ring *KeyRing) (*Result, error) {
	start := time.Now()
	d := newDecrypter(ring, tr.Server.EffectiveCodec())
	out := &Result{Metrics: res.Metrics}

	if len(tr.Client.ScanCols) > 0 {
		if err := d.decryptScan(tr, res, out); err != nil {
			return nil, err
		}
		out.ClientTime = time.Since(start)
		out.PRFEvals = d.prfEvals
		return out, nil
	}

	// The result's columns are walked as they are — never a struct per group —
	// and never written: they may alias a received frame.
	cols, err := res.Columns()
	if err != nil {
		return nil, err
	}
	if err := cols.CheckPlan(tr.Server); err != nil {
		return nil, err
	}
	if tr.Client.Inflated && cols != nil {
		// §4.5: "the client has to perform the remaining aggregations".
		if cols, err = engine.DeflateGroups(tr.Server, cols); err != nil {
			return nil, err
		}
	}
	n := cols.Len()
	// Rows, their values and their keys come from one block each per result.
	// Keys decrypt first: they fix the row order (by group key, for stable
	// output), and the rows are then built in that order.
	var keys []Value
	if tr.Client.GroupKey != nil {
		keys = make([]Value, n)
		for g := range keys {
			kv, err := d.groupKey(tr.Client.GroupKey, cols, g)
			if err != nil {
				return nil, err
			}
			keys[g] = kv
		}
	}
	nOut := len(tr.Client.Outputs)
	out.Rows = make([]Row, n)
	values := make([]Value, n*nOut)
	for ri, gi := range keyOrder(keys, n) {
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
	out.ClientTime = time.Since(start)
	out.PRFEvals = d.prfEvals
	return out, nil
}

// asheOf reconstructs group g's ASHE ciphertext from an aggregate column: a
// view of a decoded column's list, or an encoded list decoded out of the
// column's block into the decrypter's range buffer, where it is valid until the
// next asheOf call.
func (d *decrypter) asheOf(col *engine.AggCol, g int) (ashe.Ciphertext, error) {
	if col.RangeOff != nil {
		return ashe.Ciphertext{Body: col.Lane[g], IDs: idlist.View(col.DecodedIDs(g))}, nil
	}
	ranges, err := d.codec.AppendDecode(d.ranges[:0], col.EncodedIDs(g))
	if err != nil {
		return ashe.Ciphertext{}, fmt.Errorf("client: decode id list: %v", err)
	}
	d.ranges = ranges
	return ashe.Ciphertext{Body: col.Lane[g], IDs: idlist.View(ranges)}, nil
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
		ct, err := d.asheOf(&cols.Aggs[o.Agg], g)
		if err != nil {
			return Value{}, err
		}
		d.prfEvals += ashe.PRFEvalsToDecrypt(ct)
		return Value{Name: o.Name, Kind: Int, I64: int64(d.ashe(o.SourceCol).Decrypt(ct))}, nil
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
	id, err := dk.DecryptU64(key)
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

// decryptScan processes scan-mode results.
func (d *decrypter) decryptScan(tr *translate.Translation, res *engine.Result, out *Result) error {
	cols := tr.Client.ScanCols
	vals := make([]Value, len(res.Scan)*len(cols))
	out.Rows = slices.Grow(out.Rows, len(res.Scan))
	for i := range res.Scan {
		row, err := d.scanRow(cols, &res.Scan[i], vals[i*len(cols):])
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, row)
	}
	return nil
}

// scanRow decrypts one scan row into the front of vals, which becomes the
// row's Values, exactly len(cols) long: the caller hands it the rest of one
// backing array per chunk of rows, so rows are carved, not grown, as the
// engine's scan arenas and the wire decoder do on their sides.
// It is the unit of work the streaming path (stream.go) applies per row as
// chunks arrive, and decryptScan's body for materialized results. The row's
// projection width is validated against the plan before any cell is touched:
// the wire decoder only checks a row's internal consistency, an in-process
// backend checks nothing, and an untrusted server must not be able to crash
// the client with a short or ragged row.
func (d *decrypter) scanRow(cols []translate.ScanCol, sr *engine.ScanRow, vals []Value) (Row, error) {
	if n := len(cols); len(sr.U64s) < n || len(sr.Bytes) < n || len(sr.Strs) < n {
		return Row{}, fmt.Errorf("client: scan row %d carries %d/%d/%d columns, plan projects %d (malformed or hostile result)",
			sr.ID, len(sr.U64s), len(sr.Bytes), len(sr.Strs), n)
	}
	vals = vals[:len(cols):len(cols)]
	for i, sc := range cols {
		v := &vals[i]
		*v = Value{Name: sc.Name, Kind: Int}
		switch {
		case sc.Pail:
			sk := d.ring.PaillierSK()
			if sk == nil {
				return Row{}, fmt.Errorf("client: no Paillier key for scan decryption")
			}
			v.I64 = int64(sk.DecryptU64(new(big.Int).SetBytes(sr.Bytes[i])))
		case sc.Ashe:
			d.prfEvals += 2
			v.I64 = int64(d.ashe(sc.SourceCol).DecryptBody(sr.U64s[i], sr.ID))
		case sc.Det && sc.StrValues:
			s, err := d.det(sc.SourceCol).DecryptString(sr.Bytes[i])
			if err != nil {
				return Row{}, fmt.Errorf("client: scan decrypt: %v", err)
			}
			v.Kind, v.Str = Str, s
		case sc.Det:
			id, err := d.det(sc.SourceCol).DecryptU64(sr.Bytes[i])
			if err != nil {
				return Row{}, fmt.Errorf("client: scan decrypt: %v", err)
			}
			if len(sc.Dict) > 0 && id < uint64(len(sc.Dict)) {
				v.Kind, v.Str = Str, sc.Dict[id]
			} else {
				v.I64 = int64(id)
			}
		case sr.Strs[i] != "":
			v.Kind, v.Str = Str, sr.Strs[i]
		default:
			v.I64 = int64(sr.U64s[i])
		}
	}
	return Row{Values: vals}, nil
}

// keyOrder returns the order result rows take: the n groups' indices sorted
// by decrypted group key (string keys as strings, others as integers), equal
// keys in group order, or as they are when the query has no group key. Integer
// keys sort beside their indices, so a comparison reads no Value.
func keyOrder(keys []Value, n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if n == 0 || keys == nil {
		return order
	}
	if keys[0].Kind == Str {
		slices.SortFunc(order, func(a, b int32) int {
			return cmp.Or(cmp.Compare(keys[a].Str, keys[b].Str), cmp.Compare(a, b))
		})
		return order
	}
	type ref struct {
		k int64
		g int32
	}
	refs := make([]ref, n)
	for g := range refs {
		refs[g] = ref{keys[g].I64, int32(g)}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if a.k != b.k {
			return cmp.Compare(a.k, b.k)
		}
		return cmp.Compare(a.g, b.g)
	})
	for i, r := range refs {
		order[i] = r.g
	}
	return order
}
