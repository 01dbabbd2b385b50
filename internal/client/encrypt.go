package client

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"

	"seabed/internal/det"
	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/planner"
	"seabed/internal/splashe"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// paillierMaskPoolSize bounds the precomputed r^N masks used when preparing
// Paillier baseline datasets (README.md, "Paper figures: what is
// substituted", item 3).
const paillierMaskPoolSize = 1024

// Encrypt materializes the physical table for a mode from plaintext source
// data. The source table holds one column per schema column: U64 columns for
// integers, Str columns for strings. Row identifiers are assigned
// contiguously from 1 (§4.2).
func Encrypt(plan *planner.Plan, ring *KeyRing, src *store.Table, mode translate.Mode, parts int) (*store.Table, error) {
	return EncryptFrom(plan, ring, src, mode, parts, 1)
}

// EncryptFrom is Encrypt with an explicit first row identifier, used when
// appending a batch to an already-uploaded table. Database insertions are
// handled exactly like the initial upload (§4.1).
func EncryptFrom(plan *planner.Plan, ring *KeyRing, src *store.Table, mode translate.Mode, parts int, startID uint64) (*store.Table, error) {
	flat, err := flatten(src)
	if err != nil {
		return nil, err
	}
	rows := int(src.NumRows())

	if mode == translate.NoEnc {
		cols := make([]store.Column, 0, len(plan.Order))
		for _, name := range plan.Order {
			c, ok := flat[name]
			if !ok {
				return nil, fmt.Errorf("client: source table missing column %q", name)
			}
			cols = append(cols, *c)
		}
		return store.BuildFrom(src.Name, cols, parts, startID)
	}

	var pool *paillier.MaskPool
	if mode == translate.Paillier {
		pk := ring.PaillierPK()
		if pk == nil {
			return nil, fmt.Errorf("client: Paillier mode needs EnsurePaillier first")
		}
		pool, err = pk.NewMaskPool(rand.Reader, paillierMaskPoolSize)
		if err != nil {
			return nil, err
		}
	}

	e := &encryptor{plan: plan, ring: ring, flat: flat, rows: rows, pool: pool, startID: startID}
	var cols []store.Column
	for _, name := range plan.Order {
		cp := plan.Cols[name]
		cc, err := e.columnsFor(cp, mode)
		if err != nil {
			return nil, err
		}
		cols = append(cols, cc...)
	}
	return store.BuildFrom(src.Name, cols, parts, startID)
}

type encryptor struct {
	plan    *planner.Plan
	ring    *KeyRing
	flat    map[string]*store.Column
	rows    int
	pool    *paillier.MaskPool
	startID uint64
}

// measureVals returns a measure column's integer values.
func (e *encryptor) measureVals(name string) ([]uint64, error) {
	c, ok := e.flat[name]
	if !ok {
		return nil, fmt.Errorf("client: source table missing column %q", name)
	}
	if c.Kind != store.U64 {
		return nil, fmt.Errorf("client: column %q is not integer-valued", name)
	}
	return c.U64, nil
}

// dimIDs returns a dimension column's value ids: dictionary positions for
// string dimensions, the raw values for integer dimensions.
func (e *encryptor) dimIDs(cp *planner.ColumnPlan) ([]int, error) {
	c, ok := e.flat[cp.Source]
	if !ok {
		return nil, fmt.Errorf("client: source table missing column %q", cp.Source)
	}
	ids := make([]int, e.rows)
	if c.Kind == store.Str {
		if len(cp.Dict) == 0 {
			return nil, fmt.Errorf("client: string dimension %q needs a value dictionary for splaying", cp.Source)
		}
		idx := make(map[string]int, len(cp.Dict))
		for i, v := range cp.Dict {
			idx[v] = i
		}
		for i, s := range c.Str {
			id, ok := idx[s]
			if !ok {
				return nil, fmt.Errorf("client: value %q of column %q not in dictionary", s, cp.Source)
			}
			ids[i] = id
		}
		return ids, nil
	}
	for i, v := range c.U64 {
		ids[i] = int(v)
	}
	return ids, nil
}

// columnsFor materializes every physical column derived from one source
// column.
func (e *encryptor) columnsFor(cp *planner.ColumnPlan, mode translate.Mode) ([]store.Column, error) {
	var out []store.Column
	if cp.Plain {
		c := e.flat[cp.Source]
		if c == nil {
			return nil, fmt.Errorf("client: source table missing column %q", cp.Source)
		}
		return []store.Column{*c}, nil
	}

	if cp.Ashe {
		vals, err := e.measureVals(cp.Source)
		if err != nil {
			return nil, err
		}
		if mode == translate.Paillier {
			out = append(out, e.paillierColumn(planner.PailName(cp.Source), vals))
		} else {
			name := planner.AsheName(cp.Source)
			out = append(out, store.Column{Name: name, Kind: store.U64,
				U64: e.ring.Ashe(name).EncryptColumn(vals, e.startID)})
		}
		if cp.Square {
			sq := make([]uint64, len(vals))
			for i, v := range vals {
				sq[i] = v * v
			}
			if mode == translate.Paillier {
				out = append(out, e.paillierColumn(planner.PailName(planner.SquareName(cp.Source)), sq))
			} else {
				name := planner.SquareName(cp.Source)
				out = append(out, store.Column{Name: name, Kind: store.U64,
					U64: e.ring.Ashe(name).EncryptColumn(sq, e.startID)})
			}
		}
	}

	if cp.Det {
		col, err := e.detColumn(cp)
		if err != nil {
			return nil, err
		}
		out = append(out, col)
	}

	if cp.Ope {
		vals, err := e.measureVals(cp.Source)
		if err != nil {
			return nil, err
		}
		out = append(out, store.Column{Name: planner.OpeName(cp.Source), Kind: store.Fixed,
			Width: ope.CiphertextSize, Fixed: e.ring.Ope(cp.Source).EncryptColumn(vals)})
	}

	if cp.Splashe != nil {
		if mode == translate.Paillier {
			// The Paillier baseline has no SPLASHE; dimensions fall back to
			// DET (§6.1).
			col, err := e.detColumn(cp)
			if err != nil {
				return nil, err
			}
			out = append(out, col)
			return out, nil
		}
		cols, err := e.splasheColumns(cp)
		if err != nil {
			return nil, err
		}
		out = append(out, cols...)
	}
	return out, nil
}

// detColumn deterministically encrypts one dimension, honoring the
// dictionary convention (dictionary → DET(id), plain string → DET(string)).
// Integers and dictionary ids make a Fixed column, one buffer; only
// undictionaried strings, whose ciphertexts vary in length, make a Bytes one.
func (e *encryptor) detColumn(cp *planner.ColumnPlan) (store.Column, error) {
	dk := e.ring.Det(cp.DetKey())
	c := e.flat[cp.Source]
	if c == nil {
		return store.Column{}, fmt.Errorf("client: source table missing column %q", cp.Source)
	}
	name := planner.DetName(cp.Source)
	vals := c.U64
	switch {
	case c.Kind == store.Str && len(cp.Dict) > 0:
		ids, err := e.dimIDs(cp)
		if err != nil {
			return store.Column{}, err
		}
		vals = make([]uint64, len(ids))
		for i, id := range ids {
			vals[i] = uint64(id)
		}
	case c.Kind == store.Str:
		cts := make([][]byte, e.rows)
		for i, s := range c.Str {
			cts[i] = dk.EncryptString(s)
		}
		return store.Column{Name: name, Kind: store.Bytes, Bytes: cts}, nil
	}
	return detU64Column(name, dk, vals), nil
}

// detU64Column is the Fixed column of vals' DET ciphertexts.
func detU64Column(name string, dk *det.Key, vals []uint64) store.Column {
	return store.Column{Name: name, Kind: store.Fixed, Width: det.U64Size, Fixed: dk.EncryptU64Column(vals)}
}

// splasheColumns splays one dimension: indicator columns, the balanced DET
// column for enhanced layouts, and the splayed measure columns (§3.3, §3.4).
func (e *encryptor) splasheColumns(cp *planner.ColumnPlan) ([]store.Column, error) {
	l := cp.Splashe
	ids, err := e.dimIDs(cp)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if id < 0 || id >= l.D {
			return nil, fmt.Errorf("client: row %d of %q has value id %d outside cardinality %d", i, cp.Source, id, l.D)
		}
	}
	n := l.NumSplayColumns()
	var out []store.Column

	// Indicator columns.
	for col := 0; col < n; col++ {
		others := l.Mode == splashe.Enhanced && col == n-1
		vals := make([]uint64, e.rows)
		for i, id := range ids {
			c := l.ColumnOf(id)
			if c < 0 {
				c = n - 1
			}
			if c == col {
				vals[i] = 1
			}
		}
		name := planner.IndName(cp.Source, col, others)
		out = append(out, store.Column{Name: name, Kind: store.U64,
			U64: e.ring.Ashe(name).EncryptColumn(vals, e.startID)})
	}

	// Balanced DET column (enhanced only).
	if l.Mode == splashe.Enhanced {
		seedBytes := e.ring.derive("splashe-balance", cp.Source)
		rng := mrand.New(mrand.NewSource(int64(binary.LittleEndian.Uint64(seedBytes[:8]))))
		detIDs, err := l.BalanceDET(ids, rng)
		if err != nil {
			return nil, err
		}
		vals := make([]uint64, len(detIDs))
		for i, id := range detIDs {
			vals[i] = uint64(id)
		}
		out = append(out, detU64Column(planner.DetName(cp.Source), e.ring.Det(cp.Source), vals))
	}

	// Splayed measure columns.
	splayMeasure := func(m string, square bool) error {
		mv, err := e.measureVals(m)
		if err != nil {
			return err
		}
		for col := 0; col < n; col++ {
			others := l.Mode == splashe.Enhanced && col == n-1
			vals := make([]uint64, e.rows)
			for i, id := range ids {
				c := l.ColumnOf(id)
				if c < 0 {
					c = n - 1
				}
				if c == col {
					if square {
						vals[i] = mv[i] * mv[i]
					} else {
						vals[i] = mv[i]
					}
				}
			}
			base := m
			if square {
				base = planner.SquareName(m)
			}
			name := planner.SplayName(base, cp.Source, col, others)
			out = append(out, store.Column{Name: name, Kind: store.U64,
				U64: e.ring.Ashe(name).EncryptColumn(vals, e.startID)})
		}
		return nil
	}
	for _, m := range cp.SplayedMeasures {
		if err := splayMeasure(m, false); err != nil {
			return nil, err
		}
	}
	for _, m := range cp.SplayedSquares {
		if err := splayMeasure(m, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// paillierColumn encrypts a measure with the baseline cryptosystem.
func (e *encryptor) paillierColumn(name string, vals []uint64) store.Column {
	pk := e.ring.PaillierPK()
	cts := make([][]byte, len(vals))
	for i, v := range vals {
		cts[i] = pk.Marshal(e.pool.EncryptU64(v))
	}
	return store.Column{Name: name, Kind: store.Bytes, Bytes: cts}
}

// flatten concatenates a (possibly partitioned) source table per column.
func flatten(t *store.Table) (map[string]*store.Column, error) {
	out := make(map[string]*store.Column)
	for _, name := range t.ColNames() {
		kind, err := t.ColKind(name)
		if err != nil {
			return nil, err
		}
		full := &store.Column{Name: name, Kind: kind}
		for _, p := range t.Parts {
			c := p.Col(name)
			if c == nil {
				return nil, fmt.Errorf("client: partition missing column %q", name)
			}
			full.AppendRows(c)
		}
		out[name] = full
	}
	return out, nil
}
