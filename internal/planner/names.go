package planner

import (
	"fmt"

	"seabed/internal/schema"
	"seabed/internal/splashe"
	"seabed/internal/store"
)

// Encrypted-schema column naming. The encryption module, query translator,
// and decryption module all resolve physical columns through these helpers,
// so the convention lives in one place.

// AsheName returns the physical name of a measure's ASHE column.
func AsheName(m string) string { return m + "_ashe" }

// SquareName returns the physical name of a measure's client-computed
// squared column (ASHE-encrypted).
func SquareName(m string) string { return m + "_sq" }

// DetName returns the physical name of a dimension's DET column.
func DetName(d string) string { return d + "_det" }

// PailName returns the physical name of a measure's Paillier column in the
// baseline configuration the evaluation compares against.
func PailName(m string) string { return m + "_pail" }

// OpeName returns the physical name of a dimension's OPE column.
func OpeName(d string) string { return d + "_ope" }

// IndName returns the physical name of a SPLASHE indicator column. col is
// the dedicated-column index; others selects the enhanced layout's "others"
// indicator.
func IndName(dim string, col int, others bool) string {
	if others {
		return dim + "_ind_oth"
	}
	return fmt.Sprintf("%s_ind_%d", dim, col)
}

// SplayName returns the physical name of a splayed measure column.
func SplayName(m, dim string, col int, others bool) string {
	if others {
		return fmt.Sprintf("%s_spl_%s_oth", m, dim)
	}
	return fmt.Sprintf("%s_spl_%s_%d", m, dim, col)
}

// EncColumn describes one physical column of the encrypted table.
type EncColumn struct {
	Name string
	Kind store.Kind
	// Scheme is the scheme that produced the column.
	Scheme schema.Scheme
	// Source is the plaintext column the data derives from.
	Source string
}

// detKind is the kind of the column's DET form: integers and dictionary ids
// encrypt to 16-byte blocks (Fixed); only undictionaried strings vary.
func (cp *ColumnPlan) detKind() store.Kind {
	if cp.Type == schema.String && len(cp.Dict) == 0 {
		return store.Bytes
	}
	return store.Fixed
}

// EncColumns enumerates every physical column of the encrypted table in a
// deterministic order. The encryption module materializes exactly these; the
// translator resolves against them.
func (p *Plan) EncColumns() []EncColumn {
	var out []EncColumn
	add := func(name string, kind store.Kind, s schema.Scheme, src string) {
		out = append(out, EncColumn{Name: name, Kind: kind, Scheme: s, Source: src})
	}
	for _, name := range p.Order {
		cp := p.Cols[name]
		if cp.Plain {
			kind := store.U64
			if cp.Type == schema.String {
				kind = store.Str
			}
			add(name, kind, schema.Plain, name)
			continue
		}
		if cp.Ashe {
			add(AsheName(name), store.U64, schema.ASHE, name)
		}
		if cp.Square {
			add(SquareName(name), store.U64, schema.ASHE, name)
		}
		if cp.Det {
			add(DetName(name), cp.detKind(), schema.DET, name)
		}
		if cp.Ope {
			add(OpeName(name), store.Fixed, schema.OPE, name)
		}
		if l := cp.Splashe; l != nil {
			mode := schema.SplasheBasic
			if l.Mode == splashe.Enhanced {
				mode = schema.SplasheEnhanced
			}
			n := l.NumSplayColumns()
			for i := 0; i < n; i++ {
				others := l.Mode == splashe.Enhanced && i == n-1
				add(IndName(name, i, others), store.U64, mode, name)
			}
			if l.Mode == splashe.Enhanced {
				add(DetName(name), store.Fixed, schema.DET, name) // DET of balanced value ids
			}
			for _, m := range cp.SplayedMeasures {
				for i := 0; i < n; i++ {
					others := l.Mode == splashe.Enhanced && i == n-1
					add(SplayName(m, name, i, others), store.U64, mode, m)
				}
			}
			for _, m := range cp.SplayedSquares {
				for i := 0; i < n; i++ {
					others := l.Mode == splashe.Enhanced && i == n-1
					add(SplayName(SquareName(m), name, i, others), store.U64, mode, m)
				}
			}
		}
	}
	return out
}
