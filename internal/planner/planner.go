// Package planner implements Seabed's data planner (§4.2): it parses a
// sample query set, classifies each sensitive column as a measure or a
// dimension, and chooses an encryption scheme per column — ASHE for
// aggregated measures (plus client-computed squared columns for quadratic
// aggregates), SPLASHE for filter dimensions, DET for join/group dimensions,
// and OPE for range dimensions. Given a storage budget it prioritizes
// SPLASHE dimensions by cardinality, lowest first, exactly as §4.2
// prescribes.
package planner

import (
	"fmt"
	"sort"

	"seabed/internal/ope"
	"seabed/internal/schema"
	"seabed/internal/splashe"
	"seabed/internal/sqlparse"
)

// Options configures the planner.
type Options struct {
	// MaxStorageOverhead caps the encrypted table's estimated size as a
	// multiple of the plaintext size. Dimensions that would push the
	// estimate past the cap fall back to DET (with a warning). Zero means
	// unlimited.
	MaxStorageOverhead float64
}

// ColumnPlan records every encryption artifact planned for one source
// column. A column may need several (e.g. a measure used in both linear and
// quadratic aggregates gets an ASHE column and a squared ASHE column).
type ColumnPlan struct {
	Source string
	Type   schema.Type
	Role   schema.Role

	// Plain keeps the column unencrypted (non-sensitive columns).
	Plain bool
	// Ashe stores the column ASHE-encrypted for linear aggregation.
	Ashe bool
	// Square adds a client-computed x² column, ASHE-encrypted (§4.2:
	// quadratic aggregates such as variance).
	Square bool
	// Det stores the column deterministically encrypted (joins, group-by,
	// equality filters that SPLASHE cannot cover).
	Det bool
	// DetKeyName overrides the DET key identity. Join columns across tables
	// must share one key so their ciphertexts compare equal; the planner
	// assigns the canonical pair name to both sides. Empty means the column
	// uses its own name.
	DetKeyName string
	// Ope stores the column order-revealing encrypted (range filters,
	// MIN/MAX aggregates).
	Ope bool
	// Splashe, when non-nil, splays the dimension with the given layout.
	Splashe *splashe.Layout
	// SplayedMeasures lists the measure columns splayed under this
	// dimension (§4.2: "only these measure columns need to be
	// SPLASHE-encrypted").
	SplayedMeasures []string
	// SplayedSquares lists the quadratic measures whose squared columns are
	// also splayed under this dimension, so filtered variance stays fully
	// server-side.
	SplayedSquares []string
	// Dict maps value ids to strings for string dimensions.
	Dict []string
	// Cardinality carries the schema's declared distinct-value count for the
	// dimension (0 when unknown), so downstream consumers can size dense
	// structures without re-resolving the source schema.
	Cardinality int
}

// KeyDomain returns the size of the column's u64 key domain when the
// planner knows it — the dictionary size of a string dimension (whose
// values travel as value ids) or the declared cardinality of an integer
// dimension — and 0 when the domain is unbounded or unknown. Executors use
// it to size dense group-by accumulators; it is a sizing hint, never a
// correctness contract.
func (cp *ColumnPlan) KeyDomain() uint64 {
	if len(cp.Dict) > 0 {
		return uint64(len(cp.Dict))
	}
	if cp.Cardinality > 0 {
		return uint64(cp.Cardinality)
	}
	return 0
}

// DetKey returns the DET key identity for the column.
func (cp *ColumnPlan) DetKey() string {
	if cp.DetKeyName != "" {
		return cp.DetKeyName
	}
	return cp.Source
}

// PrimaryScheme summarizes the plan for display.
func (cp *ColumnPlan) PrimaryScheme() schema.Scheme {
	switch {
	case cp.Splashe != nil && cp.Splashe.Mode == splashe.Enhanced:
		return schema.SplasheEnhanced
	case cp.Splashe != nil:
		return schema.SplasheBasic
	case cp.Ashe:
		return schema.ASHE
	case cp.Ope:
		return schema.OPE
	case cp.Det:
		return schema.DET
	}
	return schema.Plain
}

// Plan is the encrypted schema the planner produces.
type Plan struct {
	Source   *schema.Table
	Cols     map[string]*ColumnPlan
	Order    []string
	Warnings []string
}

// Col returns the plan for the named source column, or nil.
func (p *Plan) Col(name string) *ColumnPlan { return p.Cols[name] }

// New runs the planner over a plaintext table and a sample query set.
func New(tbl *schema.Table, samples []*sqlparse.Query, opts Options) (*Plan, error) {
	p := &Plan{Source: tbl, Cols: make(map[string]*ColumnPlan)}
	for i := range tbl.Columns {
		c := &tbl.Columns[i]
		p.Cols[c.Name] = &ColumnPlan{Source: c.Name, Type: c.Type, Dict: c.Values, Cardinality: c.Cardinality}
		p.Order = append(p.Order, c.Name)
	}

	// Phase 1: classify columns by walking the sample queries.
	usage := newUsage()
	for _, q := range samples {
		if err := usage.walk(q, p); err != nil {
			return nil, err
		}
	}
	for name, role := range usage.roles {
		if cp := p.Cols[name]; cp != nil {
			cp.Role = role
		}
	}

	// Phase 2: choose schemes.
	var splasheCandidates []string
	for _, name := range p.Order {
		cp := p.Cols[name]
		col := tbl.Column(name)
		if !col.Sensitive {
			cp.Plain = true
			continue
		}
		role := cp.Role
		if role.Has(schema.RoleMeasure) {
			cp.Ashe = true
			if role.Has(schema.RoleQuadratic) {
				cp.Square = true
			}
		}
		if role.Has(schema.RoleProjected) && !cp.Ashe && col.Type == schema.Int64 {
			// Scan queries return the value; store it ASHE so the client can
			// decrypt returned rows (§6.7, BDB query 1).
			cp.Ashe = true
		}
		if role.Has(schema.RoleRange) && !role.Has(schema.RoleMeasure) {
			cp.Ope = true
		}
		if role.Has(schema.RoleMeasure) && (usage.minMax[name] || role.Has(schema.RoleRange)) {
			// MIN/MAX aggregates and range predicates over measures need
			// order comparisons server-side.
			cp.Ope = true
		}
		if role.Has(schema.RoleJoin) {
			cp.Det = true
			if partner := usage.joinPartner[name]; partner != "" {
				// Both sides of an equi-join must encrypt under one key;
				// derive a canonical name both tables' planners agree on.
				a, b := name, partner
				if a > b {
					a, b = b, a
				}
				cp.DetKeyName = "join:" + a + "=" + b
			}
			p.warnf("column %q is used in joins; falling back to deterministic encryption (frequency leakage)", name)
			continue
		}
		if role.Has(schema.RoleGroup) {
			cp.Det = true
			continue
		}
		if role.Has(schema.RoleDimension) && !role.Has(schema.RoleRange) {
			if col.Cardinality >= 2 {
				splasheCandidates = append(splasheCandidates, name)
			} else {
				cp.Det = true
				p.warnf("column %q has unknown cardinality; SPLASHE unavailable, using deterministic encryption", name)
			}
			continue
		}
		if role == schema.RoleNone && !cp.Ashe && !cp.Ope {
			// Sensitive but unused by samples: keep it retrievable.
			if col.Type == schema.Int64 {
				cp.Ashe = true
			} else {
				cp.Det = true
			}
		}
	}

	// Phase 3: SPLASHE storage budgeting. Lowest-cardinality dimensions
	// first, to maximize protection per byte (§4.2).
	sort.SliceStable(splasheCandidates, func(a, b int) bool {
		return tbl.Column(splasheCandidates[a]).Cardinality < tbl.Column(splasheCandidates[b]).Cardinality
	})
	baseBytes := p.plainRowBytes()
	budget := opts.MaxStorageOverhead
	usedBytes := p.encryptedRowBytes()
	for _, name := range splasheCandidates {
		cp := p.Cols[name]
		col := tbl.Column(name)
		layout, err := layoutFor(col)
		if err != nil {
			cp.Det = true
			p.warnf("column %q: %v; using deterministic encryption", name, err)
			continue
		}
		measures := usage.measuresWith[name]
		added := splasheRowBytes(layout, len(measures))
		if budget > 0 && (usedBytes+added) > budget*baseBytes {
			cp.Det = true
			p.warnf("column %q: SPLASHE would exceed the %.1fx storage budget; using deterministic encryption", name, budget)
			continue
		}
		usedBytes += added
		cp.Splashe = &layout
		cp.SplayedMeasures = sortedKeys(measures)
		for _, m := range cp.SplayedMeasures {
			if mp := p.Cols[m]; mp != nil && mp.Square {
				cp.SplayedSquares = append(cp.SplayedSquares, m)
			}
		}
	}
	return p, nil
}

func (p *Plan) warnf(format string, args ...interface{}) {
	p.Warnings = append(p.Warnings, fmt.Sprintf(format, args...))
}

func layoutFor(col *schema.Column) (splashe.Layout, error) {
	if len(col.Freqs) == col.Cardinality && col.Cardinality > 0 {
		return splashe.PlanEnhanced(col.Freqs)
	}
	return splashe.PlanBasic(col.Cardinality)
}

// plainRowBytes estimates the plaintext bytes per row.
func (p *Plan) plainRowBytes() float64 {
	var n float64
	for _, name := range p.Order {
		if p.Cols[name].Type == schema.Int64 {
			n += 8
		} else {
			n += 16 // rough average string width
		}
	}
	return n
}

// encryptedRowBytes estimates the encrypted bytes per row for the current
// plan, excluding SPLASHE columns (added incrementally during budgeting).
func (p *Plan) encryptedRowBytes() float64 {
	var n float64
	for _, name := range p.Order {
		cp := p.Cols[name]
		if cp.Plain {
			if cp.Type == schema.Int64 {
				n += 8
			} else {
				n += 16
			}
			continue
		}
		if cp.Ashe {
			n += 8
		}
		if cp.Square {
			n += 8
		}
		if cp.Det {
			n += detWidth(cp.Type)
		}
		if cp.Ope {
			n += ope.CiphertextSize
		}
	}
	return n
}

// splasheRowBytes estimates the per-row bytes a splayed dimension adds:
// 8-byte ASHE cells per indicator and per splayed measure column, plus the
// enhanced layout's DET column.
func splasheRowBytes(l splashe.Layout, numMeasures int) float64 {
	cells := l.NumSplayColumns() * (1 + numMeasures)
	n := float64(8 * cells)
	if l.Mode == splashe.Enhanced {
		n += 16 // DET column
	}
	return n
}

func detWidth(t schema.Type) float64 {
	if t == schema.Int64 {
		return 16
	}
	return 32 // tag + average string
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// usage accumulates column roles across the sample queries.
type usage struct {
	roles        map[string]schema.Role
	minMax       map[string]bool
	measuresWith map[string]map[string]bool // dim -> set of measures co-used
	joinPartner  map[string]string          // join column -> the other side
}

func newUsage() *usage {
	return &usage{
		roles:        make(map[string]schema.Role),
		minMax:       make(map[string]bool),
		measuresWith: make(map[string]map[string]bool),
		joinPartner:  make(map[string]string),
	}
}

func (u *usage) add(col string, role schema.Role) {
	u.roles[col] |= role
}

func (u *usage) walk(q *sqlparse.Query, p *Plan) error {
	if q.From.Sub != nil {
		if err := u.walk(q.From.Sub, p); err != nil {
			return err
		}
	}
	var measures, eqDims []string
	for _, se := range q.Select {
		if se.Star {
			continue
		}
		name := se.Col.Name
		switch se.Agg {
		case sqlparse.AggNone:
			u.add(name, schema.RoleProjected)
		case sqlparse.AggVar, sqlparse.AggStddev:
			u.add(name, schema.RoleMeasure|schema.RoleQuadratic)
			measures = append(measures, name)
		case sqlparse.AggMin, sqlparse.AggMax, sqlparse.AggMedian:
			u.add(name, schema.RoleMeasure)
			u.minMax[name] = true
		default:
			u.add(name, schema.RoleMeasure)
			measures = append(measures, name)
		}
	}
	for _, pred := range q.Where {
		name := pred.Col.Name
		role := schema.RoleDimension
		if pred.Op.IsRange() {
			role |= schema.RoleRange
		} else {
			eqDims = append(eqDims, name)
		}
		u.add(name, role)
	}
	for _, g := range q.GroupBy {
		u.add(g.Name, schema.RoleDimension|schema.RoleGroup)
	}
	if j := q.From.Join; j != nil {
		u.add(j.LeftCol.Name, schema.RoleDimension|schema.RoleJoin)
		u.add(j.RightCol.Name, schema.RoleDimension|schema.RoleJoin)
		u.joinPartner[j.LeftCol.Name] = j.RightCol.Name
		u.joinPartner[j.RightCol.Name] = j.LeftCol.Name
	}
	// Record measure co-occurrence for SPLASHE planning.
	for _, d := range eqDims {
		set := u.measuresWith[d]
		if set == nil {
			set = make(map[string]bool)
			u.measuresWith[d] = set
		}
		for _, m := range measures {
			set[m] = true
		}
	}
	return nil
}
