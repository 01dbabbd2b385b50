package translate

import (
	"fmt"

	"seabed/internal/engine"
	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
)

// translateAggregates rewrites the SELECT list of an aggregation query.
func (t *translator) translateAggregates(q *sqlparse.Query, plan *planner.Plan, spl *splasheCtx, tr *Translation) error {
	sp := tr.Server
	// addAgg appends a server aggregate and returns its index.
	addAgg := func(a engine.Agg) int {
		sp.Aggs = append(sp.Aggs, a)
		return len(sp.Aggs) - 1
	}
	// sumAggFor returns the server aggregate summing measure m, honoring the
	// active SPLASHE rewrite, the mode, and an optional squared variant.
	sumAggFor := func(m string, squared bool) (engine.Agg, error) {
		cp, err := t.measurePlan(q, plan, m)
		if err != nil {
			return engine.Agg{}, err
		}
		if t.mode == NoEnc || cp.Plain {
			if squared {
				return engine.Agg{}, fmt.Errorf("translate: internal: squared plain aggregation is computed from the base column")
			}
			return engine.Agg{Kind: engine.AggPlainSum, Col: m}, nil
		}
		if t.mode == Paillier {
			col := planner.PailName(m)
			if squared {
				col = planner.PailName(planner.SquareName(m))
			}
			return engine.Agg{Kind: engine.AggPaillierSum, Col: col, PK: t.keys.PaillierPK()}, nil
		}
		// Seabed.
		if spl != nil && contains(spl.cp.SplayedMeasures, m) {
			if squared {
				if !contains(spl.cp.SplayedSquares, m) {
					return engine.Agg{}, fmt.Errorf("translate: quadratic aggregate over splayed measure %q needs its squared column splayed; re-run the planner with this query in the sample set", m)
				}
				return engine.Agg{Kind: engine.AggAsheSum, Col: planner.SplayName(planner.SquareName(m), spl.dim, spl.col, spl.others)}, nil
			}
			return engine.Agg{Kind: engine.AggAsheSum, Col: planner.SplayName(m, spl.dim, spl.col, spl.others)}, nil
		}
		if spl != nil {
			return engine.Agg{}, fmt.Errorf("translate: measure %q is not splayed under dimension %q; re-run the planner with this query in the sample set", m, spl.dim)
		}
		if !cp.Ashe {
			return engine.Agg{}, fmt.Errorf("translate: column %q has no ASHE form for aggregation", m)
		}
		col := planner.AsheName(m)
		if squared {
			if !cp.Square {
				return engine.Agg{}, fmt.Errorf("translate: column %q has no squared column; quadratic aggregates need client pre-processing (§4.2)", m)
			}
			col = planner.SquareName(m)
		}
		return engine.Agg{Kind: engine.AggAsheSum, Col: col}, nil
	}
	// countAgg returns the server aggregate counting selected rows: a plain
	// count normally, or the SPLASHE indicator sum under a splay rewrite
	// (dummy rows must not count, §3.4).
	countAgg := func() engine.Agg {
		if t.mode == Seabed && spl != nil {
			return engine.Agg{Kind: engine.AggAsheSum, Col: planner.IndName(spl.dim, spl.col, spl.others)}
		}
		return engine.Agg{Kind: engine.AggCount}
	}
	outKindForSum := func(cp *planner.ColumnPlan) OutputKind {
		switch {
		case t.mode == NoEnc || cp.Plain:
			return OutPlain
		case t.mode == Paillier:
			return OutPailSum
		default:
			return OutAsheSum
		}
	}

	for _, se := range q.Select {
		name := se.Alias
		if name == "" {
			name = se.String()
		}
		switch se.Agg {
		case sqlparse.AggNone:
			// Bare column in an aggregation query: must be the group key.
			if !isGroupCol(q, se.Col.Name) {
				return fmt.Errorf("translate: bare column %q in aggregate query must appear in GROUP BY", se.Col.Name)
			}
			tr.Client.Outputs = append(tr.Client.Outputs, Output{Name: name, Kind: OutGroupKey, SourceCol: se.Col.Name})
		case sqlparse.AggCount:
			a := countAgg()
			idx := addAgg(a)
			kind := OutPlain
			src := ""
			if a.Kind == engine.AggAsheSum {
				kind = OutAsheSum
				src = a.Col // indicator columns are keyed by physical name
			}
			tr.Client.Outputs = append(tr.Client.Outputs, Output{Name: name, Kind: kind, Agg: idx, SourceCol: src})
		case sqlparse.AggSum:
			a, err := sumAggFor(se.Col.Name, false)
			if err != nil {
				return err
			}
			idx := addAgg(a)
			cp, _ := t.measurePlan(q, plan, se.Col.Name)
			// ASHE keys are per physical column, so SourceCol carries the
			// physical name (base, squared, splayed, or indicator column).
			tr.Client.Outputs = append(tr.Client.Outputs, Output{Name: name, Kind: outKindForSum(cp), Agg: idx, SourceCol: a.Col})
		case sqlparse.AggAvg:
			a, err := sumAggFor(se.Col.Name, false)
			if err != nil {
				return err
			}
			sumIdx := addAgg(a)
			cntIdx := addAgg(countAgg())
			cp, _ := t.measurePlan(q, plan, se.Col.Name)
			cntOut := Output{Kind: OutPlain, Agg: cntIdx}
			if sp.Aggs[cntIdx].Kind == engine.AggAsheSum {
				cntOut = Output{Kind: OutAsheSum, Agg: cntIdx, SourceCol: sp.Aggs[cntIdx].Col}
			}
			tr.Client.Outputs = append(tr.Client.Outputs, Output{
				Name: name, Kind: OutAvg, Agg: sumIdx, SourceCol: a.Col,
				AuxSum:   &Output{Kind: outKindForSum(cp), Agg: sumIdx, SourceCol: a.Col},
				AuxCount: &cntOut,
			})
		case sqlparse.AggVar, sqlparse.AggStddev:
			sum, err := sumAggFor(se.Col.Name, false)
			if err != nil {
				return err
			}
			cp, _ := t.measurePlan(q, plan, se.Col.Name)
			var sq engine.Agg
			if t.mode == NoEnc || cp.Plain {
				sq = engine.Agg{Kind: engine.AggPlainSumSq, Col: se.Col.Name}
			} else {
				sq, err = sumAggFor(se.Col.Name, true)
				if err != nil {
					return err
				}
			}
			sumIdx := addAgg(sum)
			sqIdx := addAgg(sq)
			cntIdx := addAgg(countAgg())
			kind := OutVar
			if se.Agg == sqlparse.AggStddev {
				kind = OutStddev
			}
			out := Output{Name: name, Kind: kind, Agg: sumIdx, SourceCol: sum.Col}
			out.AuxSum = &Output{Kind: outKindForSum(cp), Agg: sumIdx, SourceCol: sum.Col}
			sqKind := out.AuxSum.Kind
			if sq.Kind == engine.AggPlainSumSq {
				sqKind = OutPlain
			}
			out.AuxSq = &Output{Kind: sqKind, Agg: sqIdx, SourceCol: sq.Col}
			cntOut := Output{Kind: OutPlain, Agg: cntIdx}
			if sp.Aggs[cntIdx].Kind == engine.AggAsheSum {
				cntOut = Output{Kind: OutAsheSum, Agg: cntIdx, SourceCol: sp.Aggs[cntIdx].Col}
			}
			out.AuxCount = &cntOut
			tr.Client.Outputs = append(tr.Client.Outputs, out)
		case sqlparse.AggMin, sqlparse.AggMax, sqlparse.AggMedian:
			cp, err := t.measurePlan(q, plan, se.Col.Name)
			if err != nil {
				return err
			}
			if t.mode == NoEnc || cp.Plain {
				kind := engine.AggPlainMin
				switch se.Agg {
				case sqlparse.AggMax:
					kind = engine.AggPlainMax
				case sqlparse.AggMedian:
					kind = engine.AggPlainMedian
				}
				idx := addAgg(engine.Agg{Kind: kind, Col: se.Col.Name})
				tr.Client.Outputs = append(tr.Client.Outputs, Output{Name: name, Kind: OutPlain, Agg: idx})
				break
			}
			if !cp.Ope || !cp.Ashe {
				return fmt.Errorf("translate: MIN/MAX/MEDIAN over %q needs OPE and ASHE forms", se.Col.Name)
			}
			if spl != nil {
				// The SPLASHE rewrite redirects sums to splayed columns, but
				// there is no splayed OPE form: extremes would be computed
				// over the wrong rows (dummy rows included). Refuse rather
				// than silently mis-answer; the planner should keep a DET
				// form for dimensions filtered alongside MIN/MAX/MEDIAN.
				return fmt.Errorf("translate: %v over %q cannot be combined with the splayed filter on %q", se.Agg, se.Col.Name, spl.dim)
			}
			kind := engine.AggOpeMin
			switch se.Agg {
			case sqlparse.AggMax:
				kind = engine.AggOpeMax
			case sqlparse.AggMedian:
				kind = engine.AggOpeMedian
			}
			companion := planner.AsheName(se.Col.Name)
			if t.mode == Paillier {
				// The baseline ships the winning row's Paillier ciphertext.
				companion = planner.PailName(se.Col.Name)
			}
			idx := addAgg(engine.Agg{Kind: kind, Col: planner.OpeName(se.Col.Name), Companion: companion})
			tr.Client.Outputs = append(tr.Client.Outputs, Output{Name: name, Kind: OutMinMax, Agg: idx, SourceCol: companion})
		default:
			return fmt.Errorf("translate: unsupported aggregate %v", se.Agg)
		}
	}
	return nil
}

// measurePlan resolves a measure column's plan, looking through joins.
func (t *translator) measurePlan(q *sqlparse.Query, plan *planner.Plan, m string) (*planner.ColumnPlan, error) {
	if cp := plan.Col(m); cp != nil {
		return cp, nil
	}
	if q.From.Join != nil {
		jplan, err := t.cat.Plan(q.From.Join.Table)
		if err == nil {
			if cp := jplan.Col(m); cp != nil {
				return cp, nil
			}
		}
	}
	return nil, fmt.Errorf("translate: unknown measure column %q", m)
}

// translateScan rewrites a projection (non-aggregate) query.
func (t *translator) translateScan(q *sqlparse.Query, plan *planner.Plan, tr *Translation) error {
	sp := tr.Server
	for _, se := range q.Select {
		name := se.Col.Name
		cp := plan.Col(name)
		if cp == nil {
			return fmt.Errorf("translate: unknown column %q", name)
		}
		sc := ScanCol{Name: name, SourceCol: name, Dict: cp.Dict}
		switch {
		case t.mode == NoEnc || cp.Plain:
			sp.Project = append(sp.Project, name)
		case cp.Ashe && t.mode == Paillier:
			sp.Project = append(sp.Project, planner.PailName(name))
			sc.Pail = true
		case cp.Ashe:
			sp.Project = append(sp.Project, planner.AsheName(name))
			sc.Ashe = true
			sc.SourceCol = planner.AsheName(name)
		case cp.Det:
			sp.Project = append(sp.Project, planner.DetName(name))
			sc.Det = true
			sc.SourceCol = cp.DetKey()
			sc.StrValues = cp.Type == schema.String && len(cp.Dict) == 0
		default:
			return fmt.Errorf("translate: column %q cannot be returned by a scan (no retrievable form)", name)
		}
		tr.Client.ScanCols = append(tr.Client.ScanCols, sc)
	}
	return nil
}

// translateGroupBy rewrites the GROUP BY clause and applies the §4.5
// inflation heuristic.
func (t *translator) translateGroupBy(q *sqlparse.Query, plan *planner.Plan, tr *Translation) error {
	if len(q.GroupBy) != 1 {
		return fmt.Errorf("translate: exactly one GROUP BY column is supported, got %d", len(q.GroupBy))
	}
	name := q.GroupBy[0].Name
	cp := plan.Col(name)
	if cp == nil {
		// Right-side join column.
		if q.From.Join != nil {
			jplan, err := t.cat.Plan(q.From.Join.Table)
			if err == nil {
				if jcp := jplan.Col(name); jcp != nil {
					cp = jcp
				}
			}
		}
		if cp == nil {
			return fmt.Errorf("translate: unknown GROUP BY column %q", name)
		}
	}
	gk := &GroupKeyPlan{SourceCol: name, KeyName: cp.DetKey(), Dict: cp.Dict}
	var col string
	switch {
	case t.mode == NoEnc || cp.Plain:
		col = name
	case cp.Det:
		col = planner.DetName(name)
		gk.Det = true
		gk.StrValues = cp.Type == schema.String && len(cp.Dict) == 0
	default:
		return fmt.Errorf("translate: GROUP BY on %q needs a plaintext or DET form", name)
	}
	// A declared key domain (dictionary size or schema cardinality) makes a
	// u64 key's value its code: the executor adds into a lane per value
	// (engine.GroupBy.KeyBound). Harmless when the group column turns out to
	// be strings or ciphertexts — the engine only consults the bound for u64
	// keys, and a run that meets a key past it groups on the slot table.
	gb := &engine.GroupBy{Col: col, KeyBound: cp.KeyDomain()}
	if !t.opts.DisableInflation && t.opts.ExpectedGroups > 0 && t.opts.Workers > t.opts.ExpectedGroups {
		// §4.5: inflate the number of groups to the number of available
		// workers when fewer groups than workers are expected.
		gb.Inflate = (t.opts.Workers + t.opts.ExpectedGroups - 1) / t.opts.ExpectedGroups
		tr.Client.Inflated = true
	}
	tr.Server.GroupBy = gb
	tr.Client.GroupKey = gk
	return nil
}

// translateJoin wires an equi-join into the server plan.
func (t *translator) translateJoin(q *sqlparse.Query, j *sqlparse.Join, plan *planner.Plan, sp *engine.Plan) error {
	rplan, err := t.cat.Plan(j.Table)
	if err != nil {
		return err
	}
	rtbl, err := t.cat.Table(j.Table, t.mode)
	if err != nil {
		return err
	}
	// Resolve which side each ON column belongs to.
	leftRef, rightRef := j.LeftCol, j.RightCol
	if plan.Col(leftRef.Name) == nil && rplan.Col(leftRef.Name) != nil {
		leftRef, rightRef = rightRef, leftRef
	}
	lcp := plan.Col(leftRef.Name)
	rcp := rplan.Col(rightRef.Name)
	if lcp == nil || rcp == nil {
		return fmt.Errorf("translate: cannot resolve join columns %s = %s", j.LeftCol, j.RightCol)
	}
	leftCol, rightCol := leftRef.Name, rightRef.Name
	if t.mode != NoEnc && !lcp.Plain {
		if !lcp.Det || !rcp.Det {
			return fmt.Errorf("translate: join keys %q/%q need DET forms", leftCol, rightCol)
		}
		leftCol = planner.DetName(leftCol)
		rightCol = planner.DetName(rightCol)
	}
	// Expose every right-side physical column the query might touch.
	var rightCols []string
	for _, ec := range rplan.EncColumns() {
		if t.mode == Paillier && ec.Scheme == schema.ASHE {
			continue
		}
		name := ec.Name
		if t.mode == NoEnc {
			name = ec.Source
		}
		if name != rightCol {
			rightCols = append(rightCols, name)
		}
	}
	if t.mode == NoEnc {
		rightCols = dedup(rightCols)
	}
	if t.mode == Paillier {
		for _, cname := range rplan.Order {
			if rplan.Col(cname).Ashe {
				rightCols = append(rightCols, planner.PailName(cname))
			}
		}
	}
	sp.Join = &engine.Join{Right: rtbl, LeftCol: leftCol, RightCol: rightCol, RightCols: rightCols}
	return nil
}

func isGroupCol(q *sqlparse.Query, name string) bool {
	for _, g := range q.GroupBy {
		if g.Name == name {
			return true
		}
	}
	return false
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func dedup(list []string) []string {
	seen := make(map[string]bool, len(list))
	out := list[:0]
	for _, v := range list {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
