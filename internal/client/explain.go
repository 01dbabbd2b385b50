package client

import (
	"context"
	"fmt"
	"strings"
	"time"

	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/planner"
	"seabed/internal/sqlparse"
	"seabed/internal/translate"
)

// explainQuery implements the EXPLAIN / EXPLAIN ANALYZE front door: it
// translates the wrapped query exactly as a run would, renders the compiled
// plan as an operator tree — encryption scheme per referenced column, the
// kernel each filter and aggregate compiles to, the grouping path (dense
// direct-index vs hashed, KeyBound, inflation), the join's index type, and
// the predicted shuffle volume — and, for ANALYZE, runs the query through the
// ordinary runQuery path (registered, killable, traced, recorded) and grafts
// the measured per-operator counters onto each node. The result's rows carry
// one "plan" text line each; ExplainText joins them back.
func (p *Proxy) explainQuery(ctx context.Context, root *obs.Span, sql string, stmt *sqlparse.Statement, o queryOptions) (*QueryResult, error) {
	var (
		tr  *translate.Translation
		m   *engine.Metrics
		qr  *QueryResult
		err error
	)
	if stmt.Analyze {
		// Run for real. Streaming is forced off so every counter is final
		// when the plan renders; the run registers in the live-query registry
		// and records its trace like any other query. Its result — metrics,
		// measured times, trace — is the EXPLAIN's, with the plan it ran as
		// its rows.
		o.stream = false
		if qr, tr, err = p.runQuery(ctx, root, sql, stmt.Query, o); err != nil {
			return nil, err
		}
		m = &qr.Metrics
	} else {
		tr, err = p.translateQuery(root, stmt.Query, o)
		root.End()
		if err != nil {
			return nil, err
		}
		qr = &QueryResult{trace: root}
	}

	lines := p.renderExplain(stmt, tr, m, qr.ServerTime)
	qr.rows = make([]Row, len(lines))
	for i, l := range lines {
		qr.rows[i] = Row{Values: []Value{{Name: "plan", Kind: Str, Str: l}}}
	}
	return qr, nil
}

// ExplainText joins an EXPLAIN result's plan lines back into one block of
// text. It returns "" for results that are not EXPLAIN output (or streamed
// results, whose rows are not materialized).
func (r *QueryResult) ExplainText() string {
	var b strings.Builder
	for _, row := range r.rows {
		if len(row.Values) != 1 || row.Values[0].Name != "plan" {
			return ""
		}
		b.WriteString(row.Values[0].Str)
		b.WriteByte('\n')
	}
	return b.String()
}

// renderExplain lays the compiled plan out as an indented operator tree,
// top-down in result order: output ← group ← aggregate ← filter ← join ←
// scan (the engine probes the join before filtering, so the tree reads in
// reverse execution order). m, when non-nil, is an ANALYZE run's merged
// metrics and server its run span's duration; the header then carries both
// and each operator line its measured counters.
func (p *Proxy) renderExplain(stmt *sqlparse.Statement, tr *translate.Translation, m *engine.Metrics, server time.Duration) []string {
	sp := tr.Server
	var lines []string
	depth := 0
	node := func(format string, args ...any) {
		prefix := ""
		if depth > 0 {
			prefix = strings.Repeat("   ", depth-1) + "└─ "
		}
		lines = append(lines, prefix+fmt.Sprintf(format, args...))
		depth++
	}
	attr := func(format string, args ...any) {
		lines = append(lines, strings.Repeat("   ", depth-1)+"   "+fmt.Sprintf(format, args...))
	}

	kind := "EXPLAIN"
	if m != nil {
		kind = "EXPLAIN ANALYZE"
	}
	node("%s (mode=%v)", kind, tr.Client.Mode)
	for _, l := range p.columnSchemes(stmt.Query) {
		attr("%s", l)
	}
	if m != nil {
		// shuffle: the map tasks' output as held, identifiers raw; result:
		// the result as serialized — over a fleet, the shards' results added up.
		attr("server=%v (run span) shuffle=%dB (map output as held) result=%dB (as serialized) map_tasks=%d reduce_tasks=%d",
			server, m.ShuffleBytes, m.ResultBytes, m.MapTasks, m.ReduceTasks)
	}

	if gb := sp.GroupBy; gb != nil {
		node("GroupBy %s: path=%s", gb.Col, sp.GroupPath())
		if gb.Inflate > 1 {
			attr("inflate=%d (suffix-inflated groups, merged at client)", gb.Inflate)
		}
		if gb.KeyBound > 0 {
			attr("key_bound=%d (planner-declared dense span)", gb.KeyBound)
		}
		if m != nil {
			total := m.Ops.GroupDense + m.Ops.GroupHash
			// Rows a bucketed run routed to its reducers by key hash: counted
			// where the run executed, so a daemon reports its own in /stats.
			attr("rows grouped: dense=%d hash=%d (of %d), radix_batches=%d, bucketed=%d (in-process runs; a daemon's in its /stats)",
				m.Ops.GroupDense, m.Ops.GroupHash, total, m.Ops.RadixBatches, m.Ops.GroupRouted)
			attr("group_slots=%d table_len=%d (max across tasks)",
				m.Ops.GroupSlots, m.Ops.GroupTableLen)
		}
	}

	if len(sp.Project) > 0 {
		node("Project [%s] (scan mode)", strings.Join(sp.Project, ", "))
	} else {
		kernels := make([]string, len(sp.Aggs))
		for i, a := range sp.Aggs {
			kernels[i] = fmt.Sprintf("%v(%s)", a.Kind, a.Col)
			if a.Companion != "" {
				kernels[i] += fmt.Sprintf(" companion=%s", a.Companion)
			}
		}
		node("Aggregate [%s]", strings.Join(kernels, ", "))
	}

	for _, f := range sp.Filters {
		switch f.Kind {
		case engine.FilterPlainCmp:
			node("Filter %v: %s %v %d", f.Kind, f.Col, f.Op, f.U64)
		case engine.FilterStrCmp:
			node("Filter %v: %s %v %q", f.Kind, f.Col, f.Op, f.Str)
		case engine.FilterRandom:
			node("Filter %v: prob=%g seed=%d", f.Kind, f.Prob, f.Seed)
		default: // DET / OPE: the constant is ciphertext
			neg := ""
			if f.Negate {
				neg = " negated"
			}
			node("Filter %v: %s vs %dB ciphertext%s", f.Kind, f.Col, len(f.Bytes), neg)
		}
	}
	if m != nil && (len(sp.Filters) > 0 || sp.Join != nil) && m.RowsScanned > 0 {
		attr("selection: %d of %d rows survive (%.1f%%)",
			m.RowsSelected, m.RowsScanned, 100*float64(m.RowsSelected)/float64(m.RowsScanned))
	}

	if j := sp.Join; j != nil {
		node("Join %s: %s = %s, index=%s, project [%s]",
			j.Right.Name, j.LeftCol, j.RightCol, sp.JoinIndexKind(),
			strings.Join(j.RightCols, ", "))
		attr("build side: %d rows (broadcast)", j.Right.NumRows())
		if m != nil {
			pct := 0.0
			if m.Ops.JoinProbed > 0 {
				pct = 100 * float64(m.Ops.JoinMatched) / float64(m.Ops.JoinProbed)
			}
			attr("probed=%d matched=%d (%.1f%%)", m.Ops.JoinProbed, m.Ops.JoinMatched, pct)
		}
	}

	scanAttrs := fmt.Sprintf("%d rows × %d parts", sp.Table.NumRows(), len(sp.Table.Parts))
	if r := sp.Range; r != nil {
		scanAttrs += fmt.Sprintf(", range [%d, %d]", r.Lo, r.Hi)
	}
	node("Scan %s: %s", sp.Table.Name, scanAttrs)
	attr("predicted shuffle ≈ %s", byteCount(sp.EstimateResultBytes()))
	if m != nil {
		attr("rows_scanned=%d batches=%d dense_batches=%d", m.RowsScanned, m.Ops.Batches, m.Ops.DenseBatches)
		attr("column pins=%d faults=%d", m.Ops.ColumnPins, m.Ops.ColumnFaults)
	}
	return lines
}

// columnSchemes lists each column the query references with its planned
// encryption scheme, resolving right-side join columns through the joined
// table's plan. Columns with no plan entry (unknown names surface as
// translate errors before this runs for EXPLAIN ANALYZE, but plain EXPLAIN
// still renders) are skipped.
func (p *Proxy) columnSchemes(q *sqlparse.Query) []string {
	base := q
	if q.From.Sub != nil {
		base = q.From.Sub
	}
	plan, err := p.Plan(base.From.Table)
	if err != nil {
		return nil
	}
	var jplan *planner.Plan
	if j := base.From.Join; j != nil {
		jplan, _ = p.Plan(j.Table)
	}
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if name == "" || seen[name] {
			return
		}
		seen[name] = true
		cp := plan.Col(name)
		if cp == nil && jplan != nil {
			cp = jplan.Col(name)
		}
		if cp == nil {
			return
		}
		out = append(out, fmt.Sprintf("column %s: scheme=%v", name, cp.PrimaryScheme()))
	}
	for _, qq := range []*sqlparse.Query{q, base} {
		for _, se := range qq.Select {
			add(se.Col.Name)
		}
		for _, pred := range qq.Where {
			add(pred.Col.Name)
		}
		for _, c := range qq.GroupBy {
			add(c.Name)
		}
		if j := qq.From.Join; j != nil {
			add(j.LeftCol.Name)
			add(j.RightCol.Name)
		}
	}
	return out
}

// byteCount renders a byte volume with a binary unit, for plan lines.
func byteCount(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
