// Package translate implements Seabed's query translator (§4.4): it rewrites
// a client's unmodified SQL query against the encrypted schema, encrypting
// constants, redirecting aggregates to ASHE/SPLASHE/Paillier columns,
// replacing comparisons with DET/OPE checks, preserving the identifier
// column through subqueries, and optionally inflating group-by keys (§4.5).
// The same translator also produces the NoEnc and Paillier baseline plans,
// so all three systems of the evaluation run one code path.
//
// The output is a pair: a server plan for package engine, and a client plan
// describing the decryption and post-processing steps (division for AVG, the
// variance formula, group de-inflation) that packages client executes —
// Monomi's split-execution idea (§4.2, §5).
package translate

import (
	"fmt"

	"seabed/internal/ashe"
	"seabed/internal/det"
	"seabed/internal/engine"
	"seabed/internal/ope"
	"seabed/internal/paillier"
	"seabed/internal/planner"
	"seabed/internal/schema"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// Mode selects which of the evaluation's three systems the translation
// targets (§6.1).
type Mode int

const (
	// NoEnc runs original queries over unencrypted data.
	NoEnc Mode = iota
	// Seabed encrypts measures with ASHE and dimensions with
	// SPLASHE/DET/OPE.
	Seabed
	// Paillier encrypts measures with Paillier and dimensions with DET/OPE.
	Paillier
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NoEnc:
		return "NoEnc"
	case Seabed:
		return "Seabed"
	case Paillier:
		return "Paillier"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Keys provides the per-column secrets the translator needs to encrypt
// query constants. Package client implements it.
type Keys interface {
	Ashe(col string) *ashe.Key
	Det(col string) *det.Key
	Ope(col string) *ope.Key
	PaillierPK() *paillier.PublicKey
}

// Catalog resolves table names to their plans and physical tables. Package
// client implements it.
type Catalog interface {
	Plan(table string) (*planner.Plan, error)
	Table(table string, mode Mode) (*store.Table, error)
}

// Options tunes translation.
type Options struct {
	// Workers is the server's worker count, used by the group-inflation
	// heuristic.
	Workers int
	// ExpectedGroups is the client's estimate of the result group count
	// (§4.4: "the client maintains some state about the expected number of
	// groups"). Zero disables inflation.
	ExpectedGroups int
	// DisableInflation turns the §4.5 group-inflation optimization off
	// (the "Seabed" vs "Seabed-optimized" comparison of Figure 9a).
	DisableInflation bool
}

// OutputKind describes how the client derives one result column.
type OutputKind int

const (
	// OutPlain passes a plaintext aggregate through.
	OutPlain OutputKind = iota
	// OutAsheSum decrypts an ASHE aggregate with the source column's key.
	OutAsheSum
	// OutPailSum decrypts a Paillier aggregate.
	OutPailSum
	// OutAvg divides a sum output by a count output (client-side).
	OutAvg
	// OutVar computes (Σx² − (Σx)²/n)/n from three outputs (client-side).
	OutVar
	// OutStddev is OutVar followed by a square root.
	OutStddev
	// OutMinMax decrypts the companion ASHE value of an OPE extreme.
	OutMinMax
	// OutGroupKey yields the (decrypted) group key.
	OutGroupKey
)

// Output is one client-plan result column.
type Output struct {
	Name string
	Kind OutputKind
	// Agg indexes into the server plan's aggregate list (primary value).
	Agg int
	// SourceCol is the plaintext column whose key decrypts the value. For
	// splayed or squared measures it is the physical column name, which the
	// key ring also accepts.
	SourceCol string
	// AuxSum, AuxSq and AuxCount describe the auxiliary aggregates composed
	// by OutAvg, OutVar and OutStddev: each is itself a decryptable output.
	AuxSum   *Output
	AuxSq    *Output
	AuxCount *Output
}

// GroupKeyPlan describes how the client maps group keys back to plaintext.
type GroupKeyPlan struct {
	// Det indicates the key bytes are DET ciphertexts.
	Det bool
	// SourceCol is the grouping column (for display and dictionaries).
	SourceCol string
	// KeyName is the DET key identity (join groups share one key).
	KeyName string
	// Dict, when non-nil, maps decrypted value ids back to strings.
	Dict []string
	// StrValues indicates DET ciphertexts decrypt to strings, not u64 ids.
	StrValues bool
}

// ScanCol describes one projected column of a scan query.
type ScanCol struct {
	Name string
	// Ashe marks per-row ASHE bodies the client decrypts with the row id.
	Ashe bool
	// Det marks DET ciphertexts the client decrypts.
	Det bool
	// Pail marks per-row Paillier ciphertexts (baseline mode).
	Pail bool
	// Str / U64 plaintext passthrough otherwise.
	SourceCol string
	Dict      []string
	StrValues bool
}

// ClientPlan is the decrypt/post-process half of a translation.
type ClientPlan struct {
	Outputs  []Output
	GroupKey *GroupKeyPlan
	ScanCols []ScanCol
	// Inflated tells the client to merge suffix-inflated groups (§4.5).
	Inflated bool
	// Mode echoes the translation mode.
	Mode Mode
}

// Translation pairs the server plan with the client plan.
type Translation struct {
	Server *engine.Plan
	Client ClientPlan
	// Query echoes the source query.
	Query *sqlparse.Query
}

// Translate rewrites a query for the given mode.
func Translate(q *sqlparse.Query, cat Catalog, keys Keys, mode Mode, opts Options) (*Translation, error) {
	t := &translator{cat: cat, keys: keys, mode: mode, opts: opts}
	return t.translate(q)
}

type translator struct {
	cat  Catalog
	keys Keys
	mode Mode
	opts Options
}

func (t *translator) translate(q *sqlparse.Query) (*Translation, error) {
	// Flatten one level of FROM-subquery: predicates push down, the outer
	// aggregates apply to the inner projection. ID preservation (Table 2)
	// falls out of ASHE's implicit identifier column.
	flat := q
	if q.From.Sub != nil {
		inner := q.From.Sub
		if inner.Aggregates() || inner.From.Sub != nil {
			return nil, fmt.Errorf("translate: only scan-shaped single-level subqueries are supported")
		}
		merged := &sqlparse.Query{
			Select:  q.Select,
			From:    inner.From,
			Where:   append(append([]sqlparse.Predicate{}, inner.Where...), q.Where...),
			GroupBy: q.GroupBy,
		}
		flat = merged
	}

	plan, err := t.cat.Plan(flat.From.Table)
	if err != nil {
		return nil, err
	}
	tbl, err := t.cat.Table(flat.From.Table, t.mode)
	if err != nil {
		return nil, err
	}
	sp := &engine.Plan{Table: tbl}
	tr := &Translation{Server: sp, Query: q}
	tr.Client.Mode = t.mode

	// Join clause.
	if j := flat.From.Join; j != nil {
		if err := t.translateJoin(flat, j, plan, sp); err != nil {
			return nil, err
		}
	}

	// The SPLASHE rewrite: find at most one equality predicate on a splayed
	// dimension; it determines which splayed columns replace the measures.
	splCtx, rest, extra, err := t.splitSplashe(flat, plan)
	if err != nil {
		return nil, err
	}
	sp.Filters = append(sp.Filters, extra...)

	// Remaining predicates.
	for _, pred := range rest {
		f, err := t.translatePredicate(pred, plan, flat)
		if err != nil {
			return nil, err
		}
		sp.Filters = append(sp.Filters, f)
	}

	// Aggregates vs scan.
	if flat.Aggregates() {
		if err := t.translateAggregates(flat, plan, splCtx, tr); err != nil {
			return nil, err
		}
	} else {
		if len(flat.GroupBy) > 0 {
			return nil, fmt.Errorf("translate: GROUP BY requires at least one aggregate in the SELECT list")
		}
		if err := t.translateScan(flat, plan, tr); err != nil {
			return nil, err
		}
	}

	// GROUP BY.
	if len(flat.GroupBy) > 0 {
		if err := t.translateGroupBy(flat, plan, tr); err != nil {
			return nil, err
		}
	}
	// The identifier-list codec is chosen once, here, for the plan's shape
	// (§4.5); every engine it runs on encodes with it and the client decodes
	// with it.
	sp.Codec = sp.EffectiveCodec()
	return tr, nil
}

// splasheCtx records the SPLASHE rewrite chosen for a query.
type splasheCtx struct {
	dim string
	// col is the splayed column index the predicate selects; others is true
	// when the enhanced layout's others column applies (with a DET filter).
	col    int
	others bool
	cp     *planner.ColumnPlan
}

// splitSplashe extracts the (single) SPLASHE-rewritable equality predicate.
// It returns the rewrite context, the predicates left for ordinary
// translation, and any extra server filters the rewrite itself requires (the
// balanced-DET filter for enhanced layouts' uncommon values, §3.4).
func (t *translator) splitSplashe(q *sqlparse.Query, plan *planner.Plan) (*splasheCtx, []sqlparse.Predicate, []engine.Filter, error) {
	if t.mode != Seabed {
		return nil, q.Where, nil, nil
	}
	var ctx *splasheCtx
	var rest []sqlparse.Predicate
	var extra []engine.Filter
	for _, pred := range q.Where {
		cp := plan.Col(pred.Col.Name)
		if cp == nil || cp.Splashe == nil || pred.Op != sqlparse.OpEq {
			rest = append(rest, pred)
			continue
		}
		if ctx != nil {
			return nil, nil, nil, fmt.Errorf("translate: query filters on two splayed dimensions (%q and %q); the planner splays measures per dimension", ctx.dim, pred.Col.Name)
		}
		vid, err := valueID(cp, pred.Lit)
		if err != nil {
			return nil, nil, nil, err
		}
		l := cp.Splashe
		sc := &splasheCtx{dim: pred.Col.Name, cp: cp}
		if c := l.ColumnOf(vid); c >= 0 {
			// Common value (or basic layout): the predicate disappears
			// entirely — the splayed column *is* the filter.
			sc.col = c
		} else {
			// Uncommon value: aggregate the others column filtered by the
			// balanced DET column (§3.4). Dummy rows carry ASHE(0), so
			// correctness is preserved.
			sc.col = l.NumSplayColumns() - 1
			sc.others = true
			dk := t.keys.Det(pred.Col.Name)
			if dk == nil {
				return nil, nil, nil, fmt.Errorf("translate: no DET key for %q", pred.Col.Name)
			}
			extra = append(extra, engine.Filter{
				Kind:  engine.FilterDetEq,
				Col:   planner.DetName(pred.Col.Name),
				Bytes: dk.EncryptU64(uint64(vid)),
			})
		}
		ctx = sc
	}
	return ctx, rest, extra, nil
}

// valueID resolves a literal to a dimension's value id using its dictionary.
func valueID(cp *planner.ColumnPlan, lit sqlparse.Literal) (int, error) {
	if lit.Kind == sqlparse.LitString {
		for i, v := range cp.Dict {
			if v == lit.Str {
				return i, nil
			}
		}
		return 0, fmt.Errorf("translate: value %q not in dictionary of column %q", lit.Str, cp.Source)
	}
	return int(lit.Num), nil
}

// translatePredicate rewrites one WHERE conjunct.
func (t *translator) translatePredicate(pred sqlparse.Predicate, plan *planner.Plan, q *sqlparse.Query) (engine.Filter, error) {
	name := pred.Col.Name
	cp := plan.Col(name)
	if cp == nil {
		// Possibly a right-side join column; resolve through the joined plan.
		if q.From.Join != nil {
			jplan, err := t.cat.Plan(q.From.Join.Table)
			if err == nil {
				if jcp := jplan.Col(name); jcp != nil {
					return t.predicateFor(pred, jcp)
				}
			}
		}
		return engine.Filter{}, fmt.Errorf("translate: unknown column %q", name)
	}
	return t.predicateFor(pred, cp)
}

func (t *translator) predicateFor(pred sqlparse.Predicate, cp *planner.ColumnPlan) (engine.Filter, error) {
	name := cp.Source
	if t.mode == NoEnc || cp.Plain {
		if cp.Type == schema.String {
			if pred.Lit.Kind != sqlparse.LitString {
				return engine.Filter{}, fmt.Errorf("translate: column %q needs a string literal", name)
			}
			return engine.Filter{Kind: engine.FilterStrCmp, Col: name, Op: pred.Op, Str: pred.Lit.Str}, nil
		}
		v, err := litU64(cp, pred.Lit)
		if err != nil {
			return engine.Filter{}, err
		}
		return engine.Filter{Kind: engine.FilterPlainCmp, Col: name, Op: pred.Op, U64: v}, nil
	}
	switch {
	case pred.Op.IsRange():
		if !cp.Ope {
			return engine.Filter{}, fmt.Errorf("translate: column %q has no OPE form for range predicate", name)
		}
		ok := t.keys.Ope(name)
		if ok == nil {
			return engine.Filter{}, fmt.Errorf("translate: no OPE key for %q", name)
		}
		v, err := litU64(cp, pred.Lit)
		if err != nil {
			return engine.Filter{}, err
		}
		return engine.Filter{Kind: engine.FilterOpeCmp, Col: planner.OpeName(name), Op: pred.Op, Bytes: ok.Encrypt(v)}, nil
	default: // equality / inequality
		det := cp.Det
		if t.mode == Paillier && cp.Splashe != nil {
			// The Paillier baseline stores dimensions deterministically
			// (§6.1); the encryptor materializes a DET column for splayed
			// dimensions in that mode.
			det = true
		}
		if !det && cp.Splashe != nil {
			return engine.Filter{}, fmt.Errorf("translate: splayed dimension %q cannot be filtered here", name)
		}
		if !det {
			return engine.Filter{}, fmt.Errorf("translate: column %q has no DET form for equality predicate", name)
		}
		dk := t.keys.Det(cp.DetKey())
		if dk == nil {
			return engine.Filter{}, fmt.Errorf("translate: no DET key for %q", name)
		}
		ct, err := detLiteral(dk, cp, pred.Lit)
		if err != nil {
			return engine.Filter{}, err
		}
		return engine.Filter{Kind: engine.FilterDetEq, Col: planner.DetName(name), Bytes: ct, Negate: pred.Op == sqlparse.OpNe}, nil
	}
}

// detLiteral encrypts a literal for a DET comparison, honoring the column's
// dictionary convention: dictionary dimensions store DET(value id), plain
// string dimensions store DET(string), integer dimensions DET(u64).
func detLiteral(dk *det.Key, cp *planner.ColumnPlan, lit sqlparse.Literal) ([]byte, error) {
	if lit.Kind == sqlparse.LitString {
		if len(cp.Dict) > 0 {
			id, err := valueID(cp, lit)
			if err != nil {
				return nil, err
			}
			return dk.EncryptU64(uint64(id)), nil
		}
		return dk.EncryptString(lit.Str), nil
	}
	return dk.EncryptU64(uint64(lit.Num)), nil
}

func litU64(cp *planner.ColumnPlan, lit sqlparse.Literal) (uint64, error) {
	if lit.Kind == sqlparse.LitString {
		id, err := valueID(cp, lit)
		if err != nil {
			return 0, err
		}
		return uint64(id), nil
	}
	return uint64(lit.Num), nil
}
