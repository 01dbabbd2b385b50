package wire

import (
	"fmt"
	"math"
	"math/big"

	"seabed/internal/engine"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
)

// PlanRequest is a MsgRun payload: a physical plan whose tables travel by
// reference. The proxy uploads tables once (MsgRegister) and every query
// names them by ref, so a plan frame stays a few hundred bytes no matter how
// large the dataset is — exactly the paper's split between the bulk upload
// path and the per-query path (§4.1).
type PlanRequest struct {
	// TableRef names the plan's scan table on the server.
	TableRef string
	// JoinRef names the broadcast-join right table; empty when Plan.Join is
	// nil.
	JoinRef string
	// Plan is the plan itself. Its Table and Join.Right pointers are nil in
	// transit; the server rebinds them from the refs.
	Plan *engine.Plan
	// TraceID ties this plan to the proxy-side query trace. Zero means
	// untraced. It lives on the request, not the connection, so a pool redial
	// mid-query cannot change the ID a daemon reports back.
	TraceID uint64
	// Hedge marks a speculative re-issue of a straggling sub-query to a
	// replica: the fleet coordinator fired this run while the original
	// is still in flight and will keep whichever answers first. Daemons count
	// hedged runs in Stats.
	Hedge bool
	// Failover marks a retry of a sub-query whose original replica failed.
	// Daemons count failed-over runs in Stats.
	Failover bool
}

// EncodePlan serializes a plan request. version must be Version.
func EncodePlan(req *PlanRequest, version uint64) ([]byte, error) {
	if err := checkVersion(version, "encode plan"); err != nil {
		return nil, err
	}
	pl := req.Plan
	if pl == nil {
		return nil, fmt.Errorf("wire: encode plan: nil plan")
	}
	if req.TableRef == "" {
		return nil, fmt.Errorf("wire: encode plan: empty table ref")
	}
	e := &enc{}
	e.str(req.TableRef)

	e.bool(pl.Join != nil)
	if pl.Join != nil {
		if req.JoinRef == "" {
			return nil, fmt.Errorf("wire: encode plan: join without a right-table ref")
		}
		e.str(req.JoinRef)
		e.str(pl.Join.LeftCol)
		e.str(pl.Join.RightCol)
		e.uint(uint64(len(pl.Join.RightCols)))
		for _, c := range pl.Join.RightCols {
			e.str(c)
		}
	}

	e.uint(uint64(len(pl.Filters)))
	for i := range pl.Filters {
		f := &pl.Filters[i]
		e.uint(uint64(f.Kind))
		e.str(f.Col)
		e.uint(uint64(f.Op))
		e.uint(f.U64)
		e.str(f.Str)
		e.bytes(f.Bytes)
		e.bool(f.Negate)
		e.f64(f.Prob)
		e.uint(f.Seed)
	}

	e.uint(uint64(len(pl.Aggs)))
	for i := range pl.Aggs {
		a := &pl.Aggs[i]
		e.uint(uint64(a.Kind))
		e.str(a.Col)
		e.str(a.Companion)
		e.bool(a.PK != nil)
		if a.PK != nil {
			e.bytes(a.PK.N.Bytes())
		}
	}

	e.bool(pl.GroupBy != nil)
	if pl.GroupBy != nil {
		e.str(pl.GroupBy.Col)
		e.uint(uint64(pl.GroupBy.Inflate))
		// Key-domain bound: a u64 key's lane count, a hint, never a
		// correctness contract.
		e.uint(pl.GroupBy.KeyBound)
	}

	e.uint(uint64(len(pl.Project)))
	for _, c := range pl.Project {
		e.str(c)
	}

	if pl.Codec != nil {
		e.str(pl.Codec.Name())
	} else {
		e.str("")
	}

	// Range framing: identifier-range scope and partial-result mode, so one
	// plan frame addresses exactly one range's rows of the logical table.
	e.bool(pl.Range != nil)
	if pl.Range != nil {
		e.uint(pl.Range.Lo)
		e.uint(pl.Range.Hi)
	}
	e.bool(pl.Partial)

	e.uint(req.TraceID)
	e.bool(req.Hedge)
	e.bool(req.Failover)
	return e.buf, nil
}

// DecodePlan parses a plan request. The returned plan's Table and Join.Right
// are nil; the caller resolves TableRef/JoinRef against its registry.
func DecodePlan(p []byte) (*PlanRequest, error) {
	d := newDec(p)
	req := &PlanRequest{Plan: &engine.Plan{}}
	pl := req.Plan
	req.TableRef = d.str()

	if d.bool() {
		pl.Join = &engine.Join{}
		req.JoinRef = d.str()
		pl.Join.LeftCol = d.str()
		pl.Join.RightCol = d.str()
		nCols := d.uint()
		for i := uint64(0); i < nCols && d.err == nil; i++ {
			pl.Join.RightCols = append(pl.Join.RightCols, d.str())
		}
	}

	nFilters := d.uint()
	for i := uint64(0); i < nFilters && d.err == nil; i++ {
		var f engine.Filter
		f.Kind = engine.FilterKind(d.uint())
		f.Col = d.str()
		f.Op = sqlparse.CmpOp(d.uint())
		f.U64 = d.uint()
		f.Str = d.str()
		f.Bytes = d.bytes()
		f.Negate = d.bool()
		f.Prob = d.f64()
		f.Seed = d.uint()
		if math.IsNaN(f.Prob) {
			return nil, fmt.Errorf("wire: decode plan: filter %d samples with probability NaN", i)
		}
		pl.Filters = append(pl.Filters, f)
	}

	nAggs := d.uint()
	for i := uint64(0); i < nAggs && d.err == nil; i++ {
		var a engine.Agg
		a.Kind = engine.AggKind(d.uint())
		a.Col = d.str()
		a.Companion = d.str()
		if d.bool() {
			n := d.bytes()
			if d.err == nil {
				if len(n) == 0 {
					return nil, fmt.Errorf("wire: decode plan: empty Paillier modulus")
				}
				a.PK = paillier.NewPublicKey(new(big.Int).SetBytes(n))
			}
		}
		pl.Aggs = append(pl.Aggs, a)
	}

	if d.bool() {
		pl.GroupBy = &engine.GroupBy{}
		pl.GroupBy.Col = d.str()
		pl.GroupBy.Inflate = int(d.uint())
		pl.GroupBy.KeyBound = d.uint()
	}

	nProject := d.uint()
	for i := uint64(0); i < nProject && d.err == nil; i++ {
		pl.Project = append(pl.Project, d.str())
	}

	codecName := d.str()
	if d.bool() {
		pl.Range = &engine.IDRange{Lo: d.uint(), Hi: d.uint()}
	}
	pl.Partial = d.bool()
	req.TraceID = d.uint()
	req.Hedge = d.bool()
	req.Failover = d.bool()
	if err := d.close("plan"); err != nil {
		return nil, err
	}
	// What EncodePlan refuses to write is refused here too, so an accepted
	// plan is one a proxy could have sent.
	if req.TableRef == "" {
		return nil, fmt.Errorf("wire: decode plan: empty table ref")
	}
	if pl.Join != nil && req.JoinRef == "" {
		return nil, fmt.Errorf("wire: decode plan: join without a right-table ref")
	}
	codec, err := CodecByName(codecName)
	if err != nil {
		return nil, err
	}
	pl.Codec = codec
	return req, nil
}
