package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Plan-compile cache. Compilation (compile.go) binds a plan against its
// table's layout, builds the broadcast-join index, and lowers filters and
// aggregates to typed kernels — work that is identical every time the same
// query shape runs against the same table. A proxy serving an ad-analytics
// workload issues the same handful of shapes continuously (§6.5), so the
// cluster keys compiled plans by a fingerprint of everything compilation
// and execution read from the plan, and reuses the compiled artifact on a
// hit. The big win is the join index: rebuilding a right-table hash per
// query is the dominant compile cost.
//
// Correctness rests on two properties. First, a compiledPlan is immutable
// after compile — map tasks only read it — so sharing one across
// concurrent runs is safe. The one exception is its groupHint: atomics each
// grouped run overwrites with the sizes and the shape it finished at, so the
// next run of the plan reserves its vectors once and picks its group-by
// strategy. A stale or racing hint costs a regrowth or the slower strategy,
// never a different result. Second, the fingerprint covers table
// identity by pointer: tables grow copy-on-write everywhere (server appends,
// coordinator snapshots), so a table that gained rows is a different pointer
// and misses the cache, and a cached entry can never serve stale contents.
// The retained reference evaluator bypasses the cache, keeping the
// differential suite an independent oracle.

// planCacheMax bounds the cache. Workloads with more live shapes than this
// churn the map; when an insert would exceed the bound the cache resets
// wholesale — crude, but a reset costs one recompile per shape and keeps
// the steady state allocation-free, where an LRU would cost bookkeeping on
// every hit. The bound also limits how much table memory retired entries
// can pin: an entry holds its plan's flattened right-side join columns.
const planCacheMax = 128

// planCache is the cluster's fingerprint-keyed compiled-plan cache.
type planCache struct {
	mu     sync.Mutex
	plans  map[string]*compiledPlan
	hits   atomic.Uint64
	misses atomic.Uint64
}

// lookup returns the cached compilation for key, counting the outcome.
func (pc *planCache) lookup(key string) (*compiledPlan, bool) {
	pc.mu.Lock()
	cp, ok := pc.plans[key]
	pc.mu.Unlock()
	if ok {
		pc.hits.Add(1)
		return cp, true
	}
	pc.misses.Add(1)
	return nil, false
}

// store inserts a compilation, resetting the cache at the bound.
func (pc *planCache) store(key string, cp *compiledPlan) {
	pc.mu.Lock()
	if pc.plans == nil || len(pc.plans) >= planCacheMax {
		pc.plans = make(map[string]*compiledPlan, planCacheMax)
	}
	pc.plans[key] = cp
	pc.mu.Unlock()
}

// PlanCacheStats reports the cluster's compiled-plan cache hit/miss
// counters (surfaced by server.Stats).
func (c *Cluster) PlanCacheStats() (hits, misses uint64) {
	return c.plans.hits.Load(), c.plans.misses.Load()
}

// compiled returns a compiledPlan for pl, from cache when an identical
// shape ran before. Compilation runs against a private clone of the plan:
// the kernels close over the plan's filter and aggregate specs, and a
// cached entry must stay valid even if the caller mutates its Plan in
// place after Run returns (the fingerprint would stop matching the mutated
// plan, but the cached entry still serves the original shape).
func (c *Cluster) compiled(pl *Plan) (*compiledPlan, error) {
	key := pl.fingerprint()
	if cp, ok := c.plans.lookup(key); ok {
		return cp, nil
	}
	clone := *pl
	clone.Filters = append([]Filter(nil), pl.Filters...)
	for i := range clone.Filters {
		// The element copy shares the Bytes backing array; the DET/OPE
		// kernels close over it, so a caller reusing its ciphertext buffer
		// would rewrite the cached constant in place. Copy the bytes too.
		clone.Filters[i].Bytes = append([]byte(nil), clone.Filters[i].Bytes...)
	}
	clone.Aggs = append([]Agg(nil), pl.Aggs...)
	clone.Project = append([]string(nil), pl.Project...)
	if pl.Join != nil {
		j := *pl.Join
		j.RightCols = append([]string(nil), j.RightCols...)
		clone.Join = &j
	}
	if pl.GroupBy != nil {
		g := *pl.GroupBy
		clone.GroupBy = &g
	}
	if pl.Range != nil {
		r := *pl.Range
		clone.Range = &r
	}
	cp, err := clone.compile(c.cfg.Seed)
	if err != nil {
		return nil, err
	}
	c.plans.store(key, cp)
	return cp, nil
}

// fingerprint serializes everything compile and the batch executor read
// from the plan into a cache key. Tables and Paillier keys enter by
// pointer identity (copy-on-write growth and per-proxy keys make the
// pointer the value's identity); every scalar field enters by value. Two
// plans with equal fingerprints are interchangeable for execution: a
// cached compilation of one runs the other with identical results.
func (pl *Plan) fingerprint() string {
	var b []byte
	ptr := func(p any) {
		b = fmt.Appendf(b, "%p|", p)
	}
	u64 := func(v uint64) {
		b = binary.AppendUvarint(b, v)
	}
	str := func(s string) {
		u64(uint64(len(s)))
		b = append(b, s...)
	}
	ptr(pl.Table)
	if pl.Join != nil {
		ptr(pl.Join.Right)
		str(pl.Join.LeftCol)
		str(pl.Join.RightCol)
		u64(uint64(len(pl.Join.RightCols)))
		for _, cname := range pl.Join.RightCols {
			str(cname)
		}
	} else {
		b = append(b, 'n')
	}
	u64(uint64(len(pl.Filters)))
	for i := range pl.Filters {
		f := &pl.Filters[i]
		u64(uint64(f.Kind))
		str(f.Col)
		u64(uint64(f.Op))
		u64(f.U64)
		str(f.Str)
		str(string(f.Bytes))
		if f.Negate {
			b = append(b, '!')
		}
		b = fmt.Appendf(b, "%v|", f.Prob)
		u64(f.Seed)
	}
	u64(uint64(len(pl.Aggs)))
	for i := range pl.Aggs {
		a := &pl.Aggs[i]
		u64(uint64(a.Kind))
		str(a.Col)
		str(a.Companion)
		if a.PK != nil {
			ptr(a.PK)
		}
	}
	if pl.GroupBy != nil {
		str(pl.GroupBy.Col)
		u64(uint64(pl.GroupBy.Inflate))
		u64(pl.GroupBy.KeyBound)
	} else {
		b = append(b, 'n')
	}
	u64(uint64(len(pl.Project)))
	for _, cname := range pl.Project {
		str(cname)
	}
	if pl.Range != nil {
		u64(pl.Range.Lo)
		u64(pl.Range.Hi)
	} else {
		b = append(b, 'n')
	}
	if pl.Partial {
		b = append(b, 'p')
	}
	return string(b)
}
