// Package engine implements Seabed's server side: a Spark-like distributed
// analytics engine over partitioned columnar tables (§4.5).
//
// The engine executes physical plans — filter, aggregate, group-by, scan,
// and broadcast equi-join — with one map task per partition and a shuffle +
// reduce stage for group-by queries, mirroring the paper's Spark deployment.
// Aggregation understands plaintext values, ASHE ciphertexts (sum bodies,
// one identifier section for all of a plan's sums), and Paillier ciphertexts
// (modular products), so
// the NoEnc / Seabed / Paillier comparisons of §6 all run through the same
// code path.
//
// Execution is vectorized and two-phase. Compile (once per Run, compile.go):
// the plan binds against the partition layout and lowers to typed kernels —
// per-operator predicate kernels, per-kind accumulator kernels, a join index
// typed by key kind. Execute (batch.go): each partition runs in
// ScanChunkRows-sized batches over a reusable selection vector that the join
// probe and predicate kernels compact in place; accumulators then consume
// the survivors in tight loops over the raw column slices, with zero
// steady-state allocations on the u64 filter/sum/group-key paths. The
// pre-vectorization row-at-a-time interpreter is retained as test code
// (RunReference, reference_test.go), the oracle of the differential tests
// and the before-side of the kernel benchmarks.
//
// Tasks execute for real — the actual cryptography runs — on goroutines
// bounded by Config.RealParallelism, and every time in Metrics is what a clock
// measured: the wall of the map stage, of the reduce stage, of the driver's
// compile and gather, and of the whole run. Config.Workers is not a simulated
// core count: it is how many reducer buckets a group-by's keys partition into,
// and so what group inflation aims at. The paper's 100-core cluster is
// modelled in internal/bench alone, from the per-task durations Metrics
// carries (README.md, "Paper figures: what is substituted", item 1).
// Nothing is shuffled between a run's stages, so no map task compresses
// anything: the identifier section meets the codec where a result is
// written, and §4.5's worker-compressed shuffle size is internal/bench's to
// model.
package engine

import (
	"context"
	"math/big"
	"time"

	"seabed/internal/idlist"
	"seabed/internal/paillier"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
)

// Config describes a cluster.
type Config struct {
	// Workers is the reducer-bucket count: a group-by's keys partition into
	// this many buckets, one reducer per non-empty bucket, so it is also the
	// group count inflation aims at (translate) and the proxy's default
	// partition count per upload (4× Workers). Defaults to DefaultWorkers.
	Workers int
	// RealParallelism bounds the goroutines that execute tasks. Defaults to
	// runtime.NumCPU().
	RealParallelism int
	// Seed drives group inflation.
	Seed uint64
	// TaskSleep injects a real (wall-clock) delay at the start of every map
	// task, modeling the I/O stall of a cold HDFS read. The sleep is
	// context-aware, so a canceled query abandons it immediately — the
	// cancellation tests lean on this to make short queries observably slow.
	// Zero disables it.
	TaskSleep time.Duration
}

// DefaultWorkers is the reducer-bucket count used when Config.Workers is
// unset. It is the single source of truth shared by cmd/seabed-server's
// -workers default and internal/bench's Quick configuration, so an
// unconfigured daemon, an embedded cluster, and a quick seabed-bench run all
// partition group-bys alike.
const DefaultWorkers = 16

// Cluster executes plans under a Config.
type Cluster struct {
	cfg Config
	// plans caches compiled plans by fingerprint so repeated query shapes
	// skip compilation (plancache.go).
	plans planCache
}

// NewCluster returns a Cluster, applying Config defaults: the one way to make
// one, so its Workers is at least 1.
func NewCluster(cfg Config) *Cluster {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	return &Cluster{cfg: cfg}
}

// Workers returns the reducer-bucket count (Config.Workers).
func (c *Cluster) Workers() int { return c.cfg.Workers }

// RegisterTable satisfies the proxy's cluster-backend contract. The
// in-process engine receives plans that reference tables by pointer, so
// there is nothing to ship; remote backends (internal/remote) use the same
// call to upload the table to a seabed-server.
func (c *Cluster) RegisterTable(ctx context.Context, ref string, t *store.Table) error {
	return ctx.Err()
}

// AppendTable satisfies the proxy's cluster-backend contract; like
// RegisterTable it is a no-op in process, where the proxy's own table
// pointer already carries the appended rows.
func (c *Cluster) AppendTable(ctx context.Context, ref string, batch *store.Table) error {
	return ctx.Err()
}

// FilterKind selects a predicate evaluation strategy.
type FilterKind int

const (
	// FilterPlainCmp compares a plaintext U64 column against a constant.
	FilterPlainCmp FilterKind = iota
	// FilterStrCmp compares a plaintext Str column against a constant
	// (equality and inequality only).
	FilterStrCmp
	// FilterDetEq compares a DET Bytes column against an encrypted
	// constant.
	FilterDetEq
	// FilterOpeCmp order-compares an OPE Bytes column against an encrypted
	// constant. Both are ope.CiphertextSize bytes: a constant of another
	// length fails compilation, a stored value of another length fails the
	// run, each with an error naming the column.
	FilterOpeCmp
	// FilterRandom selects each row independently with probability Prob,
	// the selectivity model of §6.1.
	FilterRandom
)

// Filter is one conjunct of a plan's predicate.
type Filter struct {
	Kind FilterKind
	Col  string
	Op   sqlparse.CmpOp
	// U64 is the constant for FilterPlainCmp.
	U64 uint64
	// Str is the constant for FilterStrCmp.
	Str string
	// Bytes is the encrypted constant for FilterDetEq / FilterOpeCmp.
	Bytes []byte
	// Negate inverts FilterDetEq (for <> predicates).
	Negate bool
	// Prob and Seed drive FilterRandom.
	Prob float64
	Seed uint64
}

// AggKind selects an aggregation strategy.
type AggKind int

const (
	// AggPlainSum sums a plaintext U64 column.
	AggPlainSum AggKind = iota
	// AggPlainSumSq sums the squares of a plaintext U64 column (NoEnc
	// variance; encrypted modes use a client-computed squared column).
	AggPlainSumSq
	// AggCount counts selected rows.
	AggCount
	// AggAsheSum sums an ASHE column: bodies mod 2^64 plus identifier-list
	// union.
	AggAsheSum
	// AggPaillierSum multiplies Paillier ciphertexts mod N².
	AggPaillierSum
	// AggPlainMin tracks the minimum of a plaintext column.
	AggPlainMin
	// AggPlainMax tracks the maximum of a plaintext column.
	AggPlainMax
	// AggOpeMin tracks the minimum of an OPE column using order-revealing
	// comparison.
	AggOpeMin
	// AggOpeMax tracks the maximum of an OPE column using order-revealing
	// comparison.
	AggOpeMax
	// AggPlainMedian collects a plaintext column and reports its upper
	// median.
	AggPlainMedian
	// AggOpeMedian collects an OPE column, sorts the ciphertexts by
	// order-revealing comparison (Table 6: "Median … Using OPE"), and
	// reports the middle element with its companion value.
	AggOpeMedian
)

// Agg is one aggregate of a plan.
type Agg struct {
	Kind AggKind
	Col  string
	// PK is required for AggPaillierSum.
	PK *paillier.PublicKey
	// Companion optionally names a column whose value rides along with the
	// winning row of AggOpeMin/AggOpeMax (typically the measure's ASHE
	// column, so the client can decrypt the extreme's actual value).
	Companion string
}

// GroupBy describes a plan's grouping.
type GroupBy struct {
	// Col is the grouping column (plaintext U64/Str or DET Bytes).
	Col string
	// Inflate, when > 1, appends a pseudo-random suffix in [0, Inflate) to
	// every group key, multiplying the number of groups to engage idle
	// reducers (§4.5). The client merges the inflated groups back.
	Inflate int
	// KeyBound, when > 0, declares that a plaintext U64 grouping column's
	// values lie in [0, KeyBound) — true for SPLASHE dimension columns, whose
	// values are dictionary indices the planner knows the size of. The
	// executor then sizes a dense direct-index table over key×suffix and
	// accumulates with zero hash probes. It is a sizing hint, never a
	// correctness contract: keys at or above the bound (or a bound too large
	// to index densely) fall back to the hashed path and still group
	// correctly.
	KeyBound uint64
}

// Join is a broadcast equi-join against a smaller table.
type Join struct {
	Right *store.Table
	// LeftCol and RightCol are the key columns (both plaintext or both
	// DET-encrypted).
	LeftCol, RightCol string
	// RightCols are projected from the right side and become addressable
	// by filters and aggregates.
	RightCols []string
}

// IDRange scopes a plan to the rows whose global identifiers fall in the
// inclusive interval [Lo, Hi]. A sharded deployment uses it to address one
// shard's rows: the coordinating proxy stamps each shard's plan with that
// shard's identifier range, so a plan is explicit about which slice of the
// logical table it aggregates even when a daemon's registry holds more.
type IDRange struct {
	Lo, Hi uint64
}

// Plan is a physical query plan.
type Plan struct {
	Table   *store.Table
	Join    *Join
	Filters []Filter
	Aggs    []Agg
	GroupBy *GroupBy
	// Range, when non-nil, restricts the plan to rows with identifiers in
	// [Range.Lo, Range.Hi] — the shard-scoping frame of a scatter-gather
	// deployment. Nil means every row of Table.
	Range *IDRange
	// Partial marks the plan as one shard's slice of a scatter-gather query:
	// collection-valued aggregates (medians) return their collected inputs in
	// the result instead of collapsing them, so the coordinator can merge the
	// results of disjoint row ranges exactly (see Merge).
	Partial bool
	// Project switches the plan to scan mode: matching rows are returned
	// with their global identifiers and these columns' values.
	Project []string
	// Codec encodes the result's identifier list (ids.go) for transfer. Nil
	// means EffectiveCodec's default, idlist.Default, for every plan.
	Codec idlist.Codec
}

// AggValue is one aggregate result.
type AggValue struct {
	Kind AggKind
	U64  uint64
	Ashe AsheAgg
	Pail *big.Int
	// Ope holds the winning ciphertext for AggOpeMin/AggOpeMax; ArgID is the
	// winning row's identifier, and U64 (or CompanionBytes, for byte-valued
	// companions) its companion-column value.
	Ope            []byte
	ArgID          uint64
	CompanionBytes []byte
	// MedU64 (AggPlainMedian) and MedOpe/MedIDs/MedComp (AggOpeMedian) carry
	// the uncollapsed median inputs of a Partial plan: a median cannot be
	// computed from per-shard medians, so shards return what they collected
	// and the coordinator selects over the concatenation (MergeResults).
	// Empty on non-Partial plans, whose merge collapses them (finishCol).
	MedU64  []uint64
	MedOpe  [][]byte
	MedIDs  []uint64
	MedComp []uint64
}

// AsheAgg is an aggregated ASHE ciphertext with its encoded identifier list.
type AsheAgg struct {
	Body uint64
	// Encoded is the codec-compressed list as shipped to the client, the only
	// form the row view carries a list in; decode it with the plan's codec.
	Encoded []byte
}

// Group is one result group.
type Group struct {
	// Key is the group key: exactly one of KeyU64/KeyBytes/KeyStr is
	// meaningful per the grouping column's kind; Suffix is the inflation
	// suffix (−1 when inflation is off).
	KeyU64   uint64
	KeyBytes []byte
	KeyStr   string
	KeyKind  store.Kind
	Suffix   int
	Rows     uint64
	Aggs     []AggValue
}

// ScanChunk holds scan output column-major — one map task's survivors, or one
// decoded wire chunk: in Plan.Project order, one column of len(IDs) values.
type ScanChunk struct {
	IDs  []uint64
	Cols []store.Column
}

// Rows returns one cursor per row of the chunk.
func (c *ScanChunk) Rows() []ScanRow {
	rows := make([]ScanRow, len(c.IDs))
	for i, id := range c.IDs {
		rows[i] = ScanRow{ID: id, chunk: c, row: i}
	}
	return rows
}

// ScanRow is one row returned by a scan plan: its identifier and a cursor into
// the chunk that holds its cells. Only rows ScanChunk.Rows made can be read.
type ScanRow struct {
	ID    uint64
	chunk *ScanChunk
	row   int
}

// Chunk returns the chunk the row's cells live in.
func (r ScanRow) Chunk() *ScanChunk { return r.chunk }

// Width returns the row's projected column count.
func (r ScanRow) Width() int { return len(r.chunk.Cols) }

// U64 returns cell j of a U64 column, and 0 for a column of another kind.
func (r ScanRow) U64(j int) uint64 {
	if c := &r.chunk.Cols[j]; c.Kind == store.U64 {
		return c.U64[r.row]
	}
	return 0
}

// Bytes returns cell j of a Bytes or Fixed column (clipped to its width), nil for another kind.
func (r ScanRow) Bytes(j int) []byte {
	if c := &r.chunk.Cols[j]; c.Kind == store.Bytes || c.Kind == store.Fixed {
		return c.BytesAt(r.row)
	}
	return nil
}

// Str returns cell j of a Str column, and "" for a column of another kind.
func (r ScanRow) Str(j int) string {
	if c := &r.chunk.Cols[j]; c.Kind == store.Str {
		return c.Str[r.row]
	}
	return ""
}

// Metrics reports the measured counts of a run. Its stage times are the
// run's trace spans (driver, map, reduce): what Metrics holds of a clock is
// FirstChunk and the in-process cost-model inputs below, nothing modelled
// (internal/bench's cost model derives the paper's cluster from MapTaskTimes,
// ReduceTaskTimes and DriverTime).
type Metrics struct {
	// ShuffleBytes is the size of the map tasks' output as they hold it: keys,
	// row counts, accumulators and scan cells — or, in a coded group-by
	// (codes.go), its lane sets: 8 bytes a code for the row count and each
	// lane, a set per concurrently running task — and what they keep for the
	// identifier section (ShuffleListBytes). Plain arithmetic — nothing is
	// encoded to take it and nothing is shuffled — identical in both executors
	// when both keep per-task tables, and additive across shards.
	ShuffleBytes int
	// ResultBytes is the serialized size of the result a run hands its caller
	// (its identifier section as encoded); on a merged result, the sum of the
	// shards' — the bytes that reached the coordinator, whose own merge
	// encodes none.
	ResultBytes int
	// ShuffleListBytes and ResultListBytes are the identifier section's share
	// of the two: what the map tasks kept for it — their survivors'
	// identifiers raw at 16 bytes a range and, in a group-by, 4 bytes a
	// survivor for its slot — and the section as encoded, list and
	// runs. internal/bench models §4.5's worker-compressed shuffle from them.
	// In-process only, like the task times below.
	ShuffleListBytes int
	ResultListBytes  int
	// MapTasks and ReduceTasks count executed tasks; a coded group-by's
	// reduce, one fold of its lane sets, is one task.
	MapTasks    int
	ReduceTasks int
	// RowsScanned and RowsSelected count input rows and filter survivors.
	RowsScanned  uint64
	RowsSelected uint64
	// MapTaskTimes and ReduceTaskTimes are every task's measured duration, in
	// task order: a reducer's covers its merge. DriverTime is the driver's
	// own work: compiling the plan, then folding an ungrouped plan's map tasks
	// or gathering the reducers' columns. In-process only: they never cross
	// the wire and a merged result carries none.
	MapTaskTimes    []time.Duration
	ReduceTaskTimes []time.Duration
	DriverTime      time.Duration
	// FirstChunk is the measured wall-clock time from the start of a
	// streaming run (RunStream with a sink and a projection) to the first
	// scan chunk delivered to the sink — the latency a client waits before
	// rows begin flowing, as opposed to the run span's full run. Zero
	// for non-streaming runs and for streams that delivered no rows. Across
	// a shard merge it takes the minimum non-zero value: the gather's caller
	// saw rows as soon as the first shard produced any.
	FirstChunk time.Duration
	// Ops is the per-operator counter block: which executor paths each
	// batch actually took.
	Ops OpStats
}

// OpStats counts per-operator executor events — the EXPLAIN ANALYZE
// substance. Every field is bumped at batch granularity (or once per task),
// never per row, so the counters cost nothing the batch bookkeeping didn't
// already pay. Across task and shard merges every field sums except
// GroupTableLen, which takes the maximum: it reports a capacity (the largest
// open-addressed slot table any task allocated), not a flow.
type OpStats struct {
	// Batches counts row batches the vectorized loop executed.
	Batches uint64
	// DenseBatches counts batches on the all-rows-survive dense aggregate
	// path (no predicates, no join, no grouping, no projection).
	DenseBatches uint64
	// JoinProbed and JoinMatched count rows entering the broadcast-join
	// hash probe and rows that found a partner (inner-join survivors).
	JoinProbed  uint64
	JoinMatched uint64
	// GroupDense and GroupHash count group-key resolutions without a hash —
	// the dense direct index, or a key's table-wide code (codes.go) — vs
	// through the open-addressed table.
	GroupDense uint64
	GroupHash  uint64
	// RadixBatches is no longer set by the engine, so it reads 0. It stays
	// only as the result frame's eleventh counter (FORMAT.md §3) and as the
	// benchmark's engine.radix_batches, until ROADMAP item 24(b) removes it.
	RadixBatches uint64
	// GroupSlots totals distinct group slots across the tables that grouped
	// rows — the map tasks' (occupancy), or a coded group-by's result
	// groups; GroupTableLen is the largest
	// open-addressed table capacity seen, or a coded group-by's K.
	GroupSlots    uint64
	GroupTableLen uint64
	// ColumnPins counts columns pinned resident for map tasks;
	// ColumnFaults counts the pins that had to materialize the column from
	// its backing segment (store.Residency pressure attributed per query).
	ColumnPins   uint64
	ColumnFaults uint64
}

// merge folds src into o under the documented rules: sum flows, max the
// GroupTableLen capacity. Used both when a run folds task results and when
// the shard gather folds per-shard metrics.
func (o *OpStats) merge(src *OpStats) {
	o.Batches += src.Batches
	o.DenseBatches += src.DenseBatches
	o.JoinProbed += src.JoinProbed
	o.JoinMatched += src.JoinMatched
	o.GroupDense += src.GroupDense
	o.GroupHash += src.GroupHash
	o.RadixBatches += src.RadixBatches
	o.GroupSlots += src.GroupSlots
	if src.GroupTableLen > o.GroupTableLen {
		o.GroupTableLen = src.GroupTableLen
	}
	o.ColumnPins += src.ColumnPins
	o.ColumnFaults += src.ColumnFaults
}

// Result is a plan's output.
type Result struct {
	// Cols holds aggregation output in the columnar form every stage shares
	// (cols.go); a query without GROUP BY yields one group with KeyKind ==
	// store.U64 and suffix −1, a grouped query that selected nothing none
	// (nil).
	Cols *GroupCols
	// Groups is the row view of Cols, an output only: nil until View builds
	// it (MergeResults returns with it built). Nothing reads it as input;
	// every stage reads Cols.
	Groups []Group
	// Scan holds scan-mode output.
	Scan []ScanRow
	// Metrics reports costs.
	Metrics Metrics
}
