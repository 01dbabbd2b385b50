package client

import (
	"time"

	"seabed/internal/idlist"
	"seabed/internal/translate"
)

// QueryOption tunes one query execution. Options are applied in order, so a
// later option overrides an earlier one; the zero configuration runs the
// paper's system (translate.Seabed) with every optimization at its default.
type QueryOption func(*queryOptions)

// queryOptions is the resolved configuration of one query.
type queryOptions struct {
	mode             translate.Mode
	timeout          time.Duration
	expectedGroups   int
	disableInflation bool
	selectivity      float64
	selSeed          uint64
	codec            idlist.Codec
	forceInflate     int
	serverOnly       bool
	stream           bool
}

func applyOptions(opts []QueryOption) queryOptions {
	o := queryOptions{mode: translate.Seabed}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithMode selects the encryption mode the query runs under: the paper's
// system (translate.Seabed, the default), the plaintext baseline
// (translate.NoEnc), or the CryptDB/Monomi-style Paillier baseline
// (translate.Paillier). The table must have been uploaded under that mode.
func WithMode(m translate.Mode) QueryOption {
	return func(o *queryOptions) { o.mode = m }
}

// WithTimeout bounds the query's end-to-end execution: when the deadline
// passes, every layer — worker pool, wire protocol, shard scatter — is
// canceled and the query returns context.DeadlineExceeded. It composes with
// whatever deadline the caller's context already carries; the earlier one
// wins.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *queryOptions) { o.timeout = d }
}

// WithExpectedGroups feeds the group-inflation heuristic (§4.5) the expected
// number of distinct groups.
func WithExpectedGroups(n int) QueryOption {
	return func(o *queryOptions) { o.expectedGroups = n }
}

// WithoutInflation turns the group-inflation optimization off (§4.5
// ablation).
func WithoutInflation() QueryOption {
	return func(o *queryOptions) { o.disableInflation = true }
}

// WithForceInflate overrides the computed group-inflation factor.
func WithForceInflate(n int) QueryOption {
	return func(o *queryOptions) { o.forceInflate = n }
}

// WithSelectivity appends the §6.1 random-selection filter to the server
// plan: each row is chosen independently with probability prob in (0, 1),
// deterministically from seed (the microbenchmarks' worst-case model).
func WithSelectivity(prob float64, seed uint64) QueryOption {
	return func(o *queryOptions) { o.selectivity, o.selSeed = prob, seed }
}

// WithCodec overrides the identifier-list codec (the Figure 8 sweep).
func WithCodec(c idlist.Codec) QueryOption {
	return func(o *queryOptions) { o.codec = c }
}

// WithServerOnly skips client-side decryption, matching experiments that
// measure only server latency (§6.7). The result carries metrics but no
// rows.
func WithServerOnly() QueryOption {
	return func(o *queryOptions) { o.serverOnly = true }
}

// WithStreaming makes a scan query stream: Query returns as soon as the plan
// is submitted, and QueryResult.Rows yields rows as result chunks arrive
// from the engine, decrypting incrementally instead of materializing the
// whole scan in one buffer. The latency breakdown and metrics are populated
// once the stream is drained. Non-scan queries ignore the option.
func WithStreaming() QueryOption {
	return func(o *queryOptions) { o.stream = true }
}
