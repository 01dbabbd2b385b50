// Package obs is Seabed's dependency-free observability kit: per-query trace
// spans (trace.go), lock-cheap counters/gauges/histograms with a Prometheus
// text exposition writer (metrics.go, prom.go).
//
// The paper's evaluation (§6.2) attributes tail latency to per-shard skew —
// GC stragglers on individual Spark workers — which is only visible if every
// query can say where its time went, per shard. Spans carry that: the proxy
// mints a trace ID per query, the ID rides the plan frame to each daemon,
// and each daemon ships its own span breakdown (queue wait, map, reduce,
// driver) back in the result frame. Metrics cover the fleet view the paper's
// Table 5 style accounting needs: request latency by message type, WAL
// append/fsync cost, bytes moved.
//
// The package deliberately imports nothing from the rest of the module so
// every layer (wire, engine, durable, client) can depend on it.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span (row counts, shard index, …).
type Attr struct {
	Key string
	Val string
}

// Span is one timed operation in a trace tree. The root span is the trace:
// NewTrace mints a trace ID and every descendant inherits it. Spans are safe
// for concurrent use — the scatter path starts one child per shard from
// concurrent goroutines.
type Span struct {
	name    string
	traceID uint64
	start   time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// NewTrace starts a root span with a freshly minted (nonzero) trace ID.
func NewTrace(name string) *Span {
	id := rand.Uint64()
	for id == 0 {
		id = rand.Uint64()
	}
	return NewTraceWithID(name, id, time.Now())
}

// NewTraceWithID starts a root span under an existing trace ID — the daemon
// side of trace propagation, where the ID arrived in the plan frame. start is
// the clock reading the span begins at: the daemon's is the moment the frame
// left the socket, so the queue wait it reports lies inside it.
func NewTraceWithID(name string, traceID uint64, start time.Time) *Span {
	return &Span{name: name, traceID: traceID, start: start}
}

// Name reports the span's name.
func (s *Span) Name() string { return s.name }

// TraceID reports the trace the span belongs to.
func (s *Span) TraceID() uint64 { return s.traceID }

// Start reports when the span started.
func (s *Span) Start() time.Time { return s.start }

// End closes the span, fixing its duration. End is idempotent; a span left
// open reports the time elapsed so far.
func (s *Span) End() {
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Duration reports the span's duration: fixed if ended, elapsed-so-far if
// still open.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// StartChild starts a child span inheriting the trace ID.
func (s *Span) StartChild(name string) *Span {
	c := &Span{name: name, traceID: s.traceID, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddSpan attaches an already-measured child — a stage whose start and
// duration a clock took elsewhere (the engine's stages, a daemon's queue
// wait) rather than one bracketed by StartChild/End.
func (s *Span) AddSpan(name string, start time.Time, dur time.Duration) *Span {
	c := &Span{name: name, traceID: s.traceID, start: start, dur: dur, ended: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span. A repeated key overwrites the earlier value.
func (s *Span) SetAttr(key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// Attr reads an annotation; "" if absent.
func (s *Span) Attr(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Children returns a copy of the span's child list, in start order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// FindSpan searches the subtree rooted at s for the first span with the given
// name (depth-first, in child order); nil if none.
func (s *Span) FindSpan(name string) *Span {
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if found := c.FindSpan(name); found != nil {
			return found
		}
	}
	return nil
}

// String renders the trace tree, one span per line:
//
//	trace 4f1c9a2b77e01d45
//	query 12.4ms
//	  parse 180µs +0s
//	  run 11.9ms +210µs
//	    shard 0 3.1ms +40µs [rows_scanned=4096]
//
// Durations are rounded for display; +offset is the span's start relative to
// the rendered root.
func (s *Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x\n", s.traceID)
	s.render(&b, 0, s.start)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int, base time.Time) {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.name)
	fmt.Fprintf(b, " %v", dur.Round(10*time.Microsecond))
	if depth > 0 {
		fmt.Fprintf(b, " +%v", s.start.Sub(base).Round(10*time.Microsecond))
	}
	if len(attrs) > 0 {
		b.WriteString(" [")
		for i, a := range attrs {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%s", a.Key, a.Val)
		}
		b.WriteString("]")
	}
	b.WriteString("\n")
	for _, c := range children {
		c.render(b, depth+1, base)
	}
}

// FlatSpan is one span flattened for the wire: position in the tree by depth
// (preorder), start as an offset from the flattened root's start. Offsets stay
// meaningful across machines because they are relative, not absolute clock
// readings.
type FlatSpan struct {
	Depth int
	Name  string
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// Flatten serializes the subtree rooted at s into preorder FlatSpans with
// starts relative to s's start.
func Flatten(root *Span) []FlatSpan {
	var out []FlatSpan
	root.flatten(&out, 0, root.start)
	return out
}

func (s *Span) flatten(out *[]FlatSpan, depth int, base time.Time) {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	fs := FlatSpan{
		Depth: depth,
		Name:  s.name,
		Start: s.start.Sub(base),
		Dur:   dur,
		Attrs: append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	*out = append(*out, fs)
	for _, c := range children {
		c.flatten(out, depth+1, base)
	}
}

// AttachFlat rebuilds flattened spans as descendants of s, mapping offset 0 to
// s's own start time — the client side of trace assembly, grafting a daemon's
// breakdown under the RPC span that carried it. Malformed depth sequences
// (first span deeper than 1, or a jump of more than one level) are clamped to
// the nearest valid ancestor rather than rejected: the server is untrusted and
// a garbled trace must not break the query.
func (s *Span) AttachFlat(spans []FlatSpan) {
	stack := []*Span{s} // stack[d] is the current ancestor at depth d
	for _, fs := range spans {
		d := fs.Depth
		if d < 0 {
			d = 0
		}
		if d >= len(stack) {
			d = len(stack) - 1
		}
		parent := stack[d]
		c := &Span{
			name:    fs.Name,
			traceID: s.traceID,
			start:   s.start.Add(fs.Start),
			dur:     fs.Dur,
			ended:   true,
			attrs:   append([]Attr(nil), fs.Attrs...),
		}
		parent.mu.Lock()
		parent.children = append(parent.children, c)
		parent.mu.Unlock()
		stack = append(stack[:d+1], c)
	}
}

// SlowestChild returns the direct child with the longest duration whose name
// starts with prefix ("" matches all); nil if there are none. This is the
// straggler question — "which shard dominated this query?" — as a method.
func (s *Span) SlowestChild(prefix string) *Span {
	var slowest *Span
	var max time.Duration
	for _, c := range s.Children() {
		if !strings.HasPrefix(c.Name(), prefix) {
			continue
		}
		if d := c.Duration(); slowest == nil || d > max {
			slowest, max = c, d
		}
	}
	return slowest
}

// Context plumbing ---------------------------------------------------------

type ctxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the context's active span, or nil. Layers below the
// proxy (shard scatter, remote RPC, the engine) read this instead of taking a
// span parameter, so interfaces stay trace-agnostic and tracing stays
// optional.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
