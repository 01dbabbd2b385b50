package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one request
// share Query; Parent is the span that caused this one, 0 for a root. Times
// are microseconds since the recorder started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Query   int     `json:"query"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run ends. The program under test
// is not instrumented: every span is opened and closed in the benchmark's own
// files, around a call into a layer. A nil *recorder records nothing, which
// is what "tracing off" means here.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0)) / float64(time.Microsecond) }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(name string, parent, query int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, StartUs: r.now()})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndUs = r.now()
}

// writeJSONL writes one span per line, each with its self time.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		line := struct {
			span
			SelfUs float64 `json:"self_us"`
		}{s, self[s.ID]}
		if err = enc.Encode(&line); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUs < kids[b].StartUs })
		covered, edge := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, edge), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndUs - s.StartUs) - covered
	}
	return self
}

// spanRef names the open span a context belongs to.
type spanRef struct {
	rec   *recorder
	id    int
	query int
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// timed runs f under a child span of ctx's span (under no span when ctx
// carries none, or its recorder is nil) and returns how long f took.
func timed(ctx context.Context, name string, f func(ctx context.Context) error) (time.Duration, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := ref.rec.begin(name, ref.id, ref.query)
	if id != 0 {
		ctx = withSpan(ctx, spanRef{rec: ref.rec, id: id, query: ref.query})
	}
	start := time.Now()
	err := f(ctx)
	d := time.Since(start)
	ref.rec.end(id)
	return d, err
}
