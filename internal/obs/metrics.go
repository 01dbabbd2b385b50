package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. All mutation is a single
// atomic add — safe on the request hot path.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (CAS loop; gauges are off the hot path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// per-bucket atomic counters plus an atomic sum, no locks, no allocation per
// observation. Buckets are upper bounds in ascending order; observations above
// the last bound land only in the implicit +Inf bucket.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-added
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (~16) and the scan is branch-cheap;
	// a binary search buys nothing at this size.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	// count before bucket: the scraper reads buckets first and count last, so
	// this order keeps the rendered +Inf bucket (= count) ≥ every cumulative
	// finite bucket even mid-observation.
	h.count.Add(1)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus convention
// for latency series.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default bucket layout for latency histograms: 100µs
// to ~100s, roughly ×3 per step — wide enough to catch both a kernel-path
// batch and a cold recovery replay without per-series tuning.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
		0.1, 0.3, 1, 3, 10, 30, 100,
	}
}

// Labels name a metric's dimensions ({shard="2"}, {type="run"}). Instruments
// are registered once at startup, so the map allocation never touches a hot
// path.
type Labels map[string]string

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an instrument
// that already exists (same name, same labels) returns the existing one, so
// layers can share a registry without coordinating ownership.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	fams  map[string]*family
	order []*family
}

type family struct {
	name, help, typ string
	metrics         []*metric
}

type metric struct {
	labels []Attr // sorted by key
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // counterfunc/gaugefunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric), fams: make(map[string]*family)}
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.register(name, help, "counter", labels, func() *metric { return &metric{ctr: &Counter{}} })
	return m.ctr
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.register(name, help, "gauge", labels, func() *metric { return &metric{gauge: &Gauge{}} })
	return m.gauge
}

// CounterFunc registers a counter whose value is read from fn at scrape time
// — the bridge for counts an existing subsystem already tracks (server.Stats'
// atomics) without double-counting.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "counter", labels, func() *metric { return &metric{fn: fn} })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", labels, func() *metric { return &metric{fn: fn} })
}

// Histogram registers (or finds) a histogram. A nil bucket list gets
// LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets()
	}
	m := r.register(name, help, "histogram", labels, func() *metric {
		h := &Histogram{upper: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Uint64, len(h.upper)+1)
		return &metric{hist: h}
	})
	return m.hist
}

func (r *Registry) register(name, help, typ string, labels Labels, mk func() *metric) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	attrs := make([]Attr, 0, len(labels))
	for k, v := range labels {
		if !validName(k) || k == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", k, name))
		}
		attrs = append(attrs, Attr{Key: k, Val: v})
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	key := name + renderLabels(attrs, "", 0)

	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if r.fams[name].typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, r.fams[name].typ))
		}
		return m
	}
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, f.typ))
	}
	m := mk()
	m.labels = attrs
	f.metrics = append(f.metrics, m)
	r.byKey[key] = m
	return m
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// renderLabels formats a label block; mode 1 appends an le="bound" pair for
// histogram bucket lines (empty output only when there is nothing to render).
func renderLabels(attrs []Attr, le string, mode int) string {
	if len(attrs) == 0 && mode == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(a.Val))
		b.WriteByte('"')
	}
	if mode != 0 {
		if len(attrs) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family list; instrument reads are atomic and need no lock.
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		metrics := append([]*metric(nil), f.metrics...)
		r.mu.Unlock()
		for _, m := range metrics {
			switch {
			case m.ctr != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(m.labels, "", 0), formatFloat(float64(m.ctr.Value())))
			case m.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(m.labels, "", 0), formatFloat(m.gauge.Value()))
			case m.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(m.labels, "", 0), formatFloat(m.fn()))
			case m.hist != nil:
				h := m.hist
				cum := uint64(0)
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(m.labels, formatFloat(ub), 1), cum)
				}
				// The +Inf bucket must equal _count; read count first so a
				// racing Observe can't make +Inf smaller than _count.
				count := h.count.Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(m.labels, "+Inf", 1), count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(m.labels, "", 0), formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(m.labels, "", 0), count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
