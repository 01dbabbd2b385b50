package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	root := NewTrace("query")
	if root.TraceID() == 0 {
		t.Fatal("trace ID should be nonzero")
	}
	parse := root.StartChild("parse")
	parse.End()
	run := root.StartChild("run")
	run.SetAttr("shards", "3")
	run.End()
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "parse" || kids[1].Name() != "run" {
		t.Fatalf("children = %v", kids)
	}
	if kids[1].TraceID() != root.TraceID() {
		t.Fatal("child did not inherit trace ID")
	}
	if got := run.Attr("shards"); got != "3" {
		t.Fatalf("attr shards = %q", got)
	}
	if root.FindSpan("run") != run {
		t.Fatal("FindSpan missed run")
	}
	if root.FindSpan("absent") != nil {
		t.Fatal("FindSpan invented a span")
	}
	s := root.String()
	if !strings.Contains(s, "query") || !strings.Contains(s, "parse") || !strings.Contains(s, "shards=3") {
		t.Fatalf("render missing content:\n%s", s)
	}
}

func TestSpanConcurrent(t *testing.T) {
	root := NewTrace("scatter")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.StartChild("shard")
			c.SetAttr("k", "v")
			c.End()
			_ = root.String()
		}()
	}
	wg.Wait()
	if got := len(root.Children()); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestFlattenAttach(t *testing.T) {
	root := NewTraceWithID("daemon", 42, time.Now())
	m := root.AddSpan("map", root.Start().Add(time.Millisecond), 5*time.Millisecond)
	m.SetAttr("rows", "100")
	sub := m.StartChild("spill")
	sub.End()
	root.AddSpan("reduce", root.Start().Add(7*time.Millisecond), time.Millisecond)
	root.End()

	flat := Flatten(root)
	if len(flat) != 4 {
		t.Fatalf("flat = %d spans, want 4", len(flat))
	}
	if flat[0].Depth != 0 || flat[1].Depth != 1 || flat[2].Depth != 2 || flat[3].Depth != 1 {
		t.Fatalf("depths = %v", []int{flat[0].Depth, flat[1].Depth, flat[2].Depth, flat[3].Depth})
	}
	if flat[1].Start != time.Millisecond || flat[1].Dur != 5*time.Millisecond {
		t.Fatalf("map offset/dur = %v/%v", flat[1].Start, flat[1].Dur)
	}

	// Reattach under a client-side span and check the tree shape survives.
	client := NewTraceWithID("rpc", 42, time.Now())
	client.AttachFlat(flat)
	d := client.FindSpan("daemon")
	if d == nil {
		t.Fatal("daemon span lost")
	}
	mp := d.FindSpan("map")
	if mp == nil || mp.Attr("rows") != "100" || mp.Duration() != 5*time.Millisecond {
		t.Fatalf("map span mangled: %v", mp)
	}
	if mp.FindSpan("spill") == nil {
		t.Fatal("nested spill span lost")
	}
}

func TestAttachFlatHostileDepths(t *testing.T) {
	// The server is untrusted: garbled depth sequences must clamp, not panic.
	root := NewTraceWithID("rpc", 1, time.Now())
	root.AttachFlat([]FlatSpan{
		{Depth: 5, Name: "a"},
		{Depth: -3, Name: "b"},
		{Depth: 2, Name: "c"},
	})
	if root.FindSpan("a") == nil || root.FindSpan("b") == nil || root.FindSpan("c") == nil {
		t.Fatalf("spans dropped:\n%s", root.String())
	}
}

func TestSlowestChild(t *testing.T) {
	root := NewTraceWithID("run", 7, time.Now())
	root.AddSpan("shard 0", root.Start(), 2*time.Millisecond)
	root.AddSpan("shard 1", root.Start(), 9*time.Millisecond)
	root.AddSpan("shard 2", root.Start(), 3*time.Millisecond)
	root.AddSpan("merge", root.Start(), 50*time.Millisecond)
	sl := root.SlowestChild("shard")
	if sl == nil || sl.Name() != "shard 1" {
		t.Fatalf("slowest = %v", sl)
	}
}

func TestContextPlumbing(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no span")
	}
	sp := NewTrace("q")
	ctx := ContextWithSpan(context.Background(), sp)
	if SpanFromContext(ctx) != sp {
		t.Fatal("span lost in context")
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{0.1, 1, 10}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.ObserveDuration(20 * time.Millisecond)
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	want := 0.05 + 0.5 + 5 + 50 + 0.02
	if diff := h.Sum() - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`test_seconds_bucket{le="0.1"} 2`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("seabed_x_total", "h", Labels{"type": "run"})
	b := r.Counter("seabed_x_total", "h", Labels{"type": "run"})
	if a != b {
		t.Fatal("duplicate registration returned a new counter")
	}
	c := r.Counter("seabed_x_total", "h", Labels{"type": "append"})
	if a == c {
		t.Fatal("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type clash did not panic")
		}
	}()
	r.Gauge("seabed_x_total", "h", nil)
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("seabed_bytes_in_total", "bytes received", nil).Add(123)
	r.Gauge("seabed_tables", "registered tables", Labels{"shard": "0"}).Set(4)
	r.GaugeFunc("seabed_uptime_seconds", "uptime", nil, func() float64 { return 1.5 })
	h := r.Histogram("seabed_request_seconds", "request latency", nil, Labels{"type": "run"})
	h.Observe(0.004)
	h.Observe(2)
	hQuote := r.Gauge("seabed_weird", "label escaping", Labels{"path": "a\"b\\c\nd"})
	hQuote.Set(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ValidateExposition([]byte(b.String()))
	if err != nil {
		t.Fatalf("self-produced exposition invalid: %v\n%s", err, b.String())
	}
	for name, typ := range map[string]string{
		"seabed_bytes_in_total":  "counter",
		"seabed_tables":          "gauge",
		"seabed_uptime_seconds":  "gauge",
		"seabed_request_seconds": "histogram",
		"seabed_weird":           "gauge",
	} {
		if fams[name] != typ {
			t.Fatalf("family %s = %q, want %q (all: %v)", name, fams[name], typ, fams)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"undeclared sample": "seabed_x 1\n",
		"bad value":         "# TYPE a gauge\na one\n",
		"bad type":          "# TYPE a rainbow\n",
		"type after sample": "# TYPE a gauge\na 1\n# TYPE a gauge\n",
		"negative counter":  "# TYPE a counter\na -1\n",
		"unterminated label": "# TYPE a gauge\n" +
			`a{x="y 1` + "\n",
		"non-cumulative histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"+Inf != count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
	}
	for name, in := range cases {
		if _, err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, in)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	ok := "# HELP h latency\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n" +
		"# TYPE g gauge\ng{a=\"b\",c=\"d\"} 1 1700000000000\n"
	if _, err := ValidateExposition([]byte(ok)); err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "h", nil, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.01)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Error(err)
		}
		if _, err := ValidateExposition([]byte(b.String())); err != nil {
			t.Errorf("mid-flight exposition invalid: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
