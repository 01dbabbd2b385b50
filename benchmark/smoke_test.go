package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs all four workloads at tiny scale, untraced and traced, and
// holds the output to the contract: every declared metric present and finite,
// no failed operation, no hedged sub-query.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	work, traces := t.TempDir(), t.TempDir()
	for _, w := range workloads {
		res, info, err := runUntraced(ctx, w, "tiny", 7, 0.3, work)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w.name, res, info, endToEnd)
		for _, def := range endToEnd {
			if v := res.Metrics[def.name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, def.name, v)
			}
		}

		res, info, err = runTraced(ctx, w, "tiny", 7, 0.3, work, traces)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkResult(t, w.name+" traced", res, info, perLayer)
		if v := res.Metrics["fleet.hedges"].Value; v != 0 {
			t.Errorf("%s: fleet.hedges = %v, want 0", w.name, v)
		}
		if _, err := os.Stat(filepath.Join(traces, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
		faults := res.Metrics["store.column_faults"].Value
		if w.cold && faults == 0 {
			t.Errorf("%s: no column faults under a residency budget", w.name)
		}
		if !w.cold && faults != 0 {
			t.Errorf("%s: %v column faults per query on a resident table", w.name, faults)
		}
	}
	if left, _ := os.ReadDir(work); len(left) != 0 {
		t.Errorf("%d data dirs left behind in %s", len(left), work)
	}
}

func checkResult(t *testing.T, label string, res result, info runInfo, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || info.ErrorShare != 0 {
		t.Errorf("%s: %d of %d operations failed: %v", label, res.Failed, res.Attempted, info.Errors)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", label, len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := res.Metrics[def.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != def.unit {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", label, def.name, v, ok, def.unit)
		}
	}
}

// TestManifest holds BENCHMARK.json to the lists the program prints.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		if g := m.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := m.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
}

func TestPercentilePicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 90, false}, {100, 90, true}, {199, 95, false}, {200, 95, true}, {1000, 99, true}, {999, 99, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {250, 95}, {1500, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p50, p90 := percentile(s, 50), percentile(s, 90); p50 != 50 || p90 != 90 {
		t.Errorf("p50, p90 of 1..100 = %v, %v, want 50, 90", p50, p90)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, StartUs: 30, EndUs: 60},  // overlaps span 2: 10..60 is covered once
		{ID: 4, Parent: 1, StartUs: 90, EndUs: 120}, // runs past its parent: only 90..100 counts
		{ID: 5, Parent: 2, StartUs: 10, EndUs: 15},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "query_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "queries_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	scale := func(v []float64, k float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * k
		}
		return out
	}
	for _, c := range []struct {
		def  metricDef
		b    []float64
		want string
	}{
		{lower, scale(steady, 1.05), "same"},
		{lower, scale(steady, 1.2), "worse"},
		{lower, scale(steady, 0.8), "better"},
		{higher, scale(steady, 0.8), "worse"},
		{higher, scale(steady, 1.2), "better"},
		{lower, []float64{80, 100, 120, 140, 60}, "unresolved"},
	} {
		if got, _ := verdict(c.def, steady, c.b); got != c.want {
			t.Errorf("verdict(%s, ×%v) = %s, want %s", c.def.name, c.b[0]/steady[0], got, c.want)
		}
	}
}
