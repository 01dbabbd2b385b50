package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testCfg keeps the full-suite test fast: tiny datasets, single trials.
func testCfg() Config {
	return Config{Quick: true, Scale: 100_000, Workers: 8, Trials: 1, Seed: 7}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if _, ok := Find(e.Name); !ok {
			t.Fatalf("Find(%q) failed", e.Name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find must reject unknown names")
	}
}

// TestEveryExperimentRuns executes each experiment at minimal scale and
// checks for its headline output.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	wants := map[string]string{
		"table1":    "ASHE encryption",
		"table2":    "reduceByKey(ASHE)",
		"table3":    "ranges+vb",
		"table4":    "MDX",
		"table5":    "Ad Analytics",
		"fig6":      "ASHE(sel=100%)",
		"fig7":      "workers",
		"fig8":      "+OPE selection",
		"fig9a":     "Seabed-opt",
		"fig9bc":    "Q4",
		"fig10a":    "Paillier/Seabed median ratio",
		"fig10b":    "enhanced",
		"links":     "10Mbps",
		"ablations": "packing speedup",
		"hedge":     "straggler cost",
	}
	cfg := testCfg()
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.Name, err, buf.String())
			}
			if want := wants[e.Name]; !strings.Contains(buf.String(), want) {
				t.Fatalf("%s output lacks %q:\n%s", e.Name, want, buf.String())
			}
		})
	}
}

func TestMedian(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if median(nil) != 0 {
		t.Fatal("median of empty must be 0")
	}
	if median([]time.Duration{ms(5)}) != ms(5) {
		t.Fatal("median of one")
	}
	if median([]time.Duration{ms(9), ms(1), ms(5)}) != ms(5) {
		t.Fatal("median of three")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 10_000 || c.Workers != 100 || c.Trials != 3 || c.Seed != 42 {
		t.Fatalf("defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Trials != 1 {
		t.Fatalf("quick trials = %d, want 1", q.Trials)
	}
}

// resetCaches clears cached fixtures, to bound a test's memory.
func resetCaches() {
	fixMu.Lock()
	defer fixMu.Unlock()
	clear(synthCache)
}

func TestSyntheticProxyCache(t *testing.T) {
	resetCaches()
	cfg := testCfg()
	a, err := syntheticProxy(cfg, 2000, 4, 1) // translate.Seabed == 1
	if err != nil {
		t.Fatal(err)
	}
	b, err := syntheticProxy(cfg, 2000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss for identical fixture")
	}
	resetCaches()
}

func TestSeconds(t *testing.T) {
	if seconds(1500*time.Millisecond) != "1.5000s" {
		t.Fatalf("seconds = %q", seconds(1500*time.Millisecond))
	}
}

// TestFig8DefaultShuffleColumn: Figure 8's codec sweep includes the default
// codec, so the line of worker-compressed shuffle sizes under it reads a
// measured size at every selectivity — not a missing sweep entry printed as 0.
func TestFig8DefaultShuffleColumn(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(testCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	_, line, ok := strings.Cut(buf.String(), "(KB, default codec):")
	line, _, _ = strings.Cut(line, "\n")
	if !ok || len(strings.Fields(line)) == 0 {
		t.Fatalf("no default-codec shuffle line in:\n%s", buf.String())
	}
	for _, cell := range strings.Fields(line) {
		_, kb, _ := strings.Cut(cell, "=")
		if v, err := strconv.ParseFloat(kb, 64); err != nil || v <= 0 {
			t.Errorf("default-codec shuffle %q: want a size above 0 KB", cell)
		}
	}
}
