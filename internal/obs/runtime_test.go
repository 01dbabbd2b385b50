package obs

import (
	"bytes"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestRuntimeFamilies pins the Go runtime series: every family is exposed,
// parses, reads a live value (the process has allocated, collected and has
// goroutines by now), and docs/OBSERVABILITY.md lists exactly the same
// families, each marked measured.
func TestRuntimeFamilies(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("runtime exposition invalid: %v\n%s", err, buf.String())
	}
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range runtimeSeries {
		name := series.name
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s not exposed", name)
		}
		m := regexp.MustCompile(`(?m)^` + name + ` ([0-9.e+-]+)$`).FindSubmatch(buf.Bytes())
		if m == nil || string(m[1]) == "0" {
			t.Errorf("family %s reads %q, want a positive sample", name, m)
		}
		row := regexp.MustCompile("(?m)^\\| `" + name + "` \\|.*measured.*$")
		if !row.Match(doc) {
			t.Errorf("docs/OBSERVABILITY.md has no row for %s marked measured", name)
		}
	}
	if n := strings.Count(string(doc), "`seabed_go_"); n != len(runtimeSeries) {
		t.Errorf("docs/OBSERVABILITY.md names %d seabed_go_ families, the registry has %d", n, len(runtimeSeries))
	}
}
