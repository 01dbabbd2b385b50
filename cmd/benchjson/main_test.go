package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: seabed
cpu: Test CPU
BenchmarkTable1_OperationCosts-8   	       1	 123456789 ns/op	  4096 B/op	      42 allocs/op
BenchmarkFig6_LatencyVsRows-8      	       2	  98765432 ns/op
BenchmarkKernelFilterSumU64-8      	    2024	    560806 ns/op	 467443508 rows/s	       0 B/op	       0 allocs/op
BenchmarkFaultInColumn/Fixed16-8   	       1	        62.58 ns/op	        61.70 ns/fault	       0 B/op	       0 allocs/op
PASS
ok  	seabed	12.345s
`

func TestConvert(t *testing.T) {
	var out strings.Builder
	if err := convert(strings.NewReader(sample), &out, "abc123"); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Commit != "abc123" || len(rep.Benchmarks) != 4 {
		t.Fatalf("report = %+v", rep)
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkTable1_OperationCosts" || b.Procs != 8 ||
		b.Iterations != 1 || b.NsPerOp != 123456789 || b.BytesPerOp != 4096 || b.AllocsPerOp != 42 {
		t.Fatalf("benchmark 0 = %+v", b)
	}
	if rep.Benchmarks[1].BytesPerOp != 0 || rep.Benchmarks[1].Extra != nil {
		t.Fatalf("benchmark 1 = %+v", rep.Benchmarks[1])
	}
	// Custom ReportMetric units (the kernel benchmarks' rows/s) must land in
	// Extra without disturbing the standard columns.
	k := rep.Benchmarks[2]
	if k.Name != "BenchmarkKernelFilterSumU64" || k.NsPerOp != 560806 ||
		k.AllocsPerOp != 0 || k.Extra["rows/s"] != 467443508 {
		t.Fatalf("benchmark 2 = %+v", k)
	}
	// A sub-benchmark keeps its slash-separated name (the fault-in pair).
	if f := rep.Benchmarks[3]; f.Name != "BenchmarkFaultInColumn/Fixed16" || f.Procs != 8 || f.Extra["ns/fault"] != 61.70 {
		t.Fatalf("benchmark 3 = %+v", f)
	}
}

func TestConvertRejectsEmptyAndFailed(t *testing.T) {
	var out strings.Builder
	if err := convert(strings.NewReader("PASS\n"), &out, ""); err == nil {
		t.Fatal("empty bench stream accepted")
	}
	failed := sample + "--- FAIL: TestSomething (0.00s)\nFAIL\n"
	if err := convert(strings.NewReader(failed), &out, ""); err == nil {
		t.Fatal("failed bench stream accepted")
	}
}
