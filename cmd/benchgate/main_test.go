package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const sampleBase = `goos: linux
goarch: amd64
pkg: soar
BenchmarkGather/n=1024/k=32-8         	     100	   1000000 ns/op	 2424044 B/op	      16 allocs/op
BenchmarkGather/n=1024/k=32-8         	     100	   1100000 ns/op	 2424044 B/op	      16 allocs/op
BenchmarkScheduler/scheduler/workers=8-8 	    5000	    230000 ns/op
BenchmarkRemoved-8                    	     100	    500000 ns/op
PASS
`

const sampleHead = `BenchmarkGather/n=1024/k=32-16        	     100	   1200000 ns/op
BenchmarkGather/n=1024/k=32-16        	     100	   1500000 ns/op
BenchmarkScheduler/scheduler/workers=8-16 	    5000	    231000 ns/op
BenchmarkAdded-16                     	     100	    400000 ns/op
ok  	soar	1.0s
`

func parse(t *testing.T, s string) map[string][]float64 {
	t.Helper()
	m, err := ParseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parse(t, sampleBase)
	// The -procs suffix is stripped and repeated counts accumulate.
	if got := m["BenchmarkGather/n=1024/k=32"]; len(got) != 2 || got[0] != 1000000 || got[1] != 1100000 {
		t.Fatalf("gather samples = %v", got)
	}
	if got := m["BenchmarkScheduler/scheduler/workers=8"]; len(got) != 1 || got[0] != 230000 {
		t.Fatalf("scheduler samples = %v", got)
	}
	if _, ok := m["PASS"]; ok {
		t.Fatal("non-benchmark line parsed")
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	base, head := parse(t, sampleBase), parse(t, sampleHead)
	// min(base)=1e6, min(head)=1.2e6: +20% — passes at 30%, fails at 10%.
	report, regressions := Compare(base, head, nil, 0.30)
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions at 30%%: %v\nreport:\n%s", regressions, report)
	}
	report, regressions = Compare(base, head, nil, 0.10)
	if len(regressions) != 1 || regressions[0] != "BenchmarkGather/n=1024/k=32" {
		t.Fatalf("regressions at 10%% = %v\nreport:\n%s", regressions, report)
	}
	// Added/removed benchmarks are reported but never gate.
	if !strings.Contains(report, "new") || !strings.Contains(report, "gone") {
		t.Fatalf("report missing new/gone rows:\n%s", report)
	}
}

func TestCompareMatchFilter(t *testing.T) {
	base, head := parse(t, sampleBase), parse(t, sampleHead)
	re := regexp.MustCompile(`^BenchmarkScheduler`)
	report, regressions := Compare(base, head, re, 0.0001)
	if len(regressions) != 1 || regressions[0] != "BenchmarkScheduler/scheduler/workers=8" {
		t.Fatalf("filtered regressions = %v\nreport:\n%s", regressions, report)
	}
	if strings.Contains(report, "BenchmarkGather") {
		t.Fatalf("filter leaked gather rows:\n%s", report)
	}
}

// TestRecordAppends: two runs leave two lines, each the min of its
// counts, and the earlier line is untouched.
func TestRecordAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	at := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)
	if err := Record(path, "abc1234", at, "cpu: Test CPU @ 2GHz\n"+sampleBase); err != nil {
		t.Fatal(err)
	}
	if err := Record(path, "def5678-dirty", at.Add(time.Hour), sampleHead); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines after two records, want 2:\n%s", len(lines), raw)
	}
	var first struct {
		Commit, Time, CPU string
		Samples           int
		NsPerOp           map[string]float64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Commit != "abc1234" || first.CPU != "Test CPU @ 2GHz" || first.Samples != 2 ||
		first.Time != "2026-09-28T12:00:00Z" || first.NsPerOp["BenchmarkGather/n=1024/k=32"] != 1000000 {
		t.Fatalf("first record = %+v", first)
	}
	if !strings.Contains(lines[1], `"def5678-dirty"`) || !strings.Contains(lines[1], `"BenchmarkAdded":400000`) {
		t.Fatalf("second record = %s", lines[1])
	}
	if err := Record(path, "x", at, "PASS\n"); err == nil {
		t.Fatal("output without results recorded")
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkGather-8":          "BenchmarkGather",
		"BenchmarkGather/k=32-16":    "BenchmarkGather/k=32",
		"BenchmarkGather/k=32":       "BenchmarkGather/k=32",
		"BenchmarkOdd-name":          "BenchmarkOdd-name",
		"BenchmarkScheduler/w=8-256": "BenchmarkScheduler/w=8",
	} {
		if got := stripProcs(in); got != want {
			t.Fatalf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
