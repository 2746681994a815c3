package main

import (
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: fungusdb
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkShardedTick/shards=1-8         	     494	    450496 ns/op	     944 B/op	      11 allocs/op
BenchmarkShardedTick/shards=1-8         	     501	    440000 ns/op	     940 B/op	      11 allocs/op
BenchmarkRecovery/shards=4-8            	      38	  13965574 ns/op	10544013 B/op	  140199 allocs/op
BenchmarkPrunedScan/sel=0.001/shards=1/prune=pruned-8 	    4734	     74087 ns/op	        24.00 prunedsegs/op	     98304 skippedtuples/op
PASS
ok  	fungusdb	21.319s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" {
		t.Errorf("platform = %s/%s", rep.GOOS, rep.GOARCH)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	// Sorted by name, GOMAXPROCS suffix stripped, min ns/op kept.
	tick := rep.Benchmarks[2]
	if tick.Name != "BenchmarkShardedTick/shards=1" {
		t.Errorf("name = %q (suffix not stripped?)", tick.Name)
	}
	if tick.NsPerOp != 440000 || tick.Runs != 2 {
		t.Errorf("tick = %+v, want min 440000 over 2 runs", tick)
	}
	if tick.BytesPerOp != 940 || tick.AllocsPerOp != 11 {
		t.Errorf("tick mem metrics = %+v", tick)
	}
	// Custom b.ReportMetric units ride along in Metrics.
	pruned := rep.Benchmarks[0]
	if pruned.Name != "BenchmarkPrunedScan/sel=0.001/shards=1/prune=pruned" {
		t.Fatalf("pruned entry = %q", pruned.Name)
	}
	if pruned.Metrics["prunedsegs/op"] != 24 || pruned.Metrics["skippedtuples/op"] != 98304 {
		t.Errorf("custom metrics = %+v", pruned.Metrics)
	}
}

func TestCompareReportsGate(t *testing.T) {
	base := BenchReport{Benchmarks: []BenchEntry{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 1000},
	}}
	cur := BenchReport{Benchmarks: []BenchEntry{
		{Name: "BenchmarkA", NsPerOp: 1240}, // +24%: inside tolerance
		{Name: "BenchmarkB", NsPerOp: 1300}, // +30%: regression
		{Name: "BenchmarkNew", NsPerOp: 500},
	}}
	if n := compareReports(base, cur, 0.25, io.Discard); n != 1 {
		t.Errorf("regressions = %d, want 1 (only BenchmarkB; missing/new entries never fail)", n)
	}
	if n := compareReports(base, cur, 0.50, io.Discard); n != 0 {
		t.Errorf("regressions at +50%% tolerance = %d, want 0", n)
	}
}

// TestCompareReportsGatesAllocs: allocations per op are gated like
// ns/op, where both reports have a count, with a small absolute slack.
func TestCompareReportsGatesAllocs(t *testing.T) {
	base := BenchReport{Benchmarks: []BenchEntry{
		{Name: "BenchmarkStream", NsPerOp: 1000, AllocsPerOp: 400},
		{Name: "BenchmarkSteady", NsPerOp: 1000, AllocsPerOp: 400},
		{Name: "BenchmarkTiny", NsPerOp: 1000, AllocsPerOp: 13},
		{Name: "BenchmarkUncounted", NsPerOp: 1000},
		{Name: "BenchmarkNoBenchmem", NsPerOp: 1000, AllocsPerOp: 400},
	}}
	cur := BenchReport{Benchmarks: []BenchEntry{
		{Name: "BenchmarkStream", NsPerOp: 900, AllocsPerOp: 30000}, // faster, but back to per-row allocation
		{Name: "BenchmarkSteady", NsPerOp: 1000, AllocsPerOp: 480},  // +20%: inside tolerance
		{Name: "BenchmarkTiny", NsPerOp: 1000, AllocsPerOp: 18},     // +38%, but five allocations
		{Name: "BenchmarkUncounted", NsPerOp: 1000, AllocsPerOp: 50},
		{Name: "BenchmarkNoBenchmem", NsPerOp: 1000}, // run without -benchmem: no alloc gate
	}}
	var out strings.Builder
	if n := compareReports(base, cur, 0.25, &out); n != 1 {
		t.Errorf("regressions = %d, want 1 (BenchmarkStream's allocations):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "400 ->     30000 allocs/op") {
		t.Errorf("report does not show the allocation counts:\n%s", out.String())
	}
}

// TestReportEnvironmentBlock: a fresh report carries the environment
// block, the commit taken from GITHUB_SHA when set. A baseline written
// before the block existed still parses and gates exactly as before;
// the comparison header names both environments and notes that they
// differ.
func TestReportEnvironmentBlock(t *testing.T) {
	t.Setenv("GITHUB_SHA", "0123abcd")
	cur, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	stampEnvironment(&cur)
	if cur.GoVersion != runtime.Version() || cur.NumCPU != runtime.NumCPU() ||
		cur.GOMAXPROCS != runtime.GOMAXPROCS(0) || cur.Commit != "0123abcd" {
		t.Errorf("environment block = %q %d %d %q", cur.GoVersion, cur.NumCPU, cur.GOMAXPROCS, cur.Commit)
	}
	data, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"go_version":`, `"num_cpu":`, `"gomaxprocs":`, `"commit":"0123abcd"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON lacks %s: %s", key, data)
		}
	}

	var old BenchReport
	if err := json.Unmarshal([]byte(`{"goos":"linux","goarch":"amd64","benchmarks":[
		{"name":"BenchmarkShardedTick/shards=1","ns_per_op":300000,"allocs_per_op":11,"runs":1},
		{"name":"BenchmarkRecovery/shards=4","ns_per_op":13965574,"allocs_per_op":140199,"runs":1}]}`), &old); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if n := compareReports(old, cur, 0.25, &out); n != 1 { // ShardedTick +47%
		t.Errorf("regressions = %d, want 1:\n%s", n, out.String())
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 || lines[0] != "  baseline: no environment recorded" ||
		!strings.HasPrefix(lines[1], "  current:  "+runtime.Version()) || !strings.HasPrefix(lines[2], "  note: ") {
		t.Errorf("header:\n%s", out.String())
	}
	out.Reset()
	compareReports(cur, cur, 0.25, &out)
	if strings.Contains(out.String(), "note:") {
		t.Errorf("same environment still noted:\n%s", out.String())
	}
}
