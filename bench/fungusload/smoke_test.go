package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// smokeConfig keeps the test's data directories and span files where
// run.sh keeps the benchmark's: under .bench_build in the checkout.
func smokeConfig(t *testing.T) config {
	build := filepath.Join("..", "..", ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(build, "smoke-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return config{seed: 1, seconds: 20, scale: 0.02, tmp: dir, outDir: dir}
}

// TestSmoke runs every workload end to end and through the traced
// ladder at a fiftieth of the size, and checks that every workload and
// metric BENCHMARK.json names is emitted under that name with that unit,
// finite, with no failed operation. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark reports %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range bf.EndToEnd {
		if d != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the benchmark %+v", i, d, endToEnd[i])
		}
	}
	for i, d := range bf.PerLayer {
		if d != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the benchmark %+v", i, d, perLayer[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	cfg := smokeConfig(t)
	for _, bw := range bf.Workloads {
		w := findWorkload(bw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has none", bw.Name)
		}
		for _, mode := range []struct {
			traced bool
			defs   []metricDef
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			res, err := runWorkload(w, cfg, mode.traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, mode.traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, mode.traced, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, mode.traced, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q has characters outside letters, digits, _ . -", d.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, mode.traced, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, mode.traced, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not marshal: %v", w.name, mode.traced, err)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// TestBrokenCheckFails proves the answers are checked: with every
// expectation deliberately wrong, each workload must report failures.
func TestBrokenCheckFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.breakCheck = true
	for _, w := range workloads {
		res, err := runWorkload(w, cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: wrong expectations went unnoticed", w.name)
		}
	}
}

// TestCompareNeedsSpread pins the verdict on sets too small to have a
// quartile spread: unresolved, never ok or worse.
func TestCompareNeedsSpread(t *testing.T) {
	dir := smokeConfig(t).tmp
	var paths []string
	for i, v := range []float64{1, 2} { // b is twice as slow as a
		f := resultFile{Runs: []workloadResult{{Name: workloads[0].name, Metrics: map[string]value{"op_p50_ms": {Value: v}}}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, string(rune('a'+i))+".json"))
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, paths[0], paths[1]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "unresolved") || !strings.Contains(out.String(), "0 worse") {
		t.Errorf("one run a side must be unresolved:\n%s", out.String())
	}
}
