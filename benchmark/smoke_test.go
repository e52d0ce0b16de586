package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the code that
// measures it in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if !slices.Equal(f.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %q, paths %q", f.Command, f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %q, code %q", i, f.Workloads[i].Name, w.name)
		}
	}
	var declared []metricDef
	for _, m := range e2eMetrics {
		if m.Declared {
			declared = append(declared, m)
		}
	}
	if len(f.EndToEnd) != len(declared) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d declared in code", len(f.EndToEnd), len(declared))
	}
	var setupBound, maxBound float64
	for i, m := range declared {
		e := f.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound || m.Abs || !m.Sim || !m.RTI {
			t.Errorf("end_to_end %d: file %+v, code %+v", i, e, m)
		}
		if e.Name == "setup_s" {
			setupBound = e.Bound
		}
		maxBound = max(maxBound, e.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	layers := layerMetrics()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(f.PerLayer), len(layers))
	}
	for i, m := range layers {
		p := f.PerLayer[i]
		if p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per_layer %d: file %+v, code %+v", i, p, m)
		}
	}
}

// TestSmoke runs every workload at its smoke size through the same code
// path the driver uses and checks that every metric BENCHMARK.json
// declares comes out, that the output checks pass, and that the trace
// file is Chrome trace_event JSON.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	resultsPath := filepath.Join(dir, "results.json")
	tracePath := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-runs", "1", "-out", resultsPath, "-trace-out", tracePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var d driverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &d); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", d.Correct, d.Attempted, d.Failed, stdout.String())
	}
	for _, w := range f.Workloads {
		for _, m := range f.EndToEnd {
			v, ok := d.Metrics[w.Name+"/"+m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s/%s = %+v (present %v), want a positive value in %s", w.Name, m.Name, v, ok, m.Unit)
			}
		}
		for _, m := range f.PerLayer {
			if v, ok := d.Metrics[w.Name+"/"+m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s/%s missing or in %q, want %s", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
	}

	var res results
	b, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, m := range e2eMetrics {
			if _, ok := res.Workloads[w.name].EndToEnd[m.Name]; ok != m.appliesTo(w) {
				t.Errorf("results: %s reports %s = %v, want %v", w.name, m.Name, ok, m.appliesTo(w))
			}
		}
	}

	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	b, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	for _, s := range spanNames {
		if !seen[s] {
			t.Errorf("trace has no %s span", s)
		}
	}
}
