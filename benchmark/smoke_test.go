package main

import (
	"io"
	"path/filepath"
	"testing"
)

// smokeConfig is one pass of a workload at 2,000 × 200 tuples.
func smokeConfig(workload string, trace bool) config {
	return config{workload: workload, outerN: 2000, innerN: 200, seed: 1989, trace: trace}
}

// Every workload runs, joins correctly and reports every end-to-end metric;
// -compare finds two copies of the result set in agreement and a halved
// throughput out of bounds.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	set := resultSet{Seed: 1989, Workloads: make(map[string]*result)}
	for _, w := range workloadNames {
		res, err := runOne(smokeConfig(w, false), dir, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t, %d of %d joins failed", w, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w, d.Name, v, d.Unit)
			}
		}
		set.Workloads[w] = res
	}

	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, set); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, set); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles([]string{a, b}, io.Discard); code != 0 {
		t.Errorf("compare of identical sets exited %d, want 0", code)
	}
	slow := set.Workloads[workloadNames[0]]
	m := slow.Metrics["tuples_per_s"]
	m.Value /= 2
	slow.Metrics["tuples_per_s"] = m
	if err := writeJSON(b, set); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles([]string{a, b}, io.Discard); code != 1 {
		t.Errorf("compare with halved throughput exited %d, want 1", code)
	}
}

// A one-pass traced run writes every per-layer metric into layers.json.
func TestTracedRunWritesEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		if _, err := runOne(smokeConfig(w, true), dir, io.Discard); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		var layers struct {
			Metrics map[string]metricValue `json:"metrics"`
			Spans   map[string]spanTotal   `json:"spans"`
		}
		if err := readJSON(filepath.Join(dir, w+".layers.json"), &layers); err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if _, ok := layers.Metrics[d.Name]; !ok {
				t.Errorf("%s: layers.json lacks %s", w, d.Name)
			}
		}
		for _, name := range []string{"setup.generate", "setup.load", "pass", "join", "replay.split"} {
			if layers.Spans[name].Count == 0 {
				t.Errorf("%s: no %s spans", w, name)
			}
		}
	}
}

// BENCHMARK.json at the repository root lists the same workloads and
// metrics, with the same units, directions and bounds, as this program.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, tc := range []struct {
		kind          string
		json, program []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.program) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.kind, len(tc.json), len(tc.program))
			continue
		}
		for i := range tc.json {
			if tc.json[i] != tc.program[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", tc.kind, i, tc.json[i], tc.program[i])
			}
		}
	}
}
