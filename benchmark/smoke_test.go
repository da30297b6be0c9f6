package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeSeconds is long enough for every workload to complete calls in every
// mode, under the race detector too, and short enough to keep the package
// under ten seconds.
const smokeSeconds = 0.3

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s is missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), def, options{seed: 1, seconds: smokeSeconds, setupReps: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				// Under the race detector a call can outlast a slice of the
				// window and its target, which zeroes rates and shares.
				if v := res.Metrics[d.name].Value; !(v > 0) && !raceEnabled {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
			if e := res.diagnostics["error_share"].Value; e != 0 {
				t.Errorf("error_share = %v", e)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := runWorkload(context.Background(), def, options{seed: 1, seconds: smokeSeconds, trace: true, traceOut: path})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if d := res.diagnostics["spans_dropped"].Value; d != 0 {
				t.Errorf("%v spans dropped", d)
			}
			front := res.Metrics["front_self_us"].Value
			if routed := def.name == "small_struct_front"; routed != (front > 0) {
				t.Errorf("front_self_us = %v", front)
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			parents := map[uint32]uint32{}
			roots := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var rec spanRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if rec.End < rec.Start || rec.Call == 0 || rec.Name == "" {
					t.Errorf("malformed span %+v", rec)
				}
				parents[rec.ID] = rec.Parent
				if rec.Parent == 0 {
					roots++
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if roots == 0 {
				t.Fatal("trace holds no call")
			}
			for id, parent := range parents {
				if _, ok := parents[parent]; parent != 0 && !ok {
					t.Errorf("span %d hangs under span %d, which the trace does not hold", id, parent)
				}
			}
		})
	}
}

// TestManifestMatches holds BENCHMARK.json at the root of the repository to
// the workload and metric tables in this package.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, manifest.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, listed []entry, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if got := (metricDef{listed[i].Name, listed[i].Unit, listed[i].Better, listed[i].Bound}); got != d {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v here", kind, i, got, d)
			}
		}
	}
	compare("end-to-end", manifest.EndToEnd, endToEnd)
	compare("per-layer", manifest.PerLayer, perLayer)
}
