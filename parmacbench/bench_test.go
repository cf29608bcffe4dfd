package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks a workload to a few seconds while keeping its shape: the
// same transport, index kind and write mode.
func tiny(w workload) workload {
	// Shards of 1000 points keep one TrainOn slower than the coordinator's
	// token injection, so in-process runs usually repeat and the traced
	// run's model-identity check is exercised.
	w.Data = dataConfig{N: 3000, Queries: 200}
	w.Train.N = 2000
	w.Train.L = 8
	w.Train.Iters = 2
	w.Train.Epochs = min(w.Train.Epochs, 2)
	w.Train.EBACeiling = 1e12
	w.Train.PrecisionFloor = 0
	w.Serve.LightQPS, w.Serve.HeavyQPS = 100, 200
	w.Serve.LadderQPS = []float64{200, 400}
	return w
}

func TestEveryWorkloadTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.json sizes %d", len(bf.Workloads), len(ws))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	for _, bw := range bf.Workloads {
		w, err := findWorkload(ws, bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			res, _, err := run(w, options{workload: w.Name, seed: 3, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range bf.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bf.EndToEnd))
			}

			res, rep, err := run(w, options{workload: w.Name, seed: 3, seconds: 1, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range bf.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bf.PerLayer))
			}
			if v := res.Metrics["trace.nesting_violations"].Value; v != 0 {
				t.Errorf("%v spans lie outside their parent", v)
			}
			for _, name := range []string{"trace.overhead_iter_frac", "trace.overhead_offline_frac"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("tracing overhead %s not reported", name)
				}
			}
			if res.Metrics["binauto.train_on.visits"].Value == 0 || res.Metrics["retrieval.search_batch.calls"].Value == 0 {
				t.Errorf("traced layers recorded nothing: %+v", res.Metrics)
			}
			if _, ok := rep["section5"]; !ok {
				t.Errorf("no §5 block in the traced report")
			}
		})
	}
}

func TestNestingViolations(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.iterate", Start: 10, End: 100},
		{ID: 2, Parent: 1, Name: "binauto.train_on", Start: 20, End: 90},
		{ID: 3, Parent: 1, Name: "binauto.zstep", Start: 95, End: 120},
		{ID: 4, Parent: 1, Name: "cluster.next", Start: 95, End: 300},
	}
	if got := nestingViolations(spans); got != 1 {
		t.Fatalf("nestingViolations = %d, want 1 (the Z step ending after its iteration)", got)
	}
	ix := indexSpans(spans)
	if c := ix.clipped(spans[3]); c.End != 100 {
		t.Fatalf("fabric wait clipped to %v, want the iteration's end 100", c.End)
	}
}
