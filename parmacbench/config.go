package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// Numbers shared by every workload.
const (
	dims        = 128 // SIFT-like features
	clusters    = 16  // mixture components
	machines    = 2   // P: one machine per core of the 2-core box the benchmark was sized on
	evalQueries = 100 // precision_at_50 queries
	topK        = 10  // neighbours per served query
	p99Limit    = 50 * time.Millisecond
	// Set-ups per untraced run, reported as their median; on serving
	// workloads each trains a model, so they are also the training runs.
	setups = 5

	writeBatch = 256                    // points per streaming MIH write
	writeEvery = 100 * time.Millisecond // write schedule beside the fixed-rate reads

	// Rounds of light rate, heavy rate and offline burst per pass.
	rounds = 8
)

// workloads.json holds the numbers that differ between workloads: shapes,
// arrival rates, the rate ladder and the output-quality bounds.
// BENCHMARK.json names the workloads and metrics; this file sizes them.
//
//go:embed workloads.json
var workloadsJSON []byte

type workload struct {
	Name  string      `json:"name"`
	Data  dataConfig  `json:"data"`
	Train trainConfig `json:"train"`
	Serve serveConfig `json:"serve"`
}

type dataConfig struct {
	N       int `json:"n"` // indexed base points; the training set is their first Train.N
	Queries int `json:"queries"`
}

type trainConfig struct {
	Transport string `json:"transport"` // "inproc" (core.New) or "tcp" (core.NewDistributed)
	N         int    `json:"n"`         // training points: the first N of the base set
	L         int    `json:"l"`
	Epochs    int    `json:"epochs"`
	Iters     int    `json:"iters"`
	// Share is the fraction of --seconds training workloads spend repeating
	// training runs. Serving workloads have none: they train inside set-up.
	Share float64 `json:"share"`

	EBACeiling     float64 `json:"eba_ceiling"`
	PrecisionFloor float64 `json:"precision_floor"`
}

// inSetup reports whether the model is trained as part of set-up: each
// set-up is then one training run plus encode and index build.
func (tc trainConfig) inSetup() bool { return tc.Share == 0 }

// deterministic reports whether the traced run must reproduce the untraced
// model. TCP training is not deterministic (shuffle order follows arrival
// order), so there the digests are reported, not checked.
func (tc trainConfig) deterministic() bool { return tc.Transport == "inproc" }

type serveConfig struct {
	Index     string    `json:"index"` // "linear" or "mih"
	LightQPS  float64   `json:"light_qps"`
	HeavyQPS  float64   `json:"heavy_qps"`
	LadderQPS []float64 `json:"ladder_qps"`
}

func loadWorkloads() ([]workload, error) {
	var c struct {
		Workloads []workload `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return c.Workloads, nil
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
