// Command parmacbench is the repository benchmark: it trains binary
// autoencoders with ParMAC and serves retrieval with them, on four fixed
// workloads, and prints every metric by name and unit with a correctness
// verdict as the last line of standard output. See README.md.
//
//	go run . --workload train-inproc --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name from workloads.json")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 24, "measured time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1

	ws, err := loadWorkloads()
	if err != nil {
		fail(err)
	}
	w, err := findWorkload(ws, o.workload)
	if err != nil {
		fail(err)
	}
	// One load-generating process on at most two cores: P = 2 machines with
	// one Z core each, and the server's scans.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	printJSON(map[string]any{"stamp": stamp(o)})
	res, rep, err := run(w, o)
	if err != nil {
		fail(err)
	}
	if rep != nil {
		printJSON(rep)
	}
	printJSON(res)
}

func stamp(o options) map[string]any {
	rev := os.Getenv("PARMACBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"git_rev": rev, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "seed": o.seed, "workload": o.workload,
		"seconds": o.seconds, "trace": o.trace,
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "parmacbench:", err)
	os.Exit(1)
}
