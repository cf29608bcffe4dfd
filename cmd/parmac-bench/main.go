// parmac-bench regenerates the paper's tables and figures as text tables,
// and doubles as the machine-readable perf harness.
//
// Usage:
//
//	parmac-bench -exp fig10          # one experiment
//	parmac-bench -exp all            # everything (slow)
//	parmac-bench -list               # available experiment ids
//	parmac-bench -exp fig7 -quick    # reduced scale
//	parmac-bench -json -label pr4    # write BENCH_pr4.json (hot-path
//	                                 # micro-benches + Z-step core sweep)
//
// Each experiment id matches a table or figure of the paper (-list prints
// them), and each table's notes state its scale and departures. The -json
// mode records ns/op and allocs for every hot path plus a serial-vs-parallel
// Z-step sweep, so each perf-relevant PR can commit its trajectory point.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/experiments"
	"repro/internal/perf"
)

// gitRev best-effort resolves the current commit so BENCH_*.json files can be
// lined up against git history. Outside a git checkout it stays empty.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	exp := flag.String("exp", "", "experiment id (figN, tab1, tab-sift1b) or 'all'")
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list available experiments")
	jsonMode := flag.Bool("json", false, "run the perf harness and write BENCH_<label>.json")
	label := flag.String("label", "local", "label for the -json report file")
	outDir := flag.String("outdir", ".", "directory for the -json report file")
	flag.Parse()

	if *jsonMode {
		rep := perf.Collect(*label, *quick)
		rep.GitRev = gitRev()
		path, err := rep.Write(*outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, b := range rep.Benchmarks {
			fmt.Printf("%-34s %12.1f ns/op %6d allocs/op\n", b.Name, b.NsPerOp, b.AllocsPerOp)
		}
		for _, s := range rep.ZStepSweep {
			fmt.Printf("RunZStep workers=%-2d %16.0f ns/op  speedup %.2fx\n", s.Workers, s.NsPerOp, s.SpeedupVsSerial)
		}
		for _, s := range rep.WStepSweep {
			fmt.Printf("WStepFused workers=%-2d %14.0f ns/op  speedup %.2fx\n", s.Workers, s.NsPerOp, s.SpeedupVsSerial)
		}
		for _, s := range rep.RetrievalSweep {
			fmt.Printf("AllTopKHamming workers=%-2d %10.0f ns/op  speedup %.2fx\n", s.Workers, s.NsPerOp, s.SpeedupVsSerial)
		}
		for _, p := range rep.IndexSweep {
			fmt.Printf("index %-6s N=%-8d k=%-4d %12.0f ns/op  vs linear %.2fx\n",
				p.Index, p.N, p.K, p.NsPerOp, p.SpeedupVsLinear)
		}
		for _, sc := range rep.ServeScenarios {
			switch sc.Scenario {
			case "server":
				fmt.Printf("serve %-13s %-6s N=%-8d target %7.0f qps  p50/p90/p99 %6.2f/%6.2f/%6.2f ms  met(p99<%gms)=%v\n",
					sc.Scenario, sc.Index, sc.IndexN, sc.TargetQPS, sc.P50Ms, sc.P90Ms, sc.P99Ms, sc.P99Bound, sc.MetBound)
			default:
				fmt.Printf("serve %-13s %-6s N=%-8d %8.0f qps  p50/p90/p99 %6.2f/%6.2f/%6.2f ms  mean batch %.1f\n",
					sc.Scenario, sc.Index, sc.IndexN, sc.QPS, sc.P50Ms, sc.P90Ms, sc.P99Ms, sc.MeanBatch)
			}
		}
		fmt.Printf("report written to %s\n", path)
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed}
	if *exp == "all" {
		for _, e := range experiments.All() {
			if err := experiments.RunAndPrint(e.ID, cfg, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := experiments.RunAndPrint(*exp, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
