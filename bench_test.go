package parmac

// One benchmark per table/figure of the paper (each drives the same
// experiment code as cmd/parmac-bench, at reduced scale so `go test -bench .`
// stays tractable on one core), plus micro-benchmarks of the hot paths:
// the Z-step solvers, the circulating-submodel SGD passes, one full engine
// iteration, and the simulator/theory speedup evaluations.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/binauto"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/retrieval"
	"repro/internal/sim"
	"repro/internal/speedup"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		tabs := e.Run(experiments.RunConfig{Quick: true, Seed: 1})
		for _, t := range tabs {
			t.Fprint(io.Discard)
		}
	}
}

// BenchmarkFig03Schedule regenerates the P=4, M=12 W-step schedule (Fig. 3).
func BenchmarkFig03Schedule(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig04TheoryCurve regenerates the typical speedup curve (Fig. 4).
func BenchmarkFig04TheoryCurve(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig05TheoryGrid regenerates the speedup-parameter grid (Fig. 5).
func BenchmarkFig05TheoryGrid(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig07SIFT10KCurves regenerates the SIFT-10K learning curves (Fig. 7).
func BenchmarkFig07SIFT10KCurves(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig08CIFARCurves regenerates the CIFAR learning curves (Fig. 8).
func BenchmarkFig08CIFARCurves(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig09Shuffling regenerates the shuffling comparison (Fig. 9).
func BenchmarkFig09Shuffling(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Speedups regenerates the strong-scaling speedups (Fig. 10).
func BenchmarkFig10Speedups(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11SIFT1BCurves regenerates the SIFT-1B learning curves (Fig. 11).
func BenchmarkFig11SIFT1BCurves(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12RecallAtR regenerates the recall@R comparison (Fig. 12).
func BenchmarkFig12RecallAtR(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13CommSplit regenerates the nodes×procs split (Fig. 13).
func BenchmarkFig13CommSplit(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkTab01Systems regenerates the system-parameter table (Table 1).
func BenchmarkTab01Systems(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkTabSIFT1B regenerates the §8.4 recall/time table.
func BenchmarkTabSIFT1B(b *testing.B) { benchExperiment(b, "tab-sift1b") }

// ---------------------------------------------------------------------------
// micro-benchmarks of the hot paths
// ---------------------------------------------------------------------------

func benchModelAndData(b *testing.B, n, d, l int) (*binauto.Model, *dataset.Dataset, *retrieval.Codes) {
	b.Helper()
	ds := dataset.GISTLike(n, d, 8, 1)
	m, z, _ := binauto.RunMAC(ds, binauto.MACConfig{
		L: l, Mu0: 1e-3, MuFactor: 2, Iters: 2, SVMEpochs: 1, Seed: 1,
	})
	return m, ds, z
}

// BenchmarkZStepEnumerate measures the exact Gray-code Z solve per point
// (L=12: 4096 candidates).
func BenchmarkZStepEnumerate(b *testing.B) {
	m, ds, z := benchModelAndData(b, 64, 32, 12)
	s := binauto.NewZSolver(m, 0.5, binauto.ZEnumerate)
	buf := make([]float64, ds.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(ds.Point(i%ds.N, buf), z, i%ds.N)
	}
}

// BenchmarkZStepAlternate measures the relaxed+alternating Z solve per point
// at L=32.
func BenchmarkZStepAlternate(b *testing.B) {
	ds := dataset.GISTLike(64, 64, 8, 2)
	m, z, _ := binauto.RunMAC(ds, binauto.MACConfig{
		L: 32, Mu0: 1e-3, Iters: 1, SVMEpochs: 1, Seed: 2, ZMethod: binauto.ZAlternate,
	})
	s := binauto.NewZSolver(m, 0.5, binauto.ZAlternate)
	buf := make([]float64, ds.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(ds.Point(i%ds.N, buf), z, i%ds.N)
	}
}

// BenchmarkZStepEnumerateD128 measures the exact Gray-code solve at SIFT
// dimension (L=12, D=128), the regime where the Gram-incremental walk pays
// off most: O(L) per candidate instead of O(D).
func BenchmarkZStepEnumerateD128(b *testing.B) {
	ds := dataset.GISTLike(64, 128, 8, 7)
	m := perf.RandomBA(128, 12, 7)
	s := binauto.NewZSolver(m, 0.5, binauto.ZEnumerate)
	z := m.Encode(ds)
	buf := make([]float64, ds.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(ds.Point(i%ds.N, buf), z, i%ds.N)
	}
}

// BenchmarkZStepAlternateD128 measures the relaxed+alternating solve at SIFT
// dimension (L=32, D=128); flip candidates cost O(1) against the Gram matrix.
func BenchmarkZStepAlternateD128(b *testing.B) {
	ds := dataset.GISTLike(64, 128, 8, 8)
	m := perf.RandomBA(128, 32, 8)
	s := binauto.NewZSolver(m, 0.5, binauto.ZAlternate)
	z := m.Encode(ds)
	buf := make([]float64, ds.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(ds.Point(i%ds.N, buf), z, i%ds.N)
	}
}

// BenchmarkDecoderReconstruct measures packed-word f(z) reconstruction.
func BenchmarkDecoderReconstruct(b *testing.B) {
	m := perf.RandomBA(128, 32, 10)
	z := retrieval.NewCodes(256, 32)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < z.N; i++ {
		z.SetWord64(i, rng.Uint64()&0xFFFFFFFF)
	}
	dst := make([]float64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Dec.Reconstruct(z, i%z.N, dst)
	}
}

// BenchmarkRunZStep sweeps the full shard-local Z step over worker counts
// (the per-machine multicore knob); output is bit-identical across the sweep.
func BenchmarkRunZStep(b *testing.B) {
	ds := dataset.GISTLike(4000, 64, 8, 13)
	m := perf.RandomBA(64, 16, 13)
	init := m.Encode(ds)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				z := init.Clone()
				b.StartTimer()
				binauto.RunZStepParallel(m, ds, z, 0.5, binauto.ZAlternate, workers)
			}
		})
	}
}

// BenchmarkFitDecoder compares the dense exact decoder fit against the
// popcount-Gram WKernel on the same codes (N=800, L=16, D=64).
func BenchmarkFitDecoder(b *testing.B) {
	ds := dataset.GISTLike(800, 64, 8, 14)
	m := perf.RandomBA(64, 16, 14)
	z := retrieval.NewCodes(ds.N, 16)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < z.N; i++ {
		z.SetWord64(i, rng.Uint64()&0xFFFF)
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.FitDecoderExactDense(ds, z, 1e-4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("popcount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.FitDecoderExactParallel(ds, z, 1e-4, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrainWStep compares the serial per-bit W step against the fused
// multi-bit trainer on byte-quantised SIFT-like data (N=500, L=8, D=64).
func BenchmarkTrainWStep(b *testing.B) {
	ds := dataset.SIFTLike(500, 64, 8, 16)
	z := retrieval.NewCodes(ds.N, 8)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < z.N; i++ {
		z.SetWord64(i, rng.Uint64()&0xFF)
	}
	pristine := binauto.NewModel(64, 8, 1e-5)
	cfg := &binauto.MACConfig{L: 8, SVMLambda: 1e-5, SVMEpochs: 2, DecLambda: 1e-4}
	run := func(b *testing.B, step func(m *binauto.Model, rng *rand.Rand) error) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := pristine.Clone()
			wrng := rand.New(rand.NewSource(18))
			b.StartTimer()
			if err := step(m, wrng); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		run(b, func(m *binauto.Model, rng *rand.Rand) error {
			return binauto.TrainWStepSerial(m, ds, z, cfg, rng)
		})
	})
	b.Run("fused", func(b *testing.B) {
		run(b, func(m *binauto.Model, rng *rand.Rand) error {
			return binauto.TrainWStepFused(m, ds, z, cfg, rng, 1)
		})
	})
}

// BenchmarkAllTopKHamming measures the batched query-parallel Hamming scan
// (N=20000, Q=8, k=50) at worker counts 1 and 4.
func BenchmarkAllTopKHamming(b *testing.B) {
	base := retrieval.NewCodes(20000, 64)
	queries := retrieval.NewCodes(8, 64)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < base.N; i++ {
		base.SetWord64(i, rng.Uint64())
	}
	for i := 0; i < queries.N; i++ {
		queries.SetWord64(i, rng.Uint64())
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				retrieval.AllTopKHamming(base, queries, 50, workers)
			}
		})
	}
}

// BenchmarkEngineIteration measures one full ParMAC W+Z iteration (P=4,
// L=8 BA on 800 points).
func BenchmarkEngineIteration(b *testing.B) {
	ds := dataset.GISTLike(800, 16, 8, 3)
	shards := dataset.ShardIndices(ds.N, 4, nil)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: 8, Mu0: 1e-3, Seed: 3,
	})
	eng := core.New(prob, core.Config{P: 4, Epochs: 1, Seed: 3})
	defer eng.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Iterate()
	}
}

// benchVisit measures one circulating-submodel visit (core.Submodel.TrainOn)
// of the ParMAC BA at the benchmark's training shape: D=128, L=32, one
// 8000-point float shard and a shuffled order. Each visit is a submodel's
// first of an iteration, so it includes the η0 calibration on the leading
// 1000 points. sub picks the submodel from the problem's L encoders and L
// decoder groups. Reported per point in ns/pt.
func benchVisit(b *testing.B, sub func(l int) int) {
	const n, d, l = 8000, 128, 32
	ds := dataset.GISTLike(n, d, 16, 7)
	shards := dataset.ShardIndices(n, 1, nil)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{L: l, Mu0: 1e-4, Seed: 7})
	sm := prob.Submodels()[sub(l)]
	shard := prob.Shard(0)
	order := rand.New(rand.NewSource(7)).Perm(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.OnIterationStart(0) // re-arm η0 calibration
		sm.TrainOn(shard, order)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pt")
}

// BenchmarkParMACEncoderVisit measures one bit-SVM visit (t_r^W of §5 for an
// encoder submodel).
func BenchmarkParMACEncoderVisit(b *testing.B) { benchVisit(b, func(int) int { return 0 }) }

// BenchmarkParMACDecoderVisit measures one decoder-group visit (4 of the 128
// output dimensions).
func BenchmarkParMACDecoderVisit(b *testing.B) { benchVisit(b, func(l int) int { return l }) }

// BenchmarkSimIteration measures the discrete-event simulator at Fig. 10's
// SIFT-1B scale (P=128, M=128).
func BenchmarkSimIteration(b *testing.B) {
	cfg := sim.Config{P: 128, N: 100000000, M: 128, Epochs: 2, TWr: 1, TWc: 1e4, TZr: 40, Seed: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg)
	}
}

// BenchmarkTheoryCurve measures the closed-form S(P) over a 2000-point grid.
func BenchmarkTheoryCurve(b *testing.B) {
	p := speedup.Params{N: 1e6, M: 512, E: 1, TWr: 1, TZr: 5, TWc: 1e3}
	for i := 0; i < b.N; i++ {
		for q := 1; q <= 2000; q++ {
			_ = p.Speedup(float64(q))
		}
	}
}

// BenchmarkTrainBinaryAutoencoder measures the public one-call API end to
// end at small scale.
func BenchmarkTrainBinaryAutoencoder(b *testing.B) {
	ds := SyntheticSIFT(400, 16, 8, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainBinaryAutoencoder(ds, BAOptions{
			Bits: 8, Machines: 2, Epochs: 1, Iterations: 3, Seed: 5,
		})
	}
}

// BenchmarkAblationZMethod regenerates the exact-vs-alternating Z ablation.
func BenchmarkAblationZMethod(b *testing.B) { benchExperiment(b, "abl-z") }

// BenchmarkAblationDecoderGroups regenerates the §5.4 grouping ablation.
func BenchmarkAblationDecoderGroups(b *testing.B) { benchExperiment(b, "abl-groups") }

// BenchmarkAblationWithinPasses regenerates the §4.2 two-round W-step ablation.
func BenchmarkAblationWithinPasses(b *testing.B) { benchExperiment(b, "abl-within") }
