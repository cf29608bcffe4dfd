package binauto

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
)

// This file is the fused W step: the production replacement for
// TrainWStepSerial (which is kept as the bit-for-bit reference). The serial
// W step makes L+... full passes over the data — one per bit-SVM per epoch,
// plus the η0 calibration trials — reading every point L times per pass
// round. The fused trainer inverts the loop nest: one pts.Point read per
// point visit feeds the updates of every bit, the η0 ladder is evaluated for
// every bit and candidate in lockstep (svm.AutoTuneAll), and the per-step SVM
// update uses svm.StepFused (scale and margin dot in a single walk over w).
//
// Equivalence contract: each bit's sequence of (sample, label, η) updates is
// exactly the serial one, so the trained encoders are bit-for-bit identical
// to TrainWStepSerial whenever the per-bit sample orders coincide — always
// for the calibration passes (deterministic leading sample) and for training
// passes when cfg.Shuffle is false. With cfg.Shuffle set, the fused step
// draws ONE permutation per epoch shared by every bit (the serial reference
// draws a fresh permutation per bit per epoch); both are valid stochastic
// orders, but the realisations differ.
//
// Parallelism: bits are split into contiguous groups over cfg-many
// goroutines, each with its own point buffer and scratch; bits never share
// mutable state, so the result is bit-identical to the fused serial pass for
// any worker count. The decoder fit runs on the popcount-Gram WKernel with
// the same worker budget.

// TrainWStepFused performs the serial W step of Fig. 1 — auto-tune and train
// the L per-bit SVMs, then refit the decoder exactly — as a fused single
// pass per epoch over the data, with up to workers goroutines (0/1 serial,
// < 0 every core) over bit groups.
func TrainWStepFused(m *Model, pts sgd.Points, z *retrieval.Codes, cfg *MACConfig, rng *rand.Rand, workers int) error {
	n := pts.NumPoints()
	l := m.L()
	// Orders are drawn up front on the caller's goroutine: one per epoch,
	// shared by every bit, so rng consumption is independent of the worker
	// count and the bit-group fan-out sees only read-only order slices.
	orders := make([][]int, cfg.SVMEpochs)
	for ep := range orders {
		orders[ep] = sgd.Order(n, cfg.Shuffle, rng)
	}
	workers = core.Cores(workers)
	bitWorkers := workers
	if bitWorkers > l {
		bitWorkers = l
	}
	core.ParallelChunks(l, bitWorkers, func(_, lo, hi int) {
		buf := make([]float64, m.D())
		svm.AutoTuneAll(m.Enc[lo:hi], pts, func(k, i int) float64 {
			if z.Bit(i, lo+k) {
				return 1
			}
			return -1
		})
		for _, order := range orders {
			trainPassFusedBits(m, pts, z, lo, hi, order, buf)
		}
	})
	return m.FitDecoderExactParallel(pts, z, cfg.DecLambda, workers)
}

// trainPassFusedBits runs one SGD pass of bits [lo, hi) over the given
// order: each point is read once and fed to every bit's StepFused with that
// bit's own schedule — the same (sample, label, η) sequence per bit as the
// serial per-bit TrainPass.
func trainPassFusedBits(m *Model, pts sgd.Points, z *retrieval.Codes, lo, hi int, order []int, buf []float64) {
	for _, i := range order {
		x := pts.Point(i, buf)
		for b := lo; b < hi; b++ {
			y := -1.0
			if z.Bit(i, b) {
				y = 1
			}
			e := m.Enc[b]
			e.StepFused(x, y, e.Sched.Next())
		}
	}
}
