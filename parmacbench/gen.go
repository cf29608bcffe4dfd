package main

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/retrieval"
)

// corpusSeed fixes the corpus every run works on, the way a retrieval
// benchmark fixes SIFT1M: the Gaussian mixture, the indexed and training
// points, and the evaluation queries. --seed draws the traffic: the served
// queries, their arrival times and the held-out points writes add. So runs
// with different seeds serve different traffic against the same trained
// model, and on deterministic workloads every seed trains the same model.
const corpusSeed = 20190331

// The mixture is dataset.SIFTLike's: centres N(0, 1) per feature, spread
// 0.25, stored one byte per feature on a fixed grid.
const (
	mixtureSpread = 0.25
	gridLo        = -5.0
	gridHi        = 5.0
)

type mixture struct{ centres [][]float64 }

func newMixture(d, clusters int) mixture {
	rng := rand.New(rand.NewSource(corpusSeed))
	m := mixture{centres: make([][]float64, clusters)}
	for c := range m.centres {
		m.centres[c] = make([]float64, d)
		for j := range m.centres[c] {
			m.centres[c][j] = rng.NormFloat64()
		}
	}
	return m
}

// sample draws n byte-quantised points.
func (m mixture) sample(n int, rng *rand.Rand) *dataset.Dataset {
	d := len(m.centres[0])
	b := make([]uint8, n*d)
	scale := 255 / (gridHi - gridLo)
	for i := 0; i < n; i++ {
		c := m.centres[rng.Intn(len(m.centres))]
		for j, mu := range c {
			q := (mu + rng.NormFloat64()*mixtureSpread - gridLo) * scale
			b[i*d+j] = uint8(min(max(q, 0), 255) + 0.5)
		}
	}
	return dataset.FromBytes(n, d, b, gridLo, gridHi)
}

// writePool is the number of held-out points writes cycle through.
const writePool = 16384

// inputs are everything the program is given: the fixed corpus and the
// traffic drawn from --seed.
type inputs struct {
	base    *dataset.Dataset // indexed points; its first Train.N are the training set
	train   *dataset.Dataset
	queries *dataset.Dataset // served vector queries
	evalQ   *dataset.Dataset // evaluation queries of the corpus
	pool    *dataset.Dataset // held-out points for writes
	qvecs   [][]float64
	truth   [][]int // Euclidean top-50 of evalQ in train
}

func makeInputs(w workload, seed int64, workers int) *inputs {
	mix := newMixture(dims, clusters)
	corpus := rand.New(rand.NewSource(corpusSeed + 1))
	in := &inputs{base: mix.sample(max(w.Data.N, w.Train.N), corpus)}
	in.evalQ = mix.sample(evalQueries, corpus)
	traffic := rand.New(rand.NewSource(seed))
	in.queries = mix.sample(w.Data.Queries, traffic)
	in.pool = mix.sample(writePool, traffic)
	in.train = in.base
	if w.Train.N < in.base.N {
		in.train = in.base.Subset(seq(w.Train.N))
	}
	in.qvecs = make([][]float64, in.queries.N)
	for i := range in.qvecs {
		in.qvecs[i] = in.queries.Point(i, make([]float64, in.queries.D))
	}
	in.truth = retrieval.GroundTruthParallel(in.train, in.evalQ, 50, workers)
	return in
}
