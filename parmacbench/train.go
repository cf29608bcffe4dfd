package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/binauto"
	"repro/internal/cluster"
	"repro/internal/cluster/tcp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
)

// trainer is one trained-from-scratch ParMAC deployment: the coordinator's
// engine and problem plus whatever fabric it runs on.
type trainer struct {
	eng   *core.Engine
	prob  *binauto.ParMACProblem // the coordinator's problem
	close func() error
}

// programSeed is the trainer's own seed (parmac-train's -seed default): it
// drives shard assignment, tPCA initialisation and shuffling. The workload
// seed varies only the inputs, so runs differ by what the program is given.
const programSeed = 1

// buildProblem is parmac-train's problem construction: shuffled shards,
// alternating Z, one Z core per machine.
func buildProblem(tc trainConfig, ds *dataset.Dataset, seed int64) *binauto.ParMACProblem {
	shards := dataset.ShuffledShardIndices(ds.N, machines, nil, seed)
	return binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: tc.L, Mu0: 1e-4, MuFactor: 2, ZMethod: binauto.ZAlternate, Seed: seed, Parallel: 1,
	})
}

func engineConfig(tc trainConfig, seed int64) core.Config {
	return core.Config{P: machines, Epochs: tc.Epochs, Shuffle: true, Seed: seed}
}

func wrapProblem(p core.Problem, traced bool) core.Problem {
	if traced {
		return &tracedProblem{inner: p}
	}
	return p
}

// newTrainer builds the problem(s) and engine. initS is the time spent in
// binauto problem construction (tPCA code initialisation) on the
// coordinator.
func newTrainer(tc trainConfig, ds *dataset.Dataset, seed int64, traced bool) (s *trainer, initS time.Duration, err error) {
	t0 := time.Now()
	prob := buildProblem(tc, ds, seed)
	initS = time.Since(t0)
	switch tc.Transport {
	case "inproc":
		eng := core.New(wrapProblem(prob, traced), engineConfig(tc, seed))
		return &trainer{eng: eng, prob: prob, close: func() error { eng.Shutdown(); return nil }}, initS, nil
	case "tcp":
		s, err := newTCPTrainer(tc, ds, seed, prob, traced)
		return s, initS, err
	}
	return nil, 0, fmt.Errorf("unknown transport %q", tc.Transport)
}

// newTCPTrainer runs the deployment shape in one process: a loopback hub,
// one dialled endpoint per rank, and a RunWorker goroutine per machine that
// owns its own Problem, so every hop is gob-encoded.
func newTCPTrainer(tc trainConfig, ds *dataset.Dataset, seed int64, prob *binauto.ParMACProblem, traced bool) (*trainer, error) {
	hub, err := tcp.NewHub("127.0.0.1:0", machines+1)
	if err != nil {
		return nil, err
	}
	// Dial blocks until every rank has joined, so all ranks dial at once.
	comms := make([]*cluster.Comm, machines+1)
	errs := make([]error, machines+1)
	var dial sync.WaitGroup
	for r := range comms {
		dial.Add(1)
		go func() {
			defer dial.Done()
			ep, err := tcp.Dial(hub.Addr(), r)
			if err != nil {
				errs[r] = err
				return
			}
			var e cluster.Endpoint = ep
			if traced {
				e = &tracedEndpoint{inner: ep}
			}
			comms[r] = cluster.NewComm(e)
		}()
	}
	dial.Wait()
	for _, err := range errs {
		if err != nil {
			hub.Close()
			return nil, err
		}
	}
	var workers sync.WaitGroup
	for r := 0; r < machines; r++ {
		wp := buildProblem(tc, ds, seed)
		workers.Add(1)
		go func() {
			defer workers.Done()
			core.RunWorker(comms[r], wrapProblem(wp, traced), r, core.WorkerOptions{Seed: core.WorkerSeed(seed, r)})
			comms[r].Close()
		}()
	}
	coord := comms[machines]
	eng := core.NewDistributed(wrapProblem(prob, traced), engineConfig(tc, seed), coord)
	closeFn := func() error {
		eng.Shutdown()
		coord.Close()
		err := hub.Wait(30 * time.Second)
		workers.Wait()
		hub.Close()
		return err
	}
	return &trainer{eng: eng, prob: prob, close: closeFn}, nil
}

// trainResult is one training run: set-up, then a fixed iteration count.
type trainResult struct {
	setup, init time.Duration
	iters       []time.Duration
	total       time.Duration
	steal       float64 // steal share over the iterations
	results     []core.IterationResult
	model       *binauto.Model
	eba         float64
	digest      uint64
}

// trainOnce builds a trainer and runs tc.Iters iterations. Set-up covers
// problem build and engine start (and, over TCP, the fabric rendezvous).
func trainOnce(tc trainConfig, ds *dataset.Dataset, seed int64, rec *recorder, parent int64) (*trainResult, error) {
	traced := rec != nil
	t0 := time.Now()
	setupSpan := rec.open("bench.train_setup", parent, true)
	s, initS, err := newTrainer(tc, ds, seed, traced)
	setupSpan.close(0)
	if err != nil {
		return nil, err
	}
	out := &trainResult{setup: time.Since(t0), init: initS}
	t1 := time.Now()
	steal := openSteal()
	for it := 0; it < tc.Iters; it++ {
		sp := rec.open("core.iterate", parent, true)
		ti := time.Now()
		res := s.eng.Iterate()
		out.iters = append(out.iters, time.Since(ti))
		sp.close(int64(it))
		out.results = append(out.results, res)
	}
	out.total = time.Since(t1)
	out.steal = steal.share()
	out.model = s.prob.AssembleModel()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shut down %s training: %w", tc.Transport, err)
	}
	out.eba = out.model.EBA(ds)
	out.digest = modelDigest(out.model)
	return out, nil
}

// modelDigest hashes every parameter of the model bit for bit.
func modelDigest(m *binauto.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, e := range m.Enc {
		for _, w := range e.W {
			put(w)
		}
		put(e.B)
	}
	for _, w := range m.Dec.W.Data {
		put(w)
	}
	for _, c := range m.Dec.C {
		put(c)
	}
	return h.Sum64()
}

// precisionAt50 is parmac-train's retrieval score: K = k = 50 Hamming
// neighbours of held-out queries against their 50 Euclidean neighbours.
func precisionAt50(m *binauto.Model, base, queries *dataset.Dataset, truth [][]int, workers int) float64 {
	bc := m.EncodeParallel(base, workers)
	qc := m.EncodeParallel(queries, workers)
	return retrieval.Precision(truth, retrieval.AllTopKHamming(bc, qc, 50, workers))
}
