package binauto

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
)

// The model-digest goldens pin the ParMAC W-step visit kernel bit for bit:
// each case trains a small problem and hashes every parameter of the
// assembled model. A kernel rewrite (decoder visits, encoder visits, η0
// calibration) must leave every digest unchanged; a digest that moves means
// the rewrite changed the trained model, not just its speed.

// modelDigest is an FNV-1a hash over every parameter of m, in the order
// encoders (weights, bias), decoder weights, decoder biases. A non-finite
// parameter fails the test: a diverged model would pin nothing.
func modelDigest(t *testing.T, m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite model parameter %v", v)
		}
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
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

// trainVisits is an engine-free ParMAC schedule with a deterministic
// shuffle: every iteration, each submodel visits every shard in turn with a
// fresh permutation drawn from one seeded rng, then (when zstep is set) every
// shard runs its Z step on the trained model. Without the engine's token
// fabric nothing depends on goroutine timing, so shuffled runs are exactly
// reproducible.
func trainVisits(p *ParMACProblem, iters int, seed int64, zstep bool) {
	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < iters; it++ {
		p.OnIterationStart(it)
		subs := p.Submodels()
		for _, sm := range subs {
			for s := 0; s < p.NumShards(); s++ {
				sm.TrainOn(p.Shard(s), rng.Perm(p.Shard(s).NumPoints()))
			}
		}
		if zstep {
			for s := 0; s < p.NumShards(); s++ {
				p.ZStep(s, subs)
			}
		}
	}
}

func TestParMACModelDigestGoldens(t *testing.T) {
	float := func(n, d int, seed int64) *dataset.Dataset { return dataset.GISTLike(n, d, 6, seed) }
	bytes := func(n, d int, seed int64) *dataset.Dataset { return dataset.SIFTLike(n, d, 6, seed) }
	cases := []struct {
		name   string
		ds     *dataset.Dataset
		shards int
		cfg    ParMACConfig
		engine bool // run through core.New instead of trainVisits
		want   uint64
	}{
		{name: "float-shuffle", ds: float(600, 24, 21), shards: 3,
			cfg: ParMACConfig{L: 8}, want: 0x3c0565674ca2795d},
		{name: "float-declambda", ds: float(600, 24, 22), shards: 3,
			cfg: ParMACConfig{L: 8, DecLambda: 1e-2}, want: 0xfbaf562976fcb095},
		{name: "float-one-group", ds: float(600, 24, 23), shards: 3,
			cfg: ParMACConfig{L: 8, DecoderGroups: 1}, want: 0xacbb9dec5acbc136},
		{name: "float-large-shards", ds: float(2600, 16, 24), shards: 2,
			cfg: ParMACConfig{L: 6, DecoderGroups: 4, DecLambda: 1e-3}, want: 0x052bb32a29d52487},
		{name: "bytes-shuffle", ds: bytes(600, 24, 25), shards: 3,
			cfg: ParMACConfig{L: 8}, want: 0xd7236a6526484416},
		{name: "bytes-declambda-one-group", ds: bytes(600, 24, 26), shards: 2,
			cfg: ParMACConfig{L: 8, DecLambda: 1e-2, DecoderGroups: 1}, want: 0xa44369282bc6bbe7},
		{name: "multiword-L70", ds: float(160, 72, 27), shards: 2,
			cfg: ParMACConfig{L: 70}, want: 0x85421507c695583a},
		{name: "multiword-L70-declambda-groups3", ds: bytes(160, 72, 28), shards: 2,
			cfg: ParMACConfig{L: 70, DecLambda: 1e-2, DecoderGroups: 3}, want: 0xe7d4203b0ece8602},
		{name: "engine-P1-shuffle", ds: float(500, 16, 29), shards: 1,
			cfg: ParMACConfig{L: 6}, engine: true, want: 0xf78aa6e29768b397},
		{name: "engine-P3-declambda", ds: bytes(600, 16, 30), shards: 3,
			cfg: ParMACConfig{L: 6, DecLambda: 1e-2}, engine: true, want: 0xc95b80175deceb45},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Mu0, cfg.MuFactor, cfg.SVMLambda, cfg.Seed = 1e-3, 2, 1e-4, 5
			p := NewParMACProblem(tc.ds, dataset.ShuffledShardIndices(tc.ds.N, tc.shards, nil, 5), cfg)
			if tc.engine {
				eng := core.New(p, core.Config{P: tc.shards, Epochs: 2, Shuffle: tc.shards == 1, Seed: 5})
				eng.Run(2)
				eng.Shutdown()
			} else {
				trainVisits(p, 2, 5, cfg.L <= 64)
			}
			if got := modelDigest(t, p.AssembleModel()); got != tc.want {
				t.Fatalf("model digest %#016x, golden %#016x", got, tc.want)
			}
		})
	}
}

// The oracles below are the ParMAC visits as they were before the
// cache-lean kernel: a decoder visit copied every point's whole row and
// expanded its code into a 0/1 float vector, updated dimension by dimension
// over all L rows, and searched η0 one candidate at a time; an encoder visit
// went through the reference svm.Linear.TrainPass. The production visits must
// match them bit for bit.

func denseDecoderStep(d *decoderSub, z, x []float64, eta float64) {
	l := d.w.Rows
	for j, dim := range d.dims {
		pred := d.c[j]
		for row := 0; row < l; row++ {
			pred += z[row] * d.w.At(row, j)
		}
		err := pred - x[dim]
		shrink := 1 - eta*d.lambda
		for row := 0; row < l; row++ {
			d.w.Set(row, j, d.w.At(row, j)*shrink-eta*err*z[row])
		}
		d.c[j] -= eta * err
	}
}

func denseDecoderLoss(d *decoderSub, sh *Shard, idx []int) float64 {
	z := make([]float64, d.w.Rows)
	xbuf := make([]float64, sh.X.ds.D)
	var total float64
	for _, i := range idx {
		CodesPoints{sh.Z}.Point(i, z)
		x := sh.X.Point(i, xbuf)
		for j, dim := range d.dims {
			pred := d.c[j]
			for row := 0; row < d.w.Rows; row++ {
				pred += z[row] * d.w.At(row, j)
			}
			e := pred - x[dim]
			total += 0.5 * e * e
		}
	}
	return total / float64(len(idx))
}

func denseDecoderVisit(d *decoderSub, sh *Shard, order []int) {
	z := make([]float64, d.w.Rows)
	xbuf := make([]float64, sh.X.ds.D)
	if !d.tuned {
		sample := make([]int, sgd.TuningSampleSize(sh.NumPoints()))
		copy(sample, order)
		d.sched.Eta0 = sgd.TuneEta0(1e-5, 4, 4, func(eta0 float64) float64 {
			trial := d.Clone().(*decoderSub)
			trial.sched = sgd.NewSchedule(eta0, d.lambda)
			for _, i := range sample {
				CodesPoints{sh.Z}.Point(i, z)
				denseDecoderStep(trial, z, sh.X.Point(i, xbuf), trial.sched.Next())
			}
			return denseDecoderLoss(trial, sh, sample)
		})
		d.sched.Lambda = d.lambda
		d.sched.SetSteps(0)
		d.tuned = true
	}
	for _, i := range order {
		CodesPoints{sh.Z}.Point(i, z)
		denseDecoderStep(d, z, sh.X.Point(i, xbuf), d.sched.Next())
	}
}

func referenceEncoderVisit(e *encoderSub, sh *Shard, order []int) {
	label := bitLabel(sh.Z, e.bit)
	if !e.tuned {
		e.svm.AutoTune(sh.X, label)
		e.tuned = true
	}
	e.svm.TrainPass(sh.X, label, order, make([]float64, sh.X.ds.D))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestParMACVisitsMatchDenseOracles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ds    *dataset.Dataset
		cfg   ParMACConfig
		iters int
	}{
		{"float-L8", dataset.GISTLike(1400, 24, 5, 31), ParMACConfig{L: 8}, 2},
		{"bytes-L8-declambda", dataset.SIFTLike(500, 24, 5, 32), ParMACConfig{L: 8, DecLambda: 1e-2}, 2},
		{"float-L8-one-group-declambda", dataset.GISTLike(500, 24, 5, 33), ParMACConfig{L: 8, DecoderGroups: 1, DecLambda: 1e-3}, 2},
		{"bytes-L70-groups3", dataset.SIFTLike(160, 72, 5, 34), ParMACConfig{L: 70, DecoderGroups: 3, DecLambda: 1e-2}, 1},
		{"float-L130", dataset.GISTLike(100, 132, 5, 35), ParMACConfig{L: 130, DecoderGroups: 7}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			cfg := tc.cfg
			cfg.SVMLambda, cfg.Seed = 1e-4, 3
			cfg.InitZ = retrieval.NewCodes(tc.ds.N, cfg.L) // random codes: the visits need no tPCA
			for i := range cfg.InitZ.Data {
				cfg.InitZ.Data[i] = rng.Uint64()
			}
			if tail := cfg.L % 64; tail != 0 {
				for i := 0; i < tc.ds.N; i++ {
					code := cfg.InitZ.Code(i)
					code[len(code)-1] &= 1<<tail - 1
				}
			}
			p := NewParMACProblem(tc.ds, dataset.ShuffledShardIndices(tc.ds.N, 2, nil, 3), cfg)
			for it := 0; it < tc.iters; it++ {
				for _, sm := range p.Submodels() {
					for s := 0; s < p.NumShards(); s++ {
						sh := p.shards[s]
						order := rng.Perm(sh.NumPoints())
						switch sub := sm.(type) {
						case *decoderSub:
							want := sub.Clone().(*decoderSub)
							denseDecoderVisit(want, sh, order)
							sub.TrainOn(sh, order)
							if !sameFloats(sub.w.Data, want.w.Data) || !sameFloats(sub.c, want.c) ||
								*sub.sched != *want.sched {
								t.Fatalf("iter %d decoder %d shard %d: visit differs from the dense oracle", it, sub.id, s)
							}
						case *encoderSub:
							want := sub.Clone().(*encoderSub)
							referenceEncoderVisit(want, sh, order)
							sub.TrainOn(sh, order)
							if !sameFloats(sub.svm.W, want.svm.W) || sub.svm.B != want.svm.B ||
								*sub.svm.Sched != *want.svm.Sched {
								t.Fatalf("iter %d encoder %d shard %d: visit differs from the reference", it, sub.bit, s)
							}
						}
					}
				}
				p.OnIterationStart(it + 1) // re-arms η0 tuning like the engine
			}
		})
	}
}
