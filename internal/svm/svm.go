// Package svm implements the hash-function submodels of the binary
// autoencoder: linear SVMs trained by SGD on the hinge loss (the per-bit
// encoder submodels of §3.1) and the RBF-network kernel expansion used for
// the nonlinear hash function of §8.4. Training follows Bottou's SGD with the
// η0 auto-calibration pass the paper describes in §8.1.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// Linear is a linear SVM y = sign(w·x + b) with L2 regularisation λ/2·‖w‖².
// It carries its own SGD schedule so a circulating ParMAC submodel continues
// its learning-rate decay across machines.
type Linear struct {
	W      []float64
	B      float64
	Lambda float64
	Sched  *sgd.Schedule
}

// NewLinear creates a zero-initialised SVM for d-dimensional inputs.
func NewLinear(d int, lambda float64) *Linear {
	return &Linear{W: make([]float64, d), Lambda: lambda, Sched: sgd.NewSchedule(1e-2, lambda)}
}

// Margin returns w·x + b.
func (m *Linear) Margin(x []float64) float64 { return vec.Dot(m.W, x) + m.B }

// Predict returns the binary decision Margin(x) >= 0, the bit convention of
// the BA encoder h(x) = step(Ax).
func (m *Linear) Predict(x []float64) bool { return m.Margin(x) >= 0 }

// Clone returns a deep copy (including schedule state), used for the
// redundant per-machine submodel copies that ParMAC's fault tolerance relies
// on (§4.3).
func (m *Linear) Clone() *Linear {
	c := &Linear{W: vec.Clone(m.W), B: m.B, Lambda: m.Lambda}
	s := *m.Sched
	c.Sched = &s
	return c
}

// Bytes returns the serialised parameter size, used by the communication
// accounting (t_c^W is per-submodel in §5.1).
func (m *Linear) Bytes() int { return 8 * (len(m.W) + 1) }

// Step performs one SGD update with learning rate eta on sample (x, y),
// y ∈ {-1,+1}: regularise w, and add η·y·x when the margin is violated.
func (m *Linear) Step(x []float64, y, eta float64) {
	vec.Scale(1-eta*m.Lambda, m.W)
	if y*m.Margin(x) < 1 {
		vec.Axpy(eta*y, x, m.W)
		m.B += eta * y
	}
}

// StepFused performs the same SGD update as Step, bit for bit, in fewer
// memory passes over w: the regularisation scaling and the margin dot product
// fuse into one walk (each product reads the just-scaled, just-rounded
// weight, exactly the value Scale would have stored, and the partial sums
// follow vec.Dot's four-accumulator order), so only a violated margin pays a
// second pass for the Axpy. This is the inner statement of the fused
// multi-bit W step, where w stays hot in cache while x is shared by all bits.
func (m *Linear) StepFused(x []float64, y, eta float64) {
	w := m.W
	if len(x) != len(w) {
		panic(fmt.Sprintf("svm: StepFused length mismatch %d vs %d", len(x), len(w)))
	}
	x = x[:len(w)] // proves len(x) == len(w): eliminates the x[i] bounds check
	c := 1 - eta*m.Lambda
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		w0 := w[i] * c
		w1 := w[i+1] * c
		w2 := w[i+2] * c
		w3 := w[i+3] * c
		w[i], w[i+1], w[i+2], w[i+3] = w0, w1, w2, w3
		s0 += w0 * x[i]
		s1 += w1 * x[i+1]
		s2 += w2 * x[i+2]
		s3 += w3 * x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(w); i++ {
		w[i] *= c
		s += w[i] * x[i]
	}
	if y*(s+m.B) < 1 {
		vec.Axpy(eta*y, x, w)
		m.B += eta * y
	}
}

// TrainPass runs one stochastic pass over the given sample order, advancing
// the carried schedule. label(i) must return ±1 for point order[k]=i. It
// calls Step, the reference update; StepFused is the faster equivalent.
func (m *Linear) TrainPass(pts sgd.Points, label func(i int) float64, order []int, buf []float64) {
	for _, i := range order {
		x := pts.Point(i, buf)
		m.Step(x, label(i), m.Sched.Next())
	}
}

// AvgLoss returns the mean regularised hinge loss over the points listed in
// idx (all points when idx == nil).
func (m *Linear) AvgLoss(pts sgd.Points, label func(i int) float64, idx []int) float64 {
	n := pts.NumPoints()
	if idx == nil {
		idx = sgd.Order(n, false, nil)
	}
	if len(idx) == 0 {
		return 0
	}
	buf := make([]float64, len(m.W))
	var loss float64
	for _, i := range idx {
		x := pts.Point(i, buf)
		h := 1 - label(i)*m.Margin(x)
		if h > 0 {
			loss += h
		}
	}
	return loss/float64(len(idx)) + 0.5*m.Lambda*vec.SqNorm(m.W)
}

// The η0 calibration range of AutoTune (paper §8.1), searched as the ladder
// lo, lo·factor, …, up to hi.
const (
	tuneEta0Lo     = 1e-4
	tuneEta0Hi     = 16
	tuneEta0Factor = 4
)

// AutoTune calibrates the schedule's η0 by trial passes over the first
// min(n,1000) points (paper §8.1), leaving the model parameters untouched.
func (m *Linear) AutoTune(pts sgd.Points, label func(i int) float64) {
	AutoTuneAll([]*Linear{m}, pts, func(_, i int) float64 { return label(i) })
}

// AutoTuneAll runs AutoTune for every model of ms, model k learning the
// labels label(k, i). Every candidate of the η0 ladder, for every model,
// trains in lockstep: each sample point is read once per pass (one trial
// pass, one loss pass) and fed to all trial models, instead of being re-read
// per candidate. Each trial still sees exactly AutoTune's sequence of
// updates and loss sums, so the chosen η0 is the one a per-candidate
// sgd.TuneEta0 search over TrainPass and AvgLoss picks.
func AutoTuneAll(ms []*Linear, pts sgd.Points, label func(k, i int) float64) {
	n := sgd.TuningSampleSize(pts.NumPoints())
	if n == 0 || len(ms) == 0 {
		return
	}
	etas := sgd.Eta0Ladder(tuneEta0Lo, tuneEta0Hi, tuneEta0Factor)
	ne := len(etas)
	// trials[k*ne+c] is model k's trial at candidate c.
	trials := make([]*Linear, len(ms)*ne)
	for k, m := range ms {
		for c, eta0 := range etas {
			t := m.Clone()
			t.Sched = sgd.NewSchedule(eta0, m.Lambda)
			trials[k*ne+c] = t
		}
	}
	buf := make([]float64, len(ms[0].W))
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		for k := range ms {
			y := label(k, i)
			for _, t := range trials[k*ne : (k+1)*ne] {
				t.StepFused(x, y, t.Sched.Next())
			}
		}
	}
	hinge := make([]float64, len(trials))
	for i := 0; i < n; i++ {
		x := pts.Point(i, buf)
		for k := range ms {
			y := label(k, i)
			for c, t := range trials[k*ne : (k+1)*ne] {
				if h := 1 - y*t.Margin(x); h > 0 {
					hinge[k*ne+c] += h
				}
			}
		}
	}
	losses := make([]float64, ne)
	for k, m := range ms {
		for c := range etas {
			t := trials[k*ne+c]
			losses[c] = hinge[k*ne+c]/float64(n) + 0.5*t.Lambda*vec.SqNorm(t.W)
		}
		m.Sched.Eta0 = sgd.PickEta0(etas, losses)
		m.Sched.Lambda = m.Lambda
		m.Sched.SetSteps(0)
	}
}

// Accuracy returns the fraction of points in idx (all when nil) whose sign is
// predicted correctly.
func (m *Linear) Accuracy(pts sgd.Points, label func(i int) float64, idx []int) float64 {
	if idx == nil {
		idx = sgd.Order(pts.NumPoints(), false, nil)
	}
	if len(idx) == 0 {
		return 0
	}
	buf := make([]float64, len(m.W))
	correct := 0
	for _, i := range idx {
		x := pts.Point(i, buf)
		if (m.Margin(x) >= 0) == (label(i) > 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(idx))
}

// KernelMap is the fixed RBF feature expansion of §8.4: m Gaussian radial
// basis functions with shared bandwidth σ and fixed centres; applying it
// turns a kernel SVM into a linear SVM over kernel values. Values lie in
// (0,1] and, as in the paper, can be stored one byte each.
type KernelMap struct {
	Centres *vec.Matrix // m×D
	Sigma   float64
}

// RandomCentres picks m centres at random from ds (paper: "picked at random
// from the training set").
func RandomCentres(ds *dataset.Dataset, m int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	c := vec.NewMatrix(m, ds.D)
	for k := 0; k < m; k++ {
		ds.Point(rng.Intn(ds.N), c.Row(k))
	}
	return c
}

// MedianSigma estimates a bandwidth as the median pairwise distance over a
// random sample, the standard heuristic replacing the paper's offline trial
// runs (they fixed σ=160 for raw SIFT bytes).
func MedianSigma(ds *dataset.Dataset, sample int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	if sample > ds.N {
		sample = ds.N
	}
	if sample < 2 {
		return 1
	}
	var dists []float64
	a := make([]float64, ds.D)
	b := make([]float64, ds.D)
	for t := 0; t < sample; t++ {
		i, j := rng.Intn(ds.N), rng.Intn(ds.N)
		if i == j {
			continue
		}
		da := ds.Point(i, a)
		db := ds.Point(j, b)
		dists = append(dists, math.Sqrt(vec.SqDist(da, db)))
	}
	if len(dists) == 0 {
		return 1
	}
	// Median by partial selection.
	for i := 0; i < len(dists); i++ {
		for j := i + 1; j < len(dists); j++ {
			if dists[j] < dists[i] {
				dists[i], dists[j] = dists[j], dists[i]
			}
		}
	}
	s := dists[len(dists)/2]
	if s <= 0 {
		return 1
	}
	return s
}

// NewKernelMap builds an RBF map with m random centres and median-heuristic
// bandwidth.
func NewKernelMap(ds *dataset.Dataset, m int, seed int64) *KernelMap {
	return &KernelMap{Centres: RandomCentres(ds, m, seed), Sigma: MedianSigma(ds, 256, seed+1)}
}

// Apply writes the kernel feature vector of x into dst (allocated when nil):
// dst[k] = exp(-‖x-c_k‖² / (2σ²)).
func (k *KernelMap) Apply(x, dst []float64) []float64 {
	m := k.Centres.Rows
	if dst == nil {
		dst = make([]float64, m)
	}
	inv := 1 / (2 * k.Sigma * k.Sigma)
	for j := 0; j < m; j++ {
		dst[j] = math.Exp(-vec.SqDist(x, k.Centres.Row(j)) * inv)
	}
	return dst
}

// Transform maps a whole dataset through the kernel expansion. With quantize
// set, features are stored one byte each in [0,1], exactly the paper's
// memory-saving representation (§8.4).
func (k *KernelMap) Transform(ds *dataset.Dataset, quantize bool) *dataset.Dataset {
	out := vec.NewMatrix(ds.N, k.Centres.Rows)
	buf := make([]float64, ds.D)
	for i := 0; i < ds.N; i++ {
		k.Apply(ds.Point(i, buf), out.Row(i))
	}
	f := dataset.FromMatrix(out)
	if quantize {
		// Kernel values live in (0,1]; quantising against that fixed range
		// keeps base and query sets on one grid.
		return f.QuantizeRange(0, 1)
	}
	return f
}
