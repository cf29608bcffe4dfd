package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sgd"
	"repro/internal/vec"
)

// separable builds a linearly separable two-cluster problem and its labels.
func separable(n, d int, seed int64) (*dataset.Dataset, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := vec.NewMatrix(n, d)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		labels[i] = y
		row := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = rng.NormFloat64() * 0.3
		}
		row[0] += 2 * y // separation along the first axis
	}
	return dataset.FromMatrix(x), labels
}

func TestLinearLearnsSeparableData(t *testing.T) {
	ds, labels := separable(400, 5, 1)
	lab := func(i int) float64 { return labels[i] }
	m := NewLinear(5, 1e-4)
	m.AutoTune(ds, lab)
	rng := rand.New(rand.NewSource(2))
	buf := make([]float64, 5)
	for epoch := 0; epoch < 5; epoch++ {
		m.TrainPass(ds, lab, sgd.Order(ds.N, true, rng), buf)
	}
	if acc := m.Accuracy(ds, lab, nil); acc < 0.98 {
		t.Fatalf("accuracy = %v, want >= 0.98", acc)
	}
}

func TestStepRegularisesAlways(t *testing.T) {
	m := NewLinear(2, 0.5)
	m.W[0] = 1
	// Large margin: no hinge update, but the regulariser must still shrink w.
	m.Step([]float64{10, 0}, 1, 0.1)
	if m.W[0] != 1*(1-0.1*0.5) {
		t.Fatalf("W after regularised step = %v", m.W[0])
	}
	if m.B != 0 {
		t.Fatal("bias must not change without a margin violation")
	}
}

func TestStepHingeUpdate(t *testing.T) {
	m := NewLinear(1, 0)
	m.Step([]float64{2}, 1, 0.5) // margin 0 < 1 → violation
	if m.W[0] != 1 || m.B != 0.5 {
		t.Fatalf("update wrong: w=%v b=%v", m.W[0], m.B)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewLinear(3, 0.1)
	m.W[1] = 5
	m.Sched.Next()
	c := m.Clone()
	c.W[1] = -1
	c.Sched.Next()
	if m.W[1] != 5 {
		t.Fatal("Clone shares weights")
	}
	if m.Sched.Steps() != 1 || c.Sched.Steps() != 2 {
		t.Fatal("Clone shares schedule")
	}
}

func TestBytes(t *testing.T) {
	if NewLinear(7, 0).Bytes() != 64 {
		t.Fatal("Bytes accounting wrong")
	}
}

func TestAvgLossZeroOnPerfectLargeMargin(t *testing.T) {
	ds, labels := separable(50, 3, 3)
	lab := func(i int) float64 { return labels[i] }
	m := NewLinear(3, 0)
	m.W[0] = 100 // margins far beyond 1
	if loss := m.AvgLoss(ds, lab, nil); loss != 0 {
		t.Fatalf("loss = %v, want 0", loss)
	}
}

func TestAutoTuneDoesNotMutateModel(t *testing.T) {
	ds, labels := separable(200, 4, 4)
	lab := func(i int) float64 { return labels[i] }
	m := NewLinear(4, 1e-3)
	m.W[2] = 0.7
	m.AutoTune(ds, lab)
	if m.W[2] != 0.7 || m.B != 0 {
		t.Fatal("AutoTune must not change parameters")
	}
	if m.Sched.Eta0 <= 0 {
		t.Fatal("AutoTune must set a positive eta0")
	}
	if m.Sched.Steps() != 0 {
		t.Fatal("AutoTune must reset the schedule")
	}
}

func TestKernelMapValuesInUnitInterval(t *testing.T) {
	ds := dataset.GISTLike(100, 6, 4, 5)
	k := NewKernelMap(ds, 16, 6)
	if k.Centres.Rows != 16 {
		t.Fatal("centre count wrong")
	}
	if k.Sigma <= 0 {
		t.Fatal("sigma must be positive")
	}
	buf := make([]float64, 6)
	feat := k.Apply(ds.Point(0, buf), nil)
	for _, v := range feat {
		if v <= 0 || v > 1 {
			t.Fatalf("kernel value %v out of (0,1]", v)
		}
	}
}

func TestKernelMapSelfCentreIsOne(t *testing.T) {
	ds := dataset.GISTLike(10, 4, 2, 7)
	k := &KernelMap{Centres: ds.Matrix().Clone(), Sigma: 1}
	feat := k.Apply(ds.Point(3, nil), nil)
	if math.Abs(feat[3]-1) > 1e-12 {
		t.Fatalf("k(x,x) = %v, want 1", feat[3])
	}
}

func TestKernelTransformQuantised(t *testing.T) {
	ds := dataset.GISTLike(60, 5, 3, 8)
	k := NewKernelMap(ds, 8, 9)
	q := k.Transform(ds, true)
	if !q.ByteBacked() {
		t.Fatal("quantised transform must be byte-backed")
	}
	if q.N != 60 || q.D != 8 {
		t.Fatalf("transform shape %dx%d", q.N, q.D)
	}
	f := k.Transform(ds, false)
	// Quantisation error small relative to the [0,1] range.
	for i := 0; i < q.N; i++ {
		a := q.Point(i, nil)
		b := f.Point(i, nil)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1.0/128 {
				t.Fatalf("quantisation error %v too large", math.Abs(a[j]-b[j]))
			}
		}
	}
}

func TestKernelisedSVMSolvesNonlinearProblem(t *testing.T) {
	// Concentric classes: not linearly separable in input space, separable
	// after RBF expansion.
	rng := rand.New(rand.NewSource(10))
	n := 400
	x := vec.NewMatrix(n, 2)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		r := 0.5
		y := -1.0
		if i%2 == 0 {
			r = 2.0
			y = 1
		}
		labels[i] = y
		theta := rng.Float64() * 2 * math.Pi
		x.Set(i, 0, r*math.Cos(theta)+rng.NormFloat64()*0.05)
		x.Set(i, 1, r*math.Sin(theta)+rng.NormFloat64()*0.05)
	}
	ds := dataset.FromMatrix(x)
	lab := func(i int) float64 { return labels[i] }

	lin := NewLinear(2, 1e-4)
	lin.AutoTune(ds, lab)
	buf2 := make([]float64, 2)
	for e := 0; e < 5; e++ {
		lin.TrainPass(ds, lab, sgd.Order(n, true, rng), buf2)
	}
	linAcc := lin.Accuracy(ds, lab, nil)

	k := NewKernelMap(ds, 64, 11)
	kds := k.Transform(ds, false)
	km := NewLinear(64, 1e-5)
	km.AutoTune(kds, lab)
	buf64 := make([]float64, 64)
	for e := 0; e < 10; e++ {
		km.TrainPass(kds, lab, sgd.Order(n, true, rng), buf64)
	}
	kAcc := km.Accuracy(kds, lab, nil)
	if kAcc < 0.95 {
		t.Fatalf("kernel accuracy = %v, want >= 0.95", kAcc)
	}
	if kAcc <= linAcc {
		t.Fatalf("kernel (%v) should beat linear (%v) on rings", kAcc, linAcc)
	}
}

// autoTuneReference is the per-candidate η0 search: one sgd.TuneEta0 trial
// per ladder rung, each re-reading the sample for a TrainPass and an
// AvgLoss. The lockstep AutoTune must pick the same η0.
func autoTuneReference(m *Linear, pts sgd.Points, label func(i int) float64) float64 {
	sample := sgd.Order(sgd.TuningSampleSize(pts.NumPoints()), false, nil)
	buf := make([]float64, len(m.W))
	return sgd.TuneEta0(tuneEta0Lo, tuneEta0Hi, tuneEta0Factor, func(eta0 float64) float64 {
		trial := m.Clone()
		trial.Sched = sgd.NewSchedule(eta0, m.Lambda)
		trial.TrainPass(pts, label, sample, buf)
		return trial.AvgLoss(pts, label, sample)
	})
}

func TestAutoTuneLockstepMatchesPerCandidateSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		n, d   int
		lambda float64
		quant  bool
	}{
		{200, 4, 1e-3, false},
		{1300, 7, 1e-5, false},
		{600, 12, 1e-1, true},
		{50, 3, 0, false},
	} {
		ds, labels := separable(tc.n, tc.d, int64(tc.n))
		if tc.quant {
			ds = ds.Quantize()
		}
		// Models 1 and 2 learn noisy labels from non-zero starting weights,
		// so the ladder's winner differs between models.
		flip := make([][]float64, 3)
		ms := make([]*Linear, 3)
		for k := range ms {
			flip[k] = make([]float64, tc.n)
			for i := range flip[k] {
				flip[k][i] = labels[i]
				if k > 0 && rng.Float64() < 0.2*float64(k) {
					flip[k][i] = -labels[i]
				}
			}
			ms[k] = NewLinear(tc.d, tc.lambda)
			for j := range ms[k].W {
				ms[k].W[j] = float64(k) * rng.NormFloat64()
			}
		}
		want := make([]float64, len(ms))
		for k, m := range ms {
			lab := flip[k]
			want[k] = autoTuneReference(m, ds, func(i int) float64 { return lab[i] })
		}
		AutoTuneAll(ms, ds, func(k, i int) float64 { return flip[k][i] })
		for k, m := range ms {
			if m.Sched.Eta0 != want[k] {
				t.Fatalf("n=%d model %d: lockstep η0 %v, per-candidate search %v", tc.n, k, m.Sched.Eta0, want[k])
			}
			single := NewLinear(tc.d, tc.lambda)
			copy(single.W, m.W)
			lab := flip[k]
			single.AutoTune(ds, func(i int) float64 { return lab[i] })
			if single.Sched.Eta0 != want[k] {
				t.Fatalf("n=%d model %d: AutoTune η0 %v, per-candidate search %v", tc.n, k, single.Sched.Eta0, want[k])
			}
		}
	}
}
