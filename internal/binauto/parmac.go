package binauto

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
	"repro/internal/vec"
)

// This file adapts the binary autoencoder to the ParMAC engine (§4): the L
// per-bit SVMs and the decoder become circulating core.Submodels, each data
// shard keeps its own auxiliary codes, and the Z step runs shard-locally.
//
// The decoder's D single-dimension regressors are grouped into DecoderGroups
// circulating units. With the default of L groups of ≈D/L dimensions each,
// the effective number of equal-size submodels is M = 2L, the figure §5.4
// uses in the speedup model.

// Shard is one machine's portion of the data and its auxiliary coordinates.
// The codes never leave the shard; only submodels move (§4.1).
type Shard struct {
	X shardPoints
	Z *retrieval.Codes
}

// shardPoints is a shard's view of its rows idx of a dataset. Besides whole
// points (sgd.Points) it serves the two narrower reads the circulating
// submodels make: a decoder group gathers only its own dimensions, and an
// encoder reads a float-backed row in place.
type shardPoints struct {
	ds  *dataset.Dataset
	idx []int
}

func (s shardPoints) NumPoints() int                       { return len(s.idx) }
func (s shardPoints) Point(i int, dst []float64) []float64 { return s.ds.Point(s.idx[i], dst) }

// Gather writes features dims of point i into dst (dataset.Dataset.Gather).
func (s shardPoints) Gather(i int, dims []int, dst []float64) []float64 {
	return s.ds.Gather(s.idx[i], dims, dst)
}

// row returns point i for reading only: the stored row itself when the
// dataset is float-backed, else the point dequantised into buf.
func (s shardPoints) row(i int, buf []float64) []float64 {
	if s.ds.ByteBacked() {
		return s.ds.Point(s.idx[i], buf)
	}
	return s.ds.Point(s.idx[i], nil)
}

// NumPoints implements core.Shard.
func (s *Shard) NumPoints() int { return s.X.NumPoints() }

// ParMACConfig parameterises the distributed BA problem.
type ParMACConfig struct {
	L        int
	Mu0      float64
	MuFactor float64

	SVMLambda float64
	DecLambda float64

	// DecoderGroups is the number of circulating decoder submodels the D
	// output dimensions are grouped into; 0 means L (§5.4's equal-size
	// grouping).
	DecoderGroups int

	// Parallel is the number of goroutines each machine uses for its
	// shard-local Z step: 0 or 1 runs serially, < 0 uses every core
	// (GOMAXPROCS). Points are independent, so any value produces codes
	// bit-identical to the serial pass.
	Parallel int

	ZMethod ZMethod
	Seed    int64

	// InitZ overrides the tPCA code initialisation (optional).
	InitZ *retrieval.Codes
}

// ParMACProblem implements core.Problem for the binary autoencoder.
type ParMACProblem struct {
	cfg    ParMACConfig
	d      int
	shards []*Shard
	encs   []*encoderSub
	decs   []*decoderSub
	mu     float64

	// zk caches the per-iteration Z-step kernel: the assembled model, its
	// decoder Gram matrix and the Cholesky factor of the relaxed system are
	// built once per (model, μ) and shared by every machine's ZStep call —
	// in the in-process engine all P machines see value-identical models, so
	// without the cache each of them would redo the same factorisation.
	zk struct {
		sync.Mutex
		kernel *ZKernel
	}
}

// NewParMACProblem builds the distributed BA problem over the given dataset
// and shard index lists (e.g. from dataset.ShardIndices). Codes are
// initialised with truncated PCA on a subsample unless cfg.InitZ is given
// (indexed like ds).
func NewParMACProblem(ds *dataset.Dataset, shardIdx [][]int, cfg ParMACConfig) *ParMACProblem {
	if cfg.L <= 0 {
		panic("binauto: ParMACConfig.L required")
	}
	if cfg.L > ds.D {
		panic("binauto: a binary autoencoder needs L <= D (paper §3.1: L < D bits)")
	}
	if cfg.Mu0 <= 0 {
		cfg.Mu0 = 1e-4
	}
	if cfg.MuFactor <= 1 {
		cfg.MuFactor = 2
	}
	if cfg.SVMLambda <= 0 {
		cfg.SVMLambda = 1e-5
	}
	if cfg.DecoderGroups <= 0 {
		cfg.DecoderGroups = cfg.L
	}
	if cfg.DecoderGroups > ds.D {
		cfg.DecoderGroups = ds.D
	}

	initZ := cfg.InitZ
	if initZ == nil {
		initZ, _ = initialCodesForParMAC(ds, cfg.L, cfg.Seed)
	}

	p := &ParMACProblem{cfg: cfg, d: ds.D, mu: cfg.Mu0}
	for _, idx := range shardIdx {
		z := retrieval.NewCodes(len(idx), cfg.L)
		for k, i := range idx {
			z.CopyCode(k, initZ, i)
		}
		p.shards = append(p.shards, &Shard{X: shardPoints{ds, idx}, Z: z})
	}

	// Encoder submodels: IDs 0..L-1.
	for l := 0; l < cfg.L; l++ {
		p.encs = append(p.encs, &encoderSub{
			id: l, bit: l, svm: svm.NewLinear(ds.D, cfg.SVMLambda),
		})
	}
	// Decoder group submodels: IDs L..L+G-1, dimensions dealt round-robin so
	// groups are equal-sized.
	groups := make([][]int, cfg.DecoderGroups)
	for d := 0; d < ds.D; d++ {
		g := d % cfg.DecoderGroups
		groups[g] = append(groups[g], d)
	}
	for g, dims := range groups {
		p.decs = append(p.decs, newDecoderSub(cfg.L+g, cfg.L, dims, cfg.DecLambda))
	}
	return p
}

// AddShard appends a shard holding the points idx of ds (for streaming: a
// newly added machine's data). The new points get codes from the current
// model's hash when a model is available, otherwise zero codes — matching
// §4.3 ("creating within that machine coordinate values, e.g. by applying the
// nested model to x").
func (p *ParMACProblem) AddShard(ds *dataset.Dataset, idx []int) int {
	pts := shardPoints{ds, idx}
	z := retrieval.NewCodes(pts.NumPoints(), p.cfg.L)
	m := p.AssembleModel()
	buf := make([]float64, p.d)
	for i := 0; i < pts.NumPoints(); i++ {
		z.SetWord64(i, m.EncodePointWord(pts.row(i, buf)))
	}
	p.shards = append(p.shards, &Shard{X: pts, Z: z})
	return len(p.shards) - 1
}

// Submodels implements core.Problem.
func (p *ParMACProblem) Submodels() []core.Submodel {
	out := make([]core.Submodel, 0, len(p.encs)+len(p.decs))
	for _, e := range p.encs {
		out = append(out, e)
	}
	for _, d := range p.decs {
		out = append(out, d)
	}
	return out
}

// NumShards implements core.Problem.
func (p *ParMACProblem) NumShards() int { return len(p.shards) }

// Shard implements core.Problem.
func (p *ParMACProblem) Shard(i int) core.Shard { return p.shards[i] }

// OnIterationStart advances the μ schedule (μ_i = μ0·aⁱ), re-arms the
// per-iteration SGD step-size auto-tuning (§8.1) and drops the cached Z-step
// kernel (the W step is about to change the model it was built from).
func (p *ParMACProblem) OnIterationStart(iter int) {
	p.mu = p.cfg.Mu0
	for i := 0; i < iter; i++ {
		p.mu *= p.cfg.MuFactor
	}
	for _, e := range p.encs {
		e.tuned = false
	}
	for _, d := range p.decs {
		d.tuned = false
	}
	p.zk.Lock()
	p.zk.kernel = nil
	p.zk.Unlock()
}

// Mu returns the current penalty parameter.
func (p *ParMACProblem) Mu() float64 { return p.mu }

// OnModelSync refreshes the problem's submodel references after the engine
// may have replaced one during fault recovery (core.ModelSyncHook).
func (p *ParMACProblem) OnModelSync(model []core.Submodel) {
	for _, sm := range model {
		switch s := sm.(type) {
		case *encoderSub:
			p.encs[s.bit] = s
		case *decoderSub:
			p.decs[s.id-p.cfg.L] = s
		}
	}
}

// ZStep implements core.Problem: solve the binary proximal operator for
// every shard point, with cfg.Parallel goroutines over the shard. The solver
// construction — decoder Gram matrix, Cholesky factorisation, encoder
// gathering — is hoisted into a kernel shared across machines: at the Z step
// every machine holds a value-identical model (the coordinator repairs stale
// copies when the W step drains), so the first caller builds the kernel and
// the rest reuse it.
func (p *ParMACProblem) ZStep(shard int, model []core.Submodel) int {
	k := p.zKernel(model)
	sh := p.shards[shard]
	return k.Run(sh.X, sh.Z, core.Cores(p.cfg.Parallel))
}

// zKernel returns the shared Z kernel for this machine's model, building it
// when none is cached. The value-identical-models assumption is checked, not
// trusted: the O(L·D) weight comparison is noise next to the O(L²·D)
// factorisation it saves, and a caller passing a genuinely different model
// (a custom driver outside the engine's repair protocol) gets a correct
// fresh kernel instead of silently stale codes.
func (p *ParMACProblem) zKernel(model []core.Submodel) *ZKernel {
	m := assembleModel(p.cfg.L, p.d, model)
	p.zk.Lock()
	defer p.zk.Unlock()
	if k := p.zk.kernel; k != nil && k.Mu == p.mu && modelsEqual(k.Model, m) {
		return k
	}
	p.zk.kernel = NewZKernel(m, p.mu, p.cfg.ZMethod)
	return p.zk.kernel
}

// modelsEqual reports whether two assembled BAs have identical parameters.
// The cached side is always NewZKernel's private snapshot, never a view of
// the live submodels, so in-place weight mutation shows up as a mismatch
// here rather than comparing aliased slices against themselves.
func modelsEqual(a, b *Model) bool {
	if a.L() != b.L() || a.D() != b.D() {
		return false
	}
	for l := range a.Enc {
		if a.Enc[l].B != b.Enc[l].B || !slices.Equal(a.Enc[l].W, b.Enc[l].W) {
			return false
		}
	}
	return slices.Equal(a.Dec.C, b.Dec.C) && slices.Equal(a.Dec.W.Data, b.Dec.W.Data)
}

// AssembleModel builds a *Model from the problem's authoritative submodels
// (valid between engine iterations), for evaluation.
func (p *ParMACProblem) AssembleModel() *Model {
	subs := p.Submodels()
	return assembleModel(p.cfg.L, p.d, subs)
}

// Stats computes the learning-curve quantities over all shards with the
// current model: E_Q with the current μ, E_BA, and total points.
func (p *ParMACProblem) Stats() (eq, eba float64) {
	m := p.AssembleModel()
	for _, sh := range p.shards {
		eq += m.EQ(sh.X, sh.Z, p.mu)
		eba += m.EBA(sh.X)
	}
	return eq, eba
}

// assembleModel reconstructs a full BA from submodels indexed by ID.
func assembleModel(l, d int, model []core.Submodel) *Model {
	m := &Model{Dec: NewDecoder(l, d)}
	m.Enc = make([]*svm.Linear, l)
	for _, sm := range model {
		switch s := sm.(type) {
		case *encoderSub:
			m.Enc[s.bit] = s.svm
		case *decoderSub:
			for j, dim := range s.dims {
				for row := 0; row < l; row++ {
					m.Dec.W.Set(row, dim, s.w.At(row, j))
				}
				m.Dec.C[dim] = s.c[j]
			}
		default:
			panic("binauto: foreign submodel in model")
		}
	}
	for _, e := range m.Enc {
		if e == nil {
			panic("binauto: incomplete encoder in model")
		}
	}
	return m
}

// initialCodesForParMAC mirrors the serial initialisation.
func initialCodesForParMAC(ds *dataset.Dataset, l int, seed int64) (*retrieval.Codes, struct{}) {
	return initCodesTPCA(ds, l, seed), struct{}{}
}

// ---------------------------------------------------------------------------
// encoder submodel: one per-bit linear SVM (hash function h_l)
// ---------------------------------------------------------------------------

type encoderSub struct {
	id    int
	bit   int
	svm   *svm.Linear
	tuned bool
	buf   []float64
}

// ID implements core.Submodel.
func (e *encoderSub) ID() int { return e.id }

// TrainOn runs one SGD pass over the shard, predicting bit `bit` of the
// shard's codes from the features (the "fit SVM to (X, Z_l)" of Fig. 1,
// executed stochastically as the submodel circulates). Each step reads the
// point in place when the shard is float-backed, and updates through
// svm.StepFused (one walk over w for decay and margin).
func (e *encoderSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*Shard)
	label := bitLabel(sh.Z, e.bit)
	if !e.tuned {
		e.svm.AutoTune(sh.X, label)
		e.tuned = true
	}
	if cap(e.buf) < len(e.svm.W) {
		e.buf = make([]float64, len(e.svm.W))
	}
	buf := e.buf[:len(e.svm.W)]
	for _, i := range order {
		e.svm.StepFused(sh.X.row(i, buf), label(i), e.svm.Sched.Next())
	}
}

// Clone implements core.Submodel.
func (e *encoderSub) Clone() core.Submodel {
	return &encoderSub{id: e.id, bit: e.bit, svm: e.svm.Clone(), tuned: e.tuned}
}

// Bytes implements core.Submodel.
func (e *encoderSub) Bytes() int { return e.svm.Bytes() }

// ---------------------------------------------------------------------------
// decoder submodel: a group of single-dimension linear regressors (§5.4)
// ---------------------------------------------------------------------------

type decoderSub struct {
	id     int
	dims   []int       // global output dimensions owned by this group
	w      *vec.Matrix // L×len(dims): row r = bit r's weights for the owned dims
	c      []float64
	lambda float64
	sched  *sgd.Schedule
	tuned  bool
	x, g   []float64 // scratch: gathered features, per-dimension residual
}

func newDecoderSub(id, l int, dims []int, lambda float64) *decoderSub {
	if lambda < 0 {
		lambda = 0
	}
	return &decoderSub{
		id: id, dims: dims,
		w: vec.NewMatrix(l, len(dims)), c: make([]float64, len(dims)),
		lambda: lambda,
		sched:  sgd.NewSchedule(1e-2, lambda),
	}
}

// ID implements core.Submodel.
func (d *decoderSub) ID() int { return d.id }

// decoderEta0Ladder is the η0 calibration range of the decoder groups
// (§8.1): 1e-5, 4e-5, …, up to 4.
var decoderEta0Ladder = sgd.Eta0Ladder(1e-5, 4, 4)

// TrainOn runs one SGD pass fitting x_dim ≈ Σ_l z_l·w_l + c for each owned
// dimension (the decoder half of the W step, trained stochastically). A
// visit reads only the owned dimensions of each point and its packed code
// word(s).
func (d *decoderSub) TrainOn(shard core.Shard, order []int) {
	sh := shard.(*Shard)
	if !d.tuned {
		d.autoTune(sh, order)
		d.tuned = true
	}
	x := d.scratch()
	for _, i := range order {
		d.step(sh.Z.Code(i), sh.X.Gather(i, d.dims, x), d.sched.Next())
	}
}

// scratch returns the gather buffer, allocating both scratch slices on
// first use (clones and decoded submodels start without them).
func (d *decoderSub) scratch() []float64 {
	if len(d.x) != len(d.dims) {
		d.x = make([]float64, len(d.dims))
		d.g = make([]float64, len(d.dims))
	}
	return d.x
}

// predict writes the group's reconstruction of a code into pred: c_j plus
// w[r][j] for every set bit r, added in ascending bit order — exactly the
// dense Σ_r z_r·w[r][j], whose zero terms add nothing.
func (d *decoderSub) predict(code []uint64, pred []float64) {
	copy(pred, d.c)
	for wi, word := range code {
		for word != 0 {
			r := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for j, w := range d.w.Row(r) {
				pred[j] += w
			}
		}
	}
}

// step performs one SGD update of every owned dimension on a point with the
// given code and owned features x (x[j] is dimension dims[j]):
//
//	w[r][j] ← w[r][j]·(1−ηλ) − η·err_j·z_r,   c_j ← c_j − η·err_j.
//
// Rows run outer and owned dimensions inner. The decay walks every row; the
// gradient term only the rows of set bits, since z_r = 0 adds nothing. With
// no decay (1−ηλ = 1, always so for λ = 0) the unset rows stay untouched.
func (d *decoderSub) step(code []uint64, x []float64, eta float64) {
	d.scratch()
	g := d.g
	d.predict(code, g)
	for j := range g {
		g[j] = eta * (g[j] - x[j])
	}
	if shrink := 1 - eta*d.lambda; shrink != 1 {
		vec.Scale(shrink, d.w.Data)
	}
	for wi, word := range code {
		for word != 0 {
			r := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			row := d.w.Row(r)
			for j := range row {
				row[j] -= g[j]
			}
		}
	}
	for j := range g {
		d.c[j] -= g[j]
	}
}

// addLoss returns total plus the squared error ½·err_j² of every owned
// dimension on one point, added in dimension order.
func (d *decoderSub) addLoss(code []uint64, x []float64, total float64) float64 {
	d.scratch()
	pred := d.g
	d.predict(code, pred)
	for j, p := range pred {
		e := p - x[j]
		total += 0.5 * e * e
	}
	return total
}

// autoTune calibrates η0 on the leading sample of the visit's order (§8.1).
// Every ladder candidate trains its own clone, all in lockstep: each sample
// point is gathered once for the trial pass and once for the loss pass and
// fed to every trial. The candidate with the lowest mean squared error wins
// under sgd.PickEta0's rule.
func (d *decoderSub) autoTune(sh *Shard, order []int) {
	n := sgd.TuningSampleSize(sh.NumPoints())
	if n == 0 {
		return
	}
	sample := make([]int, n)
	copy(sample, order)
	etas := decoderEta0Ladder
	trials := make([]*decoderSub, len(etas))
	for c, eta0 := range etas {
		t := d.Clone().(*decoderSub)
		t.sched = sgd.NewSchedule(eta0, d.lambda)
		trials[c] = t
	}
	x := make([]float64, len(d.dims))
	for _, i := range sample {
		code, xi := sh.Z.Code(i), sh.X.Gather(i, d.dims, x)
		for _, t := range trials {
			t.step(code, xi, t.sched.Next())
		}
	}
	losses := make([]float64, len(etas))
	for _, i := range sample {
		code, xi := sh.Z.Code(i), sh.X.Gather(i, d.dims, x)
		for c, t := range trials {
			losses[c] = t.addLoss(code, xi, losses[c])
		}
	}
	for c := range losses {
		losses[c] /= float64(n)
	}
	d.sched.Eta0 = sgd.PickEta0(etas, losses)
	d.sched.Lambda = d.lambda
	d.sched.SetSteps(0)
}

// Clone implements core.Submodel.
func (d *decoderSub) Clone() core.Submodel {
	s := *d.sched
	return &decoderSub{
		id: d.id, dims: append([]int(nil), d.dims...),
		w: d.w.Clone(), c: vec.Clone(d.c),
		lambda: d.lambda, sched: &s, tuned: d.tuned,
	}
}

// Bytes implements core.Submodel.
func (d *decoderSub) Bytes() int { return 8 * (len(d.w.Data) + len(d.c)) }

// GatherCodes concatenates all shard codes back into one set, ordered shard
// by shard (for evaluation).
func (p *ParMACProblem) GatherCodes() *retrieval.Codes {
	total := 0
	for _, sh := range p.shards {
		total += sh.Z.N
	}
	out := retrieval.NewCodes(total, p.cfg.L)
	at := 0
	for _, sh := range p.shards {
		for i := 0; i < sh.Z.N; i++ {
			out.CopyCode(at, sh.Z, i)
			at++
		}
	}
	return out
}

var _ core.Problem = (*ParMACProblem)(nil)
var _ core.IterationHook = (*ParMACProblem)(nil)
var _ core.ModelSyncHook = (*ParMACProblem)(nil)
