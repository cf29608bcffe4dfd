package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/binauto"
	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/serve"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one complete measurement of a workload: training runs, then the
// serving phases against the last trained model.
type pass struct {
	trains    []*trainResult
	setups    []time.Duration
	precision float64
	encodeS   time.Duration

	light, heavy []phase // one of each per round
	roundSteal   []float64
	ladder       []phase
	maxQPS       float64
	offlineQPS   float64
	offlineN     int
	addLat       []time.Duration
	steal        float64 // steal share over the whole pass
	stats        serve.Stats
	occ          [2]retrieval.MIHOccupancy

	heapPeak  uint64
	memBefore runtime.MemStats
	memAfter  runtime.MemStats

	attempted, failed int64
	problems          []string
}

func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func run(w workload, o options) (*result, map[string]any, error) {
	workers := runtime.GOMAXPROCS(0)
	in := makeInputs(w, o.seed, workers)
	if !o.trace {
		p, err := runPass(w, in, o, nil)
		if err != nil {
			return nil, nil, err
		}
		return p.result(endToEnd(p)), nil, nil
	}
	// The traced run repeats the untraced pass as its reference, so the
	// tracing overhead and the model-identity check come from one process.
	ref, err := runPass(w, in, o, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	tracer.Store(rec)
	tp, err := runPass(w, in, o, rec)
	tracer.Store(nil)
	if err != nil {
		return nil, nil, err
	}
	spans := rec.snapshot()
	pl, rep := perLayer(w, tp, ref, spans)
	tp.attempted += ref.attempted
	tp.failed += ref.failed
	tp.problems = append(tp.problems, ref.problems...)
	// The wrappers must not change the program. Shuffle order follows
	// message arrival order (ROADMAP item 1), so even in-process a run can
	// train a different model when timing shifts; the check applies only
	// when each pass's own runs agree, and then the two passes must agree.
	if w.Train.deterministic() && agree(ref) && agree(tp) {
		tp.check(ref.trains[0].digest == tp.trains[0].digest && ref.trains[0].eba == tp.trains[0].eba,
			"traced model differs from the untraced one (digest %x vs %x)", tp.trains[0].digest, ref.trains[0].digest)
	}
	tp.check(nestingViolations(spans) == 0, "traced spans lie outside their parent")
	if err := writeSpans(w.Name, o.seed, spans); err != nil {
		fmt.Fprintln(os.Stderr, "parmacbench: spans not written:", err)
	}
	return tp.result(pl), rep, nil
}

// agree reports whether every training run of a pass produced the same model.
func agree(p *pass) bool {
	for _, t := range p.trains[1:] {
		if t.digest != p.trains[0].digest {
			return false
		}
	}
	return true
}

func (p *pass) result(m map[string]metric) *result {
	for _, s := range p.problems {
		fmt.Fprintln(os.Stderr, "parmacbench: check failed:", s)
	}
	return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}
}

// heapSampler records the peak live heap, as marked by each garbage
// collection, without stopping the world. Counting only marked objects
// keeps the figure independent of how much garbage waits for the next
// cycle when the sample is taken.
func heapSampler(stop <-chan struct{}, peak *uint64, wg *sync.WaitGroup) {
	defer wg.Done()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		*peak = max(*peak, s[0].Value.Uint64())
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

func runPass(w workload, in *inputs, o options, rec *recorder) (*pass, error) {
	workers := runtime.GOMAXPROCS(0)
	p := &pass{}
	runtime.GC()
	debug.FreeOSMemory()
	runtime.ReadMemStats(&p.memBefore)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go heapSampler(stop, &p.heapPeak, &wg)
	defer func() {
		close(stop)
		wg.Wait()
	}()
	root := rec.open("bench.pass", 0, true)
	defer root.close(0)
	passSteal := openSteal()
	defer func() { p.steal = passSteal.share() }()
	budget := time.Duration(o.seconds * float64(time.Second))
	tc := w.Train
	minTrains, minSetups := 1, setups
	if o.trace {
		// A traced run makes two passes in the time of one and reports no
		// set-up metric. Each pass trains twice, so the model-identity check
		// can tell a changed program from a schedule-dependent one.
		budget /= 2
		minTrains, minSetups = 2, 2
	}

	// Training: repeated full runs from scratch. Serving workloads train
	// inside each set-up; training workloads repeat runs until their share of
	// the budget is spent, then top up set-ups without training.
	var dep *deployment
	trainStart := time.Now()
	for {
		// Every training starts as the first does, from a collected heap
		// with no deployment alive, so its collections do not mark the last
		// set-up's index.
		if dep != nil {
			dep.srv.Close()
			dep = nil
		}
		runtime.GC()
		t0 := time.Now()
		tr, err := trainOnce(tc, in.train, programSeed, rec, root.ID())
		if err != nil {
			return nil, err
		}
		p.trains = append(p.trains, tr)
		p.attempted += int64(len(tr.iters))
		p.check(tr.eba <= tc.EBACeiling, "final E_BA %.1f above ceiling %.1f", tr.eba, tc.EBACeiling)
		if !tc.inSetup() {
			p.setups = append(p.setups, tr.setup)
			if len(p.trains) >= minTrains && time.Since(trainStart) >= time.Duration(tc.Share*float64(budget)) {
				break
			}
			continue
		}
		if dep, p.encodeS, err = deployTraced(w.Serve, tr.model, in.base, workers, rec, root.ID()); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		if len(p.trains) >= minSetups {
			break
		}
	}
	if !tc.inSetup() {
		for len(p.setups) < minSetups {
			t0 := time.Now()
			s, _, err := newTrainer(tc, in.train, programSeed, rec != nil)
			if err != nil {
				return nil, err
			}
			p.setups = append(p.setups, time.Since(t0))
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		// The trained model is deployed once; that serving set-up is part
		// of every set-up sample.
		t0 := time.Now()
		var err error
		if dep, p.encodeS, err = deployTraced(w.Serve, p.trains[len(p.trains)-1].model, in.base, workers, rec, root.ID()); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		for i := range p.setups {
			p.setups[i] += d
		}
		budget = time.Duration((1 - tc.Share) * float64(budget))
	}
	defer dep.srv.Close()
	model := p.trains[len(p.trains)-1].model
	p.precision = precisionAt50(model, in.train, in.evalQ, in.truth, workers)
	p.check(p.precision >= tc.PrecisionFloor, "precision@50 %.3f below floor %.3f", p.precision, tc.PrecisionFloor)

	if err := serveLoad(w, in, o, p, dep, budget, root.ID()); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&p.memAfter)
	return p, nil
}

func deployTraced(sc serveConfig, m *binauto.Model, base *dataset.Dataset, workers int, rec *recorder, parent int64) (*deployment, time.Duration, error) {
	sp := rec.open("bench.deploy", parent, true)
	defer sp.close(0)
	return deploy(sc, m, base, workers, rec)
}

// serveLoad runs the serving phases: the rate ladder, then rounds of the
// light and heavy fixed rates and an offline burst, with writes beside the
// fixed rates on the streaming MIH, then the output check on the final
// snapshot.
func serveLoad(w workload, in *inputs, o options, p *pass, dep *deployment, budget time.Duration, parent int64) error {
	sc := w.Serve
	rng := rand.New(rand.NewSource(o.seed*7919 + 17))
	l := &load{d: dep, qvecs: in.qvecs}
	if dep.mih != nil {
		p.occ[0] = dep.mih.Occupancy()
	}
	// Only the streaming MIH takes writes; the linear index is read-only, so
	// its reads are checked against the oracle as they are served.
	wr := &writer{d: dep, pool: in.pool}
	if dep.mih == nil {
		l.want = dep.oracle(in.queries)
	}

	frac := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	// Every pass starts its reads from a collected heap, so the GC cycles
	// they meet depend on their own allocation and not on what set-up left
	// behind.
	runtime.GC()
	p.maxQPS, p.ladder = l.maxQPS(sc.LadderQPS, frac(0.2)/time.Duration(len(sc.LadderQPS)), rng, parent)
	// The light rate, the heavy rate and an offline burst repeat in rounds
	// spread over the whole serving budget, and each figure is the median
	// over the clean rounds, so a slow stretch of the host moves a round
	// rather than the figure, and every measurement meets the same host.
	var bursts []float64
	for i := range rounds {
		steal := openSteal()
		wr.beside(dep.mih != nil, parent, func() {
			p.light = append(p.light, l.openLoop(fmt.Sprintf("bench.serve_light_%d", i), sc.LightQPS, frac(0.3/rounds), rng, parent))
			p.heavy = append(p.heavy, l.openLoop(fmt.Sprintf("bench.serve_heavy_%d", i), sc.HeavyQPS, frac(0.25/rounds), rng, parent))
		})
		qps, n := l.offline(fmt.Sprintf("bench.serve_offline_%d", i), frac(0.25/rounds), rng, parent)
		bursts = append(bursts, qps)
		p.offlineN += n
		p.roundSteal = append(p.roundSteal, steal.share())
	}
	p.offlineQPS = median(clean(bursts, p.roundSteal))

	p.addLat = wr.lat
	p.attempted += int64(len(wr.lat))
	p.failed += int64(wr.failed)
	if wr.failed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d index writes failed", wr.failed))
	}
	for _, ph := range readPhases(p) {
		p.attempted += int64(len(ph.lat))
	}
	p.attempted += int64(p.offlineN)
	if f := l.failed.Load(); f > 0 {
		p.failed += f
		p.problems = append(p.problems, fmt.Sprintf("%d searches failed or differed from the oracle", f))
	}

	// Final check, after every write: the sample equals the exact scan of
	// the snapshot, ties included.
	want := dep.oracle(in.queries)
	for i, wn := range want {
		rs, err := dep.srv.Search(serve.Query{Vector: in.qvecs[i], K: topK})
		p.check(err == nil && slices.Equal(rs.Neighbors, wn), "query %d: served result differs from TopKHammingDist (err %v)", i, err)
	}
	if dep.mih != nil {
		p.occ[1] = dep.mih.Occupancy()
	}
	p.stats = dep.srv.Stats()
	return nil
}

// pct returns the p-th percentile (nearest rank) of durations.
func pct(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(float64(len(s))*p/100+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func secs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}

// trainSteal lists the steal share of each training run of a pass.
func trainSteal(p *pass) []float64 {
	out := make([]float64, len(p.trains))
	for i, t := range p.trains {
		out[i] = t.steal
	}
	return out
}

// readPhases returns every open-loop phase of a pass.
func readPhases(p *pass) []phase {
	return slices.Concat(p.light, p.heavy, p.ladder)
}

// lats pools the latencies of phases.
func lats(phs []phase) []time.Duration {
	var out []time.Duration
	for _, ph := range phs {
		out = append(out, ph.lat...)
	}
	return out
}

// medianP50 is the median over the clean rounds of each round's p50, in ms.
func (p *pass) medianP50(phs []phase) float64 {
	var v []float64
	for _, ph := range clean(phs, p.roundSteal) {
		v = append(v, ms(pct(ph.lat, 50)))
	}
	return median(v)
}

// endToEnd reports the metrics a user of the trainer and the server sees.
// Timings come from the clean training runs and serving rounds.
func endToEnd(p *pass) map[string]metric {
	var iters, totals, ebas []float64
	for _, t := range clean(p.trains, trainSteal(p)) {
		iters = append(iters, secs(t.iters)...)
		totals = append(totals, t.total.Seconds())
	}
	for _, t := range p.trains {
		ebas = append(ebas, t.eba)
	}
	return map[string]metric{
		"setup_s":         {median(secs(p.setups)), "s"},
		"heap_peak_mb":    {float64(p.heapPeak) / (1 << 20), "MB"},
		"iter_s":          {median(iters), "s"},
		"train_s":         {median(totals), "s"},
		"final_eba":       {median(ebas), "E_BA"},
		"precision_at_50": {p.precision, "fraction"},
		"p50_ms_light":    {p.medianP50(p.light), "ms"},
		"offline_qps":     {p.offlineQPS, "1/s"},
	}
}
