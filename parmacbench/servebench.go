package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binauto"
	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/serve"
)

// checkQueries is the fixed sample of query ids whose served results are
// compared with retrieval.TopKHammingDist on the same snapshot.
const checkQueries = 64

// offlineClients keeps the server's batcher full during the offline burst:
// two full batches (MaxBatch 64) in flight.
const offlineClients = 128

// deployment is a running server plus the benchmark's own copy of the codes
// its index holds, kept in step with every write for the output checks.
type deployment struct {
	srv   *serve.Server
	model *binauto.Model
	mih   *serve.StreamingMIH // nil for the linear index
	codes *retrieval.Codes
	added []*retrieval.Codes // written since codes was last brought up to date
	rec   *recorder
}

// deploy encodes the base with the trained model and starts a server with
// parmac-serve's defaults (shards 1, MaxBatch 64, MaxDelay 0, no shadow).
func deploy(sc serveConfig, model *binauto.Model, base *dataset.Dataset, workers int, rec *recorder) (*deployment, time.Duration, error) {
	t0 := time.Now()
	codes := model.EncodeParallel(base, workers)
	encodeS := time.Since(t0)
	d := &deployment{model: model, codes: codes, rec: rec}
	var ix serve.Index
	switch sc.Index {
	case "linear":
		ix = serve.NewShardedIndex(codes, 1)
	case "mih":
		m, err := serve.NewStreamingMIH(codes, 0)
		if err != nil {
			return nil, 0, err
		}
		d.mih, ix = m, m
	default:
		return nil, 0, fmt.Errorf("unknown index kind %q", sc.Index)
	}
	dep, err := serve.NewDeployment("v0", model, d.wrap(ix))
	if err != nil {
		return nil, 0, err
	}
	d.srv = serve.New(dep, serve.Options{Logf: func(string, ...any) {}})
	return d, encodeS, nil
}

func (d *deployment) wrap(ix serve.Index) serve.Index {
	if d.rec != nil {
		return &tracedIndex{inner: ix}
	}
	return ix
}

// write makes a batch of new points searchable in the streaming MIH and
// times only the program's calls: the model encodes the batch, then
// StreamingMIH.Add.
func (d *deployment) write(batch *dataset.Dataset, parent int64) (time.Duration, error) {
	sp := d.rec.open("serve.add", parent, false)
	defer sp.close(int64(batch.N))
	t0 := time.Now()
	extra := d.model.Encode(batch)
	err := d.mih.Add(extra)
	took := time.Since(t0)
	if err == nil {
		d.added = append(d.added, extra)
	}
	return took, err
}

// held returns the benchmark's copy of the codes the index holds, with every
// write appended. The streaming MIH's copy is brought up to date only for
// the output checks, so the benchmark adds no work beside its writes.
func (d *deployment) held() *retrieval.Codes {
	if len(d.added) == 0 {
		return d.codes
	}
	c := *d.codes
	for _, e := range d.added {
		c.N += e.N
		c.Data = append(c.Data, e.Data...)
	}
	d.codes, d.added = &c, nil
	return d.codes
}

// oracle answers the check sample on the current snapshot.
func (d *deployment) oracle(queries *dataset.Dataset) [][]retrieval.Neighbor {
	n := min(checkQueries, queries.N)
	qc := d.model.Encode(queries.Subset(seq(n)))
	codes := d.held()
	out := make([][]retrieval.Neighbor, n)
	for i := range out {
		out[i] = retrieval.TopKHammingDist(codes, qc.Code(i), topK)
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// phase is the outcome of one open-loop phase.
type phase struct {
	rate     float64
	lat      []time.Duration // from each request's due time
	late     []time.Duration // how late the scheduler released each request
	inWindow int             // completed within the arrival window plus the latency limit
}

// load drives the server. Read-only phases check the sample queries against
// want as they are served; want is nil while writes run concurrently.
type load struct {
	d      *deployment
	qvecs  [][]float64
	want   [][]retrieval.Neighbor
	failed atomic.Int64
}

// openLoop sends Poisson arrivals at rate for dur: one scheduler goroutine
// sleeps until each request is due and releases it on its own goroutine, so
// a slow server never slows the offered load.
func (l *load) openLoop(name string, rate float64, dur time.Duration, rng *rand.Rand, parent int64) phase {
	var at []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		at = append(at, t)
	}
	qid := make([]int, len(at))
	for i := range qid {
		qid[i] = rng.Intn(len(l.qvecs))
	}
	ph := phase{rate: rate, lat: make([]time.Duration, len(at)), late: make([]time.Duration, len(at))}
	done := make([]time.Time, len(at))
	sp := l.d.rec.open(name, parent, true)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range at {
		due := start.Add(at[i])
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		ph.late[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := l.d.srv.Search(serve.Query{Vector: l.qvecs[qid[i]], K: topK})
			done[i] = time.Now()
			ph.lat[i] = done[i].Sub(due)
			if !l.ok(qid[i], rs, err) {
				l.failed.Add(1)
			}
		}()
	}
	wg.Wait()
	sp.close(int64(len(at)))
	window := start.Add(dur + p99Limit)
	for _, t := range done {
		if !t.After(window) {
			ph.inWindow++
		}
	}
	return ph
}

func (l *load) ok(qi int, rs *serve.ResultSet, err error) bool {
	if err != nil {
		return false
	}
	if l.want == nil || qi >= len(l.want) {
		return len(rs.Neighbors) == topK
	}
	return slices.Equal(rs.Neighbors, l.want[qi])
}

// passes reports whether a ladder rung met the p99 limit with no growing
// backlog: nearly every request completed inside the arrival window plus
// the limit.
func (l *load) passes(ph phase) bool {
	return pct(ph.lat, 99) <= p99Limit && float64(ph.inWindow) >= 0.99*float64(len(ph.lat))
}

// offline runs a closed loop of offlineClients callers back to back for dur
// and returns the completed queries per second.
func (l *load) offline(name string, dur time.Duration, rng *rand.Rand, parent int64) (float64, int) {
	seeds := make([]int64, offlineClients)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var completed atomic.Int64
	sp := l.d.rec.open(name, parent, true)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < offlineClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[c]))
			for time.Now().Before(deadline) {
				qi := r.Intn(len(l.qvecs))
				rs, err := l.d.srv.Search(serve.Query{Vector: l.qvecs[qi], K: topK})
				completed.Add(1)
				if !l.ok(qi, rs, err) {
					l.failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sp.close(completed.Load())
	return float64(completed.Load()) / elapsed.Seconds(), int(completed.Load())
}

// maxQPS walks the fixed ladder upward and returns the rate at which p99
// reaches the limit, interpolated between the last passing rung and the
// first failing one; past the top rung it reports the top rung.
func (l *load) maxQPS(ladder []float64, rung time.Duration, rng *rand.Rand, parent int64) (float64, []phase) {
	var phases []phase
	prev := phase{}
	for i, r := range ladder {
		ph := l.openLoop(fmt.Sprintf("bench.serve_ladder_%d", i), r, rung, rng, parent)
		phases = append(phases, ph)
		if l.passes(ph) {
			prev = ph
			continue
		}
		p99 := float64(pct(ph.lat, 99))
		lim := float64(p99Limit)
		if i == 0 {
			return r * min(1, lim/p99), phases
		}
		// A rung that kept p99 under the limit failed on backlog alone;
		// its rate is not reached, so credit the last passing rung.
		p0 := float64(pct(prev.lat, 99))
		frac := 0.0
		if p99 > lim && p99 > p0 {
			frac = min(max((lim-p0)/(p99-p0), 0), 1)
		}
		return prev.rate + frac*(r-prev.rate), phases
	}
	return ladder[len(ladder)-1], phases
}

// writer makes streaming MIH writes from the held-out pool on a schedule
// beside the fixed-rate reads.
type writer struct {
	d      *deployment
	pool   *dataset.Dataset
	lat    []time.Duration
	failed int
	next   int
}

func (w *writer) nextBatch() *dataset.Dataset {
	idx := make([]int, writeBatch)
	for i := range idx {
		idx[i] = (w.next + i) % w.pool.N
	}
	w.next = (w.next + writeBatch) % w.pool.N
	return w.pool.Subset(idx)
}

// beside runs reads, with scheduled writes beside them when on is set.
// Writes stop before the offline bursts and the ladder, whose saturated
// cores would otherwise set how long a write takes.
func (w *writer) beside(on bool, parent int64, reads func()) {
	if !on {
		reads()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.runScheduled(stop, parent)
	}()
	reads()
	close(stop)
	<-done
}

func (w *writer) runScheduled(stop <-chan struct{}, parent int64) {
	sp := w.d.rec.open("bench.writer", parent, false)
	defer func() { sp.close(int64(len(w.lat))) }()
	t := time.NewTicker(writeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.one(sp.ID())
		}
	}
}

func (w *writer) one(parent int64) {
	took, err := w.d.write(w.nextBatch(), parent)
	w.lat = append(w.lat, took)
	if err != nil {
		w.failed++
	}
}
