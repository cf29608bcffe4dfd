package main

import (
	"encoding/gob"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/serve"
)

// The traced run records spans from the benchmark's own code around calls
// into each layer's public functions; nothing inside the program changes.
// Layer calls are reached through decorators: a wrapping core.Problem whose
// submodels time TrainOn, a cluster.Endpoint handed to cluster.NewComm and a
// serve.Index handed to serve.NewDeployment.

type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Duration // since the recorder's origin
	N          int64         // work done: points, queries or bytes
}

// recorder keeps spans in memory until the run ends. cur is the span that
// layer calls made from other goroutines attach to (the open iteration or
// serving phase).
type recorder struct {
	origin time.Time
	cur    atomic.Int64
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// record closes a layer span that began at start under the current parent.
func (r *recorder) record(name string, parent int64, start time.Duration, n int64) {
	end := r.now()
	id := r.ids.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, N: n})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// openSpan is a span opened by the benchmark around a phase. Every method is
// safe on a nil recorder or span, so untraced code paths call them freely.
type openSpan struct {
	r       *recorder
	id      int64
	parent  int64
	name    string
	start   time.Duration
	prevCur int64
	attach  bool
}

// open starts a span under parent. With attach, layer spans recorded until
// close get it as their parent.
func (r *recorder) open(name string, parent int64, attach bool) *openSpan {
	if r == nil {
		return nil
	}
	s := &openSpan{r: r, id: r.ids.Add(1), parent: parent, name: name, start: r.now(), attach: attach}
	if attach {
		s.prevCur = r.cur.Swap(s.id)
	}
	return s
}

func (s *openSpan) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *openSpan) close(n int64) {
	if s == nil {
		return
	}
	r := s.r
	if s.attach {
		r.cur.Store(s.prevCur)
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end, N: n})
	r.mu.Unlock()
}

// tracer is the recorder of the current traced pass, nil otherwise. It is
// package-level because submodels decoded from the TCP wire are built by gob
// and cannot carry a pointer to it.
var tracer atomic.Pointer[recorder]

// tracedProblem wraps a core.Problem so its submodels and Z step are timed.
// It forwards the engine's optional hooks and unwraps submodels before
// handing them back, since binauto rejects submodels of foreign types.
type tracedProblem struct{ inner core.Problem }

func (p *tracedProblem) Submodels() []core.Submodel {
	in := p.inner.Submodels()
	out := make([]core.Submodel, len(in))
	for i, sm := range in {
		out[i] = &tracedSub{Inner: sm}
	}
	return out
}

func (p *tracedProblem) NumShards() int            { return p.inner.NumShards() }
func (p *tracedProblem) Shard(i int) core.Shard    { return p.inner.Shard(i) }
func (p *tracedProblem) OnIterationStart(iter int) { callIterationHook(p.inner, iter) }

func (p *tracedProblem) OnModelSync(model []core.Submodel) {
	if hook, ok := p.inner.(core.ModelSyncHook); ok {
		hook.OnModelSync(unwrapSubs(model))
	}
}

func (p *tracedProblem) ZStep(shard int, model []core.Submodel) int {
	r := tracer.Load()
	parent, start := r.cur.Load(), r.now()
	changed := p.inner.ZStep(shard, unwrapSubs(model))
	r.record("binauto.zstep", parent, start, int64(p.inner.Shard(shard).NumPoints()))
	return changed
}

func callIterationHook(p core.Problem, iter int) {
	if hook, ok := p.(core.IterationHook); ok {
		hook.OnIterationStart(iter)
	}
}

func unwrapSubs(model []core.Submodel) []core.Submodel {
	out := make([]core.Submodel, len(model))
	for i, sm := range model {
		if t, ok := sm.(*tracedSub); ok {
			sm = t.Inner
		}
		out[i] = sm
	}
	return out
}

// tracedSub times TrainOn. Tokens cross the TCP fabric without it (see
// tracedEndpoint); its field is exported, and the type gob-registered, only
// so that failure-path messages, which the benchmark never sends, would
// still encode.
type tracedSub struct{ Inner core.Submodel }

func init() { gob.Register(&tracedSub{}) }

func (s *tracedSub) ID() int    { return s.Inner.ID() }
func (s *tracedSub) Bytes() int { return s.Inner.Bytes() }

func (s *tracedSub) Clone() core.Submodel { return &tracedSub{Inner: s.Inner.Clone()} }

func (s *tracedSub) TrainOn(shard core.Shard, order []int) {
	r := tracer.Load()
	parent, start := r.cur.Load(), r.now()
	s.Inner.TrainOn(shard, order)
	r.record("binauto.train_on", parent, start, int64(len(order)))
}

// tracedEndpoint times the fabric: Deliver is the sender's share of a hop,
// Next the time a rank waits for its next message. A token leaves with the
// program's own submodel and is wrapped again on arrival, so every hop puts
// the same bytes on the wire as in an untraced run.
type tracedEndpoint struct{ inner cluster.Endpoint }

func (e *tracedEndpoint) Rank() int    { return e.inner.Rank() }
func (e *tracedEndpoint) Size() int    { return e.inner.Size() }
func (e *tracedEndpoint) Abort()       { e.inner.Abort() }
func (e *tracedEndpoint) Close() error { return e.inner.Close() }

func (e *tracedEndpoint) TryNext() (cluster.Message, bool) {
	m, ok := e.inner.TryNext()
	return wrapToken(m), ok
}

func (e *tracedEndpoint) Deliver(to int, m cluster.Message) {
	r := tracer.Load()
	parent, start := r.cur.Load(), r.now()
	if tok, ok := m.Payload.(*core.Token); ok {
		if t, ok := tok.SM.(*tracedSub); ok {
			plain := *tok
			plain.SM = t.Inner
			m.Payload = &plain
		}
	}
	e.inner.Deliver(to, m)
	r.record("cluster.deliver", parent, start, int64(m.Bytes))
}

func (e *tracedEndpoint) Next(timeout time.Duration) (cluster.Message, error) {
	r := tracer.Load()
	parent, start := r.cur.Load(), r.now()
	m, err := e.inner.Next(timeout)
	r.record("cluster.next", parent, start, 0)
	return wrapToken(m), err
}

// wrapToken gives an arriving token's submodel back its TrainOn timer.
func wrapToken(m cluster.Message) cluster.Message {
	if tok, ok := m.Payload.(*core.Token); ok && tok.SM != nil {
		if _, traced := tok.SM.(*tracedSub); !traced {
			tok.SM = &tracedSub{Inner: tok.SM}
		}
	}
	return m
}

// tracedIndex times the server's batched index calls.
type tracedIndex struct{ inner serve.Index }

func (ix *tracedIndex) Search(q []uint64, k int) []retrieval.Neighbor { return ix.inner.Search(q, k) }
func (ix *tracedIndex) L() int                                        { return ix.inner.L() }
func (ix *tracedIndex) N() int                                        { return ix.inner.N() }
func (ix *tracedIndex) Words() int                                    { return ix.inner.Words() }
func (ix *tracedIndex) Kind() string                                  { return ix.inner.Kind() }

func (ix *tracedIndex) SearchBatch(queries *retrieval.Codes, k, workers int) [][]retrieval.Neighbor {
	r := tracer.Load()
	parent, start := r.cur.Load(), r.now()
	out := ix.inner.SearchBatch(queries, k, workers)
	r.record("retrieval.search_batch", parent, start, int64(queries.N))
	return out
}
