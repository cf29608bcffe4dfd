package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/speedup"
)

// spanIndex groups a traced pass's spans for the per-layer metrics.
type spanIndex struct {
	byID   map[int64]span
	byName map[string][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byID: map[int64]span{}, byName: map[string][]span{}}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

// clipped returns s cut to its parent's interval. Fabric spans are
// attributed to the iteration they started in: a rank's wait for its next
// message can outlast the iteration, and a sender can return from Deliver
// just after the coordinator has collected the reply.
func (ix spanIndex) clipped(s span) span {
	if p, ok := ix.byID[s.Parent]; ok {
		s.Start = max(s.Start, p.Start)
		s.End = max(min(s.End, p.End), s.Start)
	}
	return s
}

// inIterations returns the spans of name whose parent is an iteration.
func (ix spanIndex) inIterations(name string) []span {
	var out []span
	for _, s := range ix.byName[name] {
		if p, ok := ix.byID[s.Parent]; ok && p.Name == "core.iterate" {
			out = append(out, ix.clipped(s))
		}
	}
	return out
}

func busy(spans []span) (d time.Duration, n int64) {
	for _, s := range spans {
		d += s.End - s.Start
		n += s.N
	}
	return d, n
}

// nestingViolations counts spans that do not lie inside their parent.
// Fabric spans are clipped by construction and are not counted.
func nestingViolations(spans []span) int {
	ix := indexSpans(spans)
	bad := 0
	for _, s := range spans {
		if s.Name == "cluster.deliver" || s.Name == "cluster.next" {
			continue
		}
		if p, ok := ix.byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			bad++
		}
	}
	return bad
}

// perLayer derives the per-layer metrics of a traced pass tp; ref is the
// untraced pass of the same run. It also returns the §5 block: the measured
// t_r^W, t_c^W and t_r^Z shaped like speedup.Params, with T(P) predicted
// against the measured iteration time (reported, not a gate).
func perLayer(w workload, tp, ref *pass, spans []span) (map[string]metric, map[string]any) {
	ix := indexSpans(spans)
	tc := w.Train

	iters := ix.byName["core.iterate"]
	nIter := float64(len(iters))
	zsteps := ix.inIterations("binauto.zstep")
	var wPhase, zPhase []float64
	for _, it := range iters {
		first := time.Duration(-1)
		for _, z := range zsteps {
			if z.Parent == it.ID && (first < 0 || z.Start < first) {
				first = z.Start
			}
		}
		if first >= 0 {
			wPhase = append(wPhase, (first - it.Start).Seconds())
			zPhase = append(zPhase, (it.End - first).Seconds())
		}
	}
	iterWall, _ := busy(iters)
	trainBusy, trainPts := busy(ix.inIterations("binauto.train_on"))
	zBusy, zPts := busy(zsteps)
	delivers := ix.inIterations("cluster.deliver")
	deliverBusy, deliverBytes := busy(delivers)
	nextWait, _ := busy(ix.inIterations("cluster.next"))

	var hops, modelBytes, changed int64
	for _, t := range tp.trains {
		for _, r := range t.results {
			hops += r.ModelMessages
			modelBytes += r.ModelBytes
			changed += int64(r.ZChanged)
		}
	}
	var inits []float64
	for _, t := range tp.trains {
		inits = append(inits, t.init.Seconds())
	}
	m := len(tp.trains[0].model.Enc) * 2 // L encoders plus L decoder groups
	params := speedup.Params{
		N: tc.N, M: m, E: tc.Epochs,
		TWr: perUnit(trainBusy, trainPts),
		TWc: perUnit(deliverBusy, hops),
		TZr: perUnit(zBusy, zPts*int64(m)),
	}
	measured := median(iterSeconds(ref))

	batches := ix.byName["retrieval.search_batch"]
	var batchDur []time.Duration
	for _, b := range batches {
		batchDur = append(batchDur, b.End-b.Start)
	}
	batchBusy, batchQueries := busy(batches)
	var phaseWall time.Duration
	for _, s := range spans {
		if p, ok := ix.byID[s.Parent]; ok && p.Name == "bench.pass" && len(s.Name) > 12 && s.Name[:12] == "bench.serve_" {
			phaseWall += s.End - s.Start
		}
	}
	var late []time.Duration
	for _, ph := range readPhases(tp) {
		late = append(late, ph.late...)
	}
	digestMatch := 0.0
	if tp.trains[0].digest == ref.trains[0].digest {
		digestMatch = 1
	}
	untracedAgree := 0.0
	if agree(ref) {
		untracedAgree = 1
	}

	pl := map[string]metric{
		"core.w_phase_s":                {median(wPhase), "s"},
		"core.z_phase_s":                {median(zPhase), "s"},
		"core.machine_idle_frac":        {1 - ratio(trainBusy+zBusy, machines*iterWall), "fraction"},
		"binauto.train_on.visits":       {float64(len(ix.inIterations("binauto.train_on"))) / nIter, "count"},
		"binauto.train_on.busy_s":       {trainBusy.Seconds() / nIter, "s"},
		"binauto.train_on.ns_per_point": {params.TWr * 1e9, "ns"},
		"binauto.zstep.busy_s":          {zBusy.Seconds() / nIter, "s"},
		"binauto.zstep.ns_per_point":    {perUnit(zBusy, zPts) * 1e9, "ns"},
		"binauto.zstep.changed":         {float64(changed) / nIter, "count"},
		"binauto.init_s":                {median(inits), "s"},
		"binauto.encode_s":              {tp.encodeS.Seconds(), "s"},
		"cluster.model_hops":            {float64(hops) / nIter, "count"},
		"cluster.model_bytes":           {float64(modelBytes) / nIter, "B"},
		"cluster.frames":                {float64(len(delivers)) / nIter, "count"},
		"cluster.bytes":                 {float64(deliverBytes) / nIter, "B"},
		"cluster.deliver_busy_s":        {deliverBusy.Seconds() / nIter, "s"},
		"cluster.deliver_us_per_hop":    {params.TWc * 1e6, "us"},
		"cluster.next_wait_s":           {nextWait.Seconds() / nIter, "s"},

		"retrieval.search_batch.calls":            {float64(len(batches)), "count"},
		"retrieval.search_batch.queries_per_call": {ratioN(batchQueries, int64(len(batches))), "count"},
		"retrieval.search_batch.ms_p50":           {ms(pct(batchDur, 50)), "ms"},
		"retrieval.search_batch.ms_p99":           {ms(pct(batchDur, 99)), "ms"},
		"retrieval.search_batch.busy_frac":        {ratio(batchBusy, phaseWall), "fraction"},
		"retrieval.mih.used_buckets_start":        {float64(tp.occ[0].UsedBuckets), "count"},
		"retrieval.mih.used_buckets_end":          {float64(tp.occ[1].UsedBuckets), "count"},
		"retrieval.mih.max_list_start":            {float64(tp.occ[0].MaxList), "count"},
		"retrieval.mih.max_list_end":              {float64(tp.occ[1].MaxList), "count"},
		"serve.add.calls":                         {float64(len(tp.addLat)), "count"},
		"serve.add.ms_p50":                        {ms(pct(tp.addLat, 50)), "ms"},
		"serve.add.ms_p90":                        {ms(pct(tp.addLat, 90)), "ms"},
		"serve.add.ms_max":                        {ms(pct(tp.addLat, 100)), "ms"},
		"serve.p90_ms_light":                      {ms(pct(lats(tp.light), 90)), "ms"},
		"serve.p99_ms_light":                      {ms(pct(lats(tp.light), 99)), "ms"},
		"serve.p50_ms_heavy":                      {tp.medianP50(tp.heavy), "ms"},
		"serve.p90_ms_heavy":                      {ms(pct(lats(tp.heavy), 90)), "ms"},
		"serve.p99_ms_heavy":                      {ms(pct(lats(tp.heavy), 99)), "ms"},
		"serve.max_qps_p99":                       {tp.maxQPS, "1/s"},
		"serve.mean_batch":                        {tp.stats.MeanBatch, "count"},
		"serve.errors":                            {float64(tp.stats.Errors), "count"},

		"runtime.gc_cycles":     {float64(tp.memAfter.NumGC - tp.memBefore.NumGC), "count"},
		"runtime.gc_pause_ms":   {float64(tp.memAfter.PauseTotalNs-tp.memBefore.PauseTotalNs) / 1e6, "ms"},
		"runtime.alloc_mb":      {float64(tp.memAfter.TotalAlloc-tp.memBefore.TotalAlloc) / (1 << 20), "MB"},
		"loadgen.late_ms_p99":   {ms(pct(late, 99)), "ms"},
		"host.steal_frac":       {tp.steal, "fraction"},
		"host.disturbed_rounds": {float64(disturbed(tp.roundSteal)), "count"},
		"host.disturbed_trains": {float64(disturbed(trainSteal(tp))), "count"},

		"s5.t_wr_ns":         {params.TWr * 1e9, "ns"},
		"s5.t_wc_us":         {params.TWc * 1e6, "us"},
		"s5.t_zr_ns":         {params.TZr * 1e9, "ns"},
		"s5.predicted_t_s":   {params.T(machines), "s"},
		"s5.measured_iter_s": {measured, "s"},

		"trace.overhead_iter_frac":    {median(iterSeconds(tp))/measured - 1, "fraction"},
		"trace.overhead_offline_frac": {ref.offlineQPS/tp.offlineQPS - 1, "fraction"},
		"trace.nesting_violations":    {float64(nestingViolations(spans)), "count"},
		"trace.digest_match":          {digestMatch, "count"},
		"determinism.untraced_agree":  {untracedAgree, "count"},
	}
	rep := map[string]any{"section5": map[string]any{
		"speedup_params": params, "P": machines,
		"predicted_T_s": params.T(machines), "measured_iter_s": measured,
	}, "digests": map[string]any{"untraced": digests(ref), "traced": digests(tp)},
	}
	return pl, rep
}

func iterSeconds(p *pass) []float64 {
	var out []float64
	for _, t := range p.trains {
		out = append(out, secs(t.iters)...)
	}
	return out
}

func digests(p *pass) []string {
	var out []string
	for _, t := range p.trains {
		out = append(out, fmt.Sprintf("%016x", t.digest))
	}
	return out
}

func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() / float64(n)
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratioN(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans saves the traced pass's spans when PARMACBENCH_OUT names a
// directory.
func writeSpans(workload string, seed int64, spans []span) error {
	dir := os.Getenv("PARMACBENCH_OUT")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), b, 0o644)
}
