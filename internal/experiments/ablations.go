package experiments

import (
	"fmt"
	"time"

	"repro/internal/binauto"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/speedup"
)

// Ablations of the engine's design choices. They are not paper figures; they
// quantify the trade-offs the paper discusses in prose.

// abl-z: exact Gray-code enumeration vs relaxed+alternating optimisation in
// the Z step (§3.1 offers both; the paper enumerates up to L=16 and
// alternates beyond). Compares final objectives and per-point solve cost.
func init() {
	register(Experiment{
		ID:    "abl-z",
		Title: "ablation: exact vs alternating Z step",
		Run: func(cfg RunConfig) []*Table {
			n, d, l := 1200, 24, 10
			if cfg.Quick {
				n = 400
			}
			ds, _ := dataset.WithQueries(n, 1, d, 8, cfg.Seed, true)
			t := &Table{ID: "abl-z",
				Title:   fmt.Sprintf("BA L=%d, N=%d: Z-step solver comparison", l, n),
				Columns: []string{"solver", "final E_Q", "final E_BA", "Z µs/point"}}
			for _, m := range []binauto.ZMethod{binauto.ZEnumerate, binauto.ZAlternate} {
				name := "enumerate (exact)"
				if m == binauto.ZAlternate {
					name = "alternate (approx)"
				}
				shards := dataset.ShardIndices(n, 4, nil)
				prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
					L: l, Mu0: 1e-3, MuFactor: 2, ZMethod: m, Seed: cfg.Seed,
				})
				eng := core.New(prob, core.Config{P: 4, Epochs: 1, Seed: cfg.Seed})
				start := time.Now()
				eng.Run(6)
				elapsed := time.Since(start)
				eng.Shutdown()
				eq, eba := prob.Stats()
				perPoint := float64(elapsed.Microseconds()) / float64(6*n)
				t.AddRow(name, f1(eq), f1(eba), f2(perPoint))
			}
			t.Notes = append(t.Notes,
				"alternating trades a small E_Q gap for per-point cost independent of 2^L",
				"timing includes the W step; the Z step dominates at these sizes")
			return []*Table{t}
		},
	})
}

// abl-groups: how many circulating decoder submodels to form (§5.4 groups
// the D decoders into L groups so all M = 2L units are equal-sized). The
// choice does not change the learning problem, only the parallelism and
// message sizes — exactly what the table shows.
func init() {
	register(Experiment{
		ID:    "abl-groups",
		Title: "ablation: decoder submodel grouping (§5.4)",
		Run: func(cfg RunConfig) []*Table {
			n, d, l := 1000, 32, 8
			if cfg.Quick {
				n = 400
			}
			ds, _ := dataset.WithQueries(n, 1, d, 8, cfg.Seed, true)
			t := &Table{ID: "abl-groups",
				Title:   fmt.Sprintf("BA L=%d, D=%d: decoder grouping", l, d),
				Columns: []string{"groups G", "submodels M", "final E_BA", "bytes/iter", "theory S(P=16)"}}
			for _, g := range []int{1, l / 2, l, d} {
				shards := dataset.ShardIndices(n, 4, nil)
				prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
					L: l, Mu0: 1e-3, MuFactor: 2, DecoderGroups: g, Seed: cfg.Seed,
				})
				eng := core.New(prob, core.Config{P: 4, Epochs: 1, Seed: cfg.Seed})
				res := eng.Run(5)
				eng.Shutdown()
				_, eba := prob.Stats()
				m := l + g
				th := speedup.Params{N: n, M: m, E: 1, TWr: 1, TWc: 100, TZr: 10}
				t.AddRow(d2(g), d2(m), f1(eba), d2(int(res[4].ModelBytes)), f1(th.Speedup(16)))
			}
			t.Notes = append(t.Notes,
				"G=L (the §5.4 default) balances submodel sizes and doubles W-step parallelism vs a single decoder unit",
				"quality is grouping-independent (same updates, different packaging)")
			return []*Table{t}
		},
	})
}

// abl-within: e circulation epochs vs e within-machine passes with a single
// circulation (§4.2's two-communication-round W step).
func init() {
	register(Experiment{
		ID:    "abl-within",
		Title: "ablation: circulation epochs vs within-machine passes (§4.2)",
		Run: func(cfg RunConfig) []*Table {
			n, d, l := 1200, 24, 8
			if cfg.Quick {
				n = 400
			}
			ds, _ := dataset.WithQueries(n, 1, d, 8, cfg.Seed, true)
			t := &Table{ID: "abl-within",
				Title:   "4 total passes per W step, packaged two ways",
				Columns: []string{"schedule", "final E_Q", "final E_BA", "model hops/iter"}}
			type sched struct {
				name           string
				epochs, within int
			}
			for _, s := range []sched{
				{"e=4 circulation epochs", 4, 1},
				{"e=1 epoch x 4 within-machine passes", 1, 4},
			} {
				shards := dataset.ShardIndices(n, 4, nil)
				prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
					L: l, Mu0: 1e-3, MuFactor: 2, Seed: cfg.Seed,
				})
				eng := core.New(prob, core.Config{P: 4, Epochs: s.epochs, Within: s.within, Seed: cfg.Seed})
				res := eng.Run(5)
				eng.Shutdown()
				eq, eba := prob.Stats()
				t.AddRow(s.name, f1(eq), f1(eba), d2(int(res[4].ModelMessages)))
			}
			t.Notes = append(t.Notes,
				"within-machine passes cut the W-step communication to ~2 rounds at a small shuffling loss (paper §4.2)")
			return []*Table{t}
		},
	})
}

func d2(v int) string { return fmt.Sprintf("%d", v) }
