package binauto

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/retrieval"
	"repro/internal/vec"
)

func makeShards(n, d, l, p int, seed int64) []*Shard {
	ds := dataset.GISTLike(n, d, 4, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	var shards []*Shard
	for _, idx := range dataset.ShardIndices(n, p, nil) {
		z := retrieval.NewCodes(len(idx), l)
		for i := range idx {
			for b := 0; b < l; b++ {
				z.SetBit(i, b, rng.Intn(2) == 1)
			}
		}
		shards = append(shards, &Shard{X: shardPoints{ds, idx}, Z: z})
	}
	return shards
}

func TestDistributedFitMatchesSerialOracle(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		shards := makeShards(200, 6, 4, p, int64(p)*100)
		// Vary the per-machine cross-product pool with the shard count to
		// cover both serial and chunked accumulation.
		dist, stats, err := FitDecoderExactDistributed(shards, 4, 6, 0.1, p)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := fitDecoderExactSerialOracle(shards, 4, 6, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if vec.MaxAbsDiff(dist.W, oracle.W) > 1e-8 {
			t.Fatalf("P=%d: distributed W differs from oracle by %v", p, vec.MaxAbsDiff(dist.W, oracle.W))
		}
		for j := range dist.C {
			if diff := dist.C[j] - oracle.C[j]; diff > 1e-8 || diff < -1e-8 {
				t.Fatalf("P=%d: bias differs", p)
			}
		}
		if p > 1 && stats.Bytes == 0 {
			t.Fatal("distributed fit should move bytes")
		}
	}
}

func TestDistributedFitCommunicationCost(t *testing.T) {
	// §6's point: the exact aggregation moves Gram-matrix-sized messages,
	// far larger than the submodels ParMAC circulates.
	l, d := 8, 16
	shards := makeShards(300, d, l, 4, 7)
	_, stats, err := FitDecoderExactDistributed(shards, l, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	perMachine := 8 * ((l+1)*(l+1) + (l+1)*d)
	// 3 non-root contributions (the root's own is free).
	if stats.Bytes < int64(3*perMachine) {
		t.Fatalf("bytes = %d, want >= %d", stats.Bytes, 3*perMachine)
	}
}

func TestDistributedFitImprovesReconstruction(t *testing.T) {
	// Plugging the exact decoder into a model must give the optimal
	// reconstruction for the current codes: no perturbation improves it.
	shards := makeShards(150, 5, 4, 3, 9)
	dec, _, err := FitDecoderExactDistributed(shards, 4, 5, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(5, 4, 0)
	m.Dec = dec
	var base float64
	for _, sh := range shards {
		base += m.EQ(sh.X, sh.Z, 0)
	}
	m2 := m.Clone()
	m2.Dec.W.Add(1, 1, 0.05)
	var pert float64
	for _, sh := range shards {
		pert += m2.EQ(sh.X, sh.Z, 0)
	}
	if pert < base-1e-9 {
		t.Fatal("exact distributed decoder is not optimal")
	}
}
