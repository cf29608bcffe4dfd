package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClustersShapeAndDeterminism(t *testing.T) {
	cfg := ClusterConfig{N: 100, D: 8, Clusters: 4, Seed: 42}
	a, la := Clusters(cfg)
	b, lb := Clusters(cfg)
	if a.N != 100 || a.D != 8 {
		t.Fatalf("shape %dx%d", a.N, a.D)
	}
	for i := 0; i < a.N; i++ {
		if la[i] != lb[i] {
			t.Fatal("labels not deterministic")
		}
		pa, pb := a.Point(i, nil), b.Point(i, nil)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("points not deterministic")
			}
		}
		if la[i] < 0 || la[i] >= 4 {
			t.Fatalf("label out of range: %d", la[i])
		}
	}
	c, _ := Clusters(ClusterConfig{N: 100, D: 8, Clusters: 4, Seed: 43})
	if a.Point(0, nil)[0] == c.Point(0, nil)[0] {
		t.Fatal("different seeds should differ")
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 50, D: 6, Clusters: 3, Seed: 1})
	q := ds.Quantize()
	if !q.ByteBacked() {
		t.Fatal("Quantize must produce byte-backed dataset")
	}
	if q.MemoryBytes() != 50*6 {
		t.Fatalf("byte footprint = %d", q.MemoryBytes())
	}
	if ds.MemoryBytes() != 50*6*8 {
		t.Fatalf("float footprint = %d", ds.MemoryBytes())
	}
	// Quantisation error bounded by half a step of the range.
	m := ds.Matrix()
	lo, hi := m.Data[0], m.Data[0]
	for _, v := range m.Data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	step := (hi - lo) / 255
	buf := make([]float64, 6)
	for i := 0; i < 50; i++ {
		orig := ds.Point(i, nil)
		got := q.Point(i, buf)
		for j := range orig {
			if math.Abs(orig[j]-got[j]) > step {
				t.Fatalf("quantisation error %v exceeds step %v", math.Abs(orig[j]-got[j]), step)
			}
		}
	}
}

func TestPointAliasingAndCopy(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 10, D: 4, Clusters: 2, Seed: 2})
	dst := make([]float64, 4)
	p := ds.Point(3, dst)
	if &p[0] != &dst[0] {
		t.Fatal("Point must use provided dst")
	}
	alias := ds.Point(3, nil)
	if alias[0] != dst[0] {
		t.Fatal("copies disagree")
	}
}

func TestGatherMatchesPoint(t *testing.T) {
	fl, _ := Clusters(ClusterConfig{N: 30, D: 9, Clusters: 3, Seed: 4})
	dims := []int{8, 0, 3, 3, 5}
	for _, ds := range []*Dataset{fl, fl.Quantize()} {
		for i := 0; i < ds.N; i++ {
			full := ds.Point(i, make([]float64, ds.D))
			got := ds.Gather(i, dims, make([]float64, len(dims)+2))
			if len(got) != len(dims) {
				t.Fatalf("byte-backed %v: Gather returned %d values, want %d", ds.ByteBacked(), len(got), len(dims))
			}
			for k, j := range dims {
				if math.Float64bits(got[k]) != math.Float64bits(full[j]) {
					t.Fatalf("byte-backed %v: point %d dim %d: Gather %v, Point %v", ds.ByteBacked(), i, j, got[k], full[j])
				}
			}
		}
		if got := ds.Gather(2, nil, nil); len(got) != 0 {
			t.Fatalf("empty gather returned %d values", len(got))
		}
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 20, D: 3, Clusters: 2, Seed: 3})
	sub := ds.Subset([]int{5, 7, 9})
	if sub.N != 3 || sub.D != 3 {
		t.Fatal("subset shape wrong")
	}
	want := ds.Point(7, nil)
	got := sub.Point(1, nil)
	for j := range want {
		if want[j] != got[j] {
			t.Fatal("subset content wrong")
		}
	}
}

func TestShardIndicesEqual(t *testing.T) {
	shards := ShardIndices(10, 4, nil)
	sizes := []int{3, 3, 2, 2}
	seen := map[int]bool{}
	for i, s := range shards {
		if len(s) != sizes[i] {
			t.Fatalf("shard %d size %d, want %d", i, len(s), sizes[i])
		}
		for _, idx := range s {
			if seen[idx] {
				t.Fatalf("index %d in two shards", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("union covers %d of 10", len(seen))
	}
}

func TestShardSizesWeighted(t *testing.T) {
	// α = (1, 3): machine 2 is 3× faster so gets 3× the data (§4.3).
	sizes := ShardSizes(100, 2, []float64{1, 3})
	if sizes[0] != 25 || sizes[1] != 75 {
		t.Fatalf("weighted sizes = %v", sizes)
	}
}

func TestShardSizesProperty(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		p := int(pRaw)%16 + 1
		sizes := ShardSizes(n, p, nil)
		total := 0
		minSz, maxSz := sizes[0], sizes[0]
		for _, s := range sizes {
			total += s
			if s < minSz {
				minSz = s
			}
			if s > maxSz {
				maxSz = s
			}
		}
		// Exact cover and near-perfect balance.
		return total == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShardSizesWeightedProperty(t *testing.T) {
	f := func(nRaw uint16, w1, w2, w3 uint8) bool {
		n := int(nRaw)%3000 + 3
		w := []float64{float64(w1%7 + 1), float64(w2%7 + 1), float64(w3%7 + 1)}
		sizes := ShardSizes(n, 3, w)
		total := 0
		wsum := w[0] + w[1] + w[2]
		for i, s := range sizes {
			total += s
			exact := float64(n) * w[i] / wsum
			if math.Abs(float64(s)-exact) > 1 {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledShardIndicesCoverAll(t *testing.T) {
	shards := ShuffledShardIndices(37, 5, nil, 7)
	seen := map[int]bool{}
	for _, s := range shards {
		for _, idx := range s {
			if seen[idx] {
				t.Fatal("duplicate index")
			}
			seen[idx] = true
		}
	}
	if len(seen) != 37 {
		t.Fatalf("covered %d of 37", len(seen))
	}
}

func TestTrainTestSplit(t *testing.T) {
	tr, te := TrainTestSplit(100, 80, 1)
	if len(tr) != 80 || len(te) != 20 {
		t.Fatal("split sizes wrong")
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, tr...), te...) {
		if seen[i] {
			t.Fatal("overlap between train and test")
		}
		seen[i] = true
	}
}

func TestStreamProducesFreshBatches(t *testing.T) {
	s := NewStream(ClusterConfig{N: 0, D: 4, Clusters: 2, Seed: 9})
	b1 := s.Next(10)
	b2 := s.Next(10)
	if b1.N != 10 || b2.N != 10 {
		t.Fatal("batch size wrong")
	}
	same := true
	for j := 0; j < 4; j++ {
		if b1.Point(0, nil)[j] != b2.Point(0, nil)[j] {
			same = false
		}
	}
	if same {
		t.Fatal("stream batches should differ")
	}
}

func TestSIFTLikeIsByteBacked(t *testing.T) {
	ds := SIFTLike(64, 16, 4, 11)
	if !ds.ByteBacked() {
		t.Fatal("SIFTLike must be byte-backed")
	}
	if ds.N != 64 || ds.D != 16 {
		t.Fatal("shape wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := Clusters(ClusterConfig{N: 25, D: 4, Clusters: 3, Seed: 30})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 25 || back.D != 4 {
		t.Fatalf("shape %dx%d", back.N, back.D)
	}
	for i := 0; i < 25; i++ {
		a, b := ds.Point(i, nil), back.Point(i, nil)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("point %d dim %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestLoadCSVSkipsHeader(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("x,y\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 2 || ds.D != 2 || ds.Point(1, nil)[0] != 3 {
		t.Fatalf("parsed %dx%d", ds.N, ds.D)
	}
}

func TestLoadCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"",              // empty
		"a,b\n",         // header only
		"1,2\n3\n",      // ragged
		"1,2\n3,oops\n", // non-numeric past the header
	}
	for i, c := range cases {
		if _, err := LoadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestManifoldGeneratorProperties(t *testing.T) {
	base, queries := ManifoldWithQueries(100, 10, 8, 3, 31)
	if base.N != 100 || queries.N != 10 || base.D != 8 {
		t.Fatal("shapes wrong")
	}
	// Deterministic.
	b2, _ := ManifoldWithQueries(100, 10, 8, 3, 31)
	for j, v := range base.Point(0, nil) {
		if b2.Point(0, nil)[j] != v {
			t.Fatal("manifold not deterministic")
		}
	}
	// Bounded by sin(±1) plus noise.
	for i := 0; i < base.N; i++ {
		for _, v := range base.Point(i, nil) {
			if math.Abs(v) > 1.5 {
				t.Fatalf("value %v out of range", v)
			}
		}
	}
}
