package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"knlmlm/internal/mem"
)

func checkScatter(t *testing.T, keys []int64, pl plan) {
	t.Helper()
	total := 0
	for _, p := range pl.parts {
		total += len(p)
	}
	if total != len(keys) {
		t.Fatalf("scatter lost keys: %d of %d", total, len(keys))
	}
	// Ranges must be disjoint and ordered: every element of partition i
	// is strictly below every element of partition i+1 once duplicates
	// are pinned to one side — i.e. max(part i) < min(part i+1) OR the
	// boundary value appears only on one side.
	for i := 0; i+1 < len(pl.parts); i++ {
		a, b := pl.parts[i], pl.parts[i+1]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		maxA, minB := a[0], b[0]
		for _, v := range a {
			if v > maxA {
				maxA = v
			}
		}
		for _, v := range b {
			if v < minB {
				minB = v
			}
		}
		if maxA >= minB {
			t.Fatalf("partitions %d and %d overlap: max %d >= min %d", i, i+1, maxA, minB)
		}
	}
}

func TestPartitionDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, 40000)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	weights := []float64{1, 1, 1, 1}
	pl := partition(keys, weights, 0.02, 2.5, rng, nil)
	if len(pl.parts) != 4 || len(pl.splitters) != 3 {
		t.Fatalf("got %d parts / %d splitters, want 4/3", len(pl.parts), len(pl.splitters))
	}
	checkScatter(t, keys, pl)
	if pl.skew > 1.6 {
		t.Fatalf("uniform keys, equal weights: skew %.2f implausibly high", pl.skew)
	}
}

func TestPartitionWeightedShares(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, 60000)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	// Backend capacities 3:1 — the heavy partition should get about 3x
	// the keys of the light one.
	weights := []float64{3, 1}
	pl := partition(keys, weights, 0.02, 2.5, rng, nil)
	checkScatter(t, keys, pl)
	ratio := float64(len(pl.parts[0])) / float64(len(pl.parts[1]))
	if ratio < 2.2 || ratio > 4.0 {
		t.Fatalf("weighted 3:1 split produced ratio %.2f (sizes %d/%d)",
			ratio, len(pl.parts[0]), len(pl.parts[1]))
	}
}

func TestPartitionDuplicatesStayTogether(t *testing.T) {
	// Heavy duplication: only 5 distinct values across 10k keys. Each
	// distinct value must land in exactly one partition.
	rng := rand.New(rand.NewSource(99))
	keys := make([]int64, 10000)
	for i := range keys {
		keys[i] = int64(rng.Intn(5)) * 1000
	}
	pl := partition(keys, []float64{1, 1, 1}, 0.05, 2.5, rng, nil)
	checkScatter(t, keys, pl)
	home := map[int64]int{}
	for pi, p := range pl.parts {
		for _, v := range p {
			if prev, seen := home[v]; seen && prev != pi {
				t.Fatalf("value %d split across partitions %d and %d", v, prev, pi)
			}
			home[v] = pi
		}
	}
}

func TestPartitionSkewGuardResamples(t *testing.T) {
	// All keys identical: no splitter set can balance this, so the skew
	// guard must fire its one resample and then accept the plan rather
	// than loop.
	keys := make([]int64, 8000)
	rng := rand.New(rand.NewSource(3))
	pl := partition(keys, []float64{1, 1, 1, 1}, 0.02, 1.5, rng, nil)
	checkScatter(t, keys, pl)
	if !pl.resampled {
		t.Fatal("degenerate distribution did not trigger the skew resample")
	}
	if pl.skew < 3.9 {
		t.Fatalf("all-equal keys in 4 parts: skew %.2f, want ~4", pl.skew)
	}
}

func TestPartitionSinglePartPassthrough(t *testing.T) {
	keys := []int64{5, 3, 1}
	pl := partition(keys, []float64{1}, 0.1, 2.5, rand.New(rand.NewSource(1)), nil)
	if len(pl.parts) != 1 || len(pl.parts[0]) != 3 {
		t.Fatalf("single-part plan mangled the keys: %+v", pl.parts)
	}
}

func TestSampleSplittersSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	sp := sampleSplitters(keys, []float64{1, 2, 1, 2}, 200, rng)
	if !sort.SliceIsSorted(sp, func(i, j int) bool { return sp[i] < sp[j] }) {
		t.Fatalf("splitters not sorted: %v", sp)
	}
}

// searchScatter is the scatter the counted one replaced, kept as its
// reference: a binary search per key (first i with key < splitters[i])
// and an append into a slice pre-sized to the partition's weighted
// target.
func searchScatter(keys []int64, splitters []int64, weights []float64) [][]int64 {
	out := make([][]int64, len(splitters)+1)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	for i := range out {
		target := int(float64(len(keys))*weights[i]/wsum) + 16
		out[i] = make([]int64, 0, target+target/8)
	}
	for _, k := range keys {
		p := sort.Search(len(splitters), func(i int) bool { return k < splitters[i] })
		out[p] = append(out[p], k)
	}
	return out
}

// searchSkew is the skew the reference measured, from partition lengths.
func searchSkew(parts [][]int64, weights []float64, n int) float64 {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	worst := 0.0
	for i, p := range parts {
		target := max(float64(n)*weights[i]/wsum, 1)
		worst = max(worst, float64(len(p))/target)
	}
	return worst
}

func TestScatterMatchesSearchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randKeys := func(n int, span int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(span) - span/2
		}
		return keys
	}
	// fromKeys draws sorted splitters from the keys, so keys equal to
	// splitters are the common case.
	fromKeys := func(keys []int64, parts int) []int64 {
		sp := make([]int64, parts-1)
		for i := range sp {
			sp[i] = keys[rng.Intn(len(keys))]
		}
		slices.Sort(sp)
		return sp
	}
	// repeated gives every three splitters one value: the partitions
	// between duplicate splitters are empty.
	repeated := func(_ []int64, parts int) []int64 {
		sp := make([]int64, parts-1)
		for i := range sp {
			sp[i] = int64(i/3) * 10
		}
		return sp
	}
	extremes := func(_ []int64, parts int) []int64 {
		sp := make([]int64, parts-1)
		for i := range sp {
			sp[i] = math.MaxInt64
			if i < len(sp)/2 {
				sp[i] = math.MinInt64
			}
		}
		return sp
	}
	// above puts every splitter above the keys: every partition but the
	// first is empty.
	above := func(_ []int64, parts int) []int64 {
		sp := make([]int64, parts-1)
		for i := range sp {
			sp[i] = 1<<40 + int64(i)
		}
		return sp
	}
	edgeKeys := append(randKeys(300, 100), math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64, 0)
	rng.Shuffle(len(edgeKeys), func(i, j int) { edgeKeys[i], edgeKeys[j] = edgeKeys[j], edgeKeys[i] })
	cases := []struct {
		name      string
		keys      []int64
		splitters func(keys []int64, parts int) []int64
	}{
		{"random", randKeys(5000, 1<<40), fromKeys},
		{"few-distinct", randKeys(3000, 40), fromKeys},
		{"duplicate-splitters", randKeys(2000, 60), repeated},
		{"min-max-splitters", edgeKeys, extremes},
		{"min-max-keys", edgeKeys, fromKeys},
		{"all-equal", make([]int64, 1000), fromKeys},
		{"empty-parts", randKeys(1000, 1000), above},
		{"n=1", []int64{42}, fromKeys},
	}
	for _, c := range cases {
		for parts := 1; parts <= 17; parts++ {
			sp := c.splitters(c.keys, parts)
			weights := make([]float64, parts)
			for i := range weights {
				weights[i] = 0.5 + rng.Float64()
			}
			counts := make([]int, parts)
			countBuckets(c.keys, sp, counts)
			got := scatter(c.keys, sp, counts, make([]int64, len(c.keys)))
			want := searchScatter(c.keys, sp, weights)
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s, %d parts, splitters %v: partition %d is %v, reference %v",
						c.name, parts, sp, i, got[i], want[i])
				}
			}
			if g, w := planSkew(counts, weights, len(c.keys)), searchSkew(want, weights, len(c.keys)); g != w {
				t.Fatalf("%s, %d parts: counted skew %v, reference %v", c.name, parts, g, w)
			}
		}
	}
}

func TestPartitionResampleScattersOnce(t *testing.T) {
	// All-equal keys force the resample; the plan kept is still
	// scattered once, into the one buffer drawn from the pool.
	keys := make([]int64, 8000)
	pool := mem.NewSlicePool()
	pl := partition(keys, []float64{1, 1, 1, 1}, 0.02, 1.5, rand.New(rand.NewSource(3)), pool)
	checkScatter(t, keys, pl)
	if !pl.resampled {
		t.Fatal("degenerate distribution did not trigger the skew resample")
	}
	if st := pool.Stats(); st.Gets != 1 {
		t.Fatalf("resampled plan drew %d buffers, want 1", st.Gets)
	}
	off := 0
	for i, p := range pl.parts {
		if !slices.Equal(p, pl.buf[off:off+len(p)]) || (len(p) > 0 && &p[0] != &pl.buf[off]) {
			t.Fatalf("partition %d is not the job buffer's region at %d", i, off)
		}
		off += len(p)
	}
}

// scatterBenchKeys is the benchmark input: 1Mi random keys and the
// splitters of 4 equal partitions.
func scatterBenchKeys() ([]int64, []int64, []float64) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	weights := []float64{1, 1, 1, 1}
	return keys, sampleSplitters(keys, weights, len(keys)/100, rng), weights
}

// BenchmarkScatter is the coordinator's counted scatter: one counting
// pass and one write pass into one buffer.
func BenchmarkScatter(b *testing.B) {
	keys, sp, weights := scatterBenchKeys()
	counts := make([]int, len(weights))
	buf := make([]int64, len(keys))
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countBuckets(keys, sp, counts)
		scatter(keys, sp, counts, buf)
	}
}

// BenchmarkScatterSearch is the reference it replaced: a binary search
// and an append per key.
func BenchmarkScatterSearch(b *testing.B) {
	keys, sp, weights := scatterBenchKeys()
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchScatter(keys, sp, weights)
	}
}
