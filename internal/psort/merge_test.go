package psort

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"knlmlm/internal/race"
)

// drainBoth runs the batched loser-tree drain and the per-element Pop
// drain over identical runs, at both cell widths, and fails on any
// divergence between them or from the stable sort of the concatenation:
// the two drains share the replay, so agreeing with each other is not
// enough. At width 2 every key carries (run, position) as its payload,
// so divergence includes any departure from the stable order.
func drainBoth(t *testing.T, label string, runs [][]int64) {
	t.Helper()
	records := make([][]int64, len(runs))
	for i, r := range runs {
		records[i] = make([]int64, 0, 2*len(r))
		for j, key := range r {
			records[i] = append(records[i], key, int64(i)<<32|int64(j))
		}
	}
	keys := slices.Concat(runs...)
	slices.Sort(keys)
	recs := slices.Clone(KVsFromInt64s(slices.Concat(records...)))
	slices.SortStableFunc(recs, cmpKV)
	wants := [][]int64{keys, Int64sFromKVs(recs)}
	for width, in := range [][][]int64{runs, records} {
		want := wants[width]
		pop, got := make([]int64, len(want)), make([]int64, len(want))
		if width == 0 {
			popDrain[[1]int64](pop, in)
			batchedDrain[[1]int64](got, in)
		} else {
			popDrain[[2]int64](pop, in)
			batchedDrain[[2]int64](got, in)
		}
		for i := range want {
			if got[i] != want[i] || pop[i] != want[i] {
				t.Fatalf("%s: width-%d drains diverge at cell %d: batched %d, Pop %d, stable sort %d", label, width+1, i, got[i], pop[i], want[i])
			}
		}
	}
}

func TestMergeIntoBatchedMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(15)
		runs := makeRuns(rng, k, 80)
		drainBoth(t, "random", runs)
	}
}

func TestMergeIntoBatchedAdversarial(t *testing.T) {
	seq := func(lo, n int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = lo + int64(i)
		}
		return out
	}
	rep := func(v int64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := map[string][][]int64{
		"empty-tree":     {},
		"all-empty-runs": {{}, {}, {}},
		"some-empty":     {{}, {5}, {}, {1, 9}, {}, {}},
		"single-run":     {seq(0, 100)},
		"all-equal":      {rep(3, 50), rep(3, 50), rep(3, 50)},
		"disjoint-long":  {seq(0, 1000), seq(1000, 1000), seq(2000, 1000)},
		"interleaved":    {{0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}},
		"negative-keys":  {seq(-500, 300), seq(-100, 300), rep(-7, 40)},
		"extremes": {
			{math.MinInt64, 0, math.MaxInt64},
			{math.MinInt64, math.MinInt64 + 1},
			{math.MaxInt64 - 1, math.MaxInt64},
		},
		"one-long-many-short": {seq(0, 5000), {2500}, {1}, {4999}},
		"sawtooth-runs": {
			{0, 0, 1, 1, 2, 2},
			{0, 1, 2},
			rep(1, 20),
		},
	}
	for name, runs := range cases {
		drainBoth(t, name, runs)
	}
}

func TestMergeIntoBatchedKPowers(t *testing.T) {
	// Non-power-of-two k exercises the +inf padding leaves.
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 5, 7, 8, 9, 16, 17, 33} {
		runs := makeRuns(rng, k, 64)
		drainBoth(t, "k-pad", runs)
	}
}

func TestMerge2MatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		runs := makeRuns(rng, 2, 400)
		a, b := runs[0], runs[1]
		want := make([]int64, len(a)+len(b))
		merge2Linear(want, a, b)
		got := make([]int64, len(a)+len(b))
		Merge2(got, a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: gallop Merge2 diverges at %d", trial, i)
			}
		}
	}
}

func TestMerge2GallopsLongStreaks(t *testing.T) {
	// Disjoint ranges: the gallop path must bulk-copy and stay correct.
	a := make([]int64, 10_000)
	b := make([]int64, 10_000)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i + len(a))
	}
	dst := make([]int64, len(a)+len(b))
	Merge2(dst, a, b)
	for i := range dst {
		if dst[i] != int64(i) {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	// And the reverse interleaving order.
	Merge2(dst[:15000], b[:5000], a)
	want := make([]int64, 0, 15000)
	want = append(want, a...)
	want = append(want, b[:5000]...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range dst[:15000] {
		if dst[i] != want[i] {
			t.Fatalf("reverse: dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestGallopBounds(t *testing.T) {
	run := asCells[[1]int64]([]int64{1, 1, 2, 2, 2, 3, 5, 5, 9})
	cases := []struct {
		v      int64
		le, lt int
	}{
		{0, 0, 0},
		{1, 2, 0},
		{2, 5, 2},
		{3, 6, 5},
		{4, 6, 6},
		{5, 8, 6},
		{9, 9, 8},
		{10, 9, 9},
	}
	for _, c := range cases {
		if got := gallopLE(run, c.v); got != c.le {
			t.Errorf("gallopLE(%d) = %d, want %d", c.v, got, c.le)
		}
		if got := gallopLT(run, c.v); got != c.lt {
			t.Errorf("gallopLT(%d) = %d, want %d", c.v, got, c.lt)
		}
	}
	if gallopLE[[1]int64](nil, 5) != 0 || gallopLT[[1]int64](nil, 5) != 0 {
		t.Error("empty run should gallop to 0")
	}
	// Long uniform run: the exponential probe must clamp at len.
	long := make([][1]int64, 1000)
	if got := gallopLE(long, 0); got != 1000 {
		t.Errorf("gallopLE over uniform run = %d", got)
	}
}

func TestMergeKStillCorrectAfterBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		runs := makeRuns(rng, 1+rng.Intn(12), 60)
		all := flatten(runs)
		dst := make([]int64, len(all))
		MergeK(dst, runs...)
		checkSorted(t, "MergeK batched", dst, all)
	}
}

func TestMergeIntoBatchedAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	// The drain itself (tree already built) must not allocate.
	mk := func() *loserTree[[1]int64] {
		runs := make([][]int64, 8)
		for i := range runs {
			r := make([]int64, 1000)
			for j := range r {
				r[j] = int64(j*8 + i)
			}
			runs[i] = r
		}
		lt := new(loserTree[[1]int64])
		lt.Reset(runs)
		return lt
	}
	dst := make([][1]int64, 8000)
	trees := make([]*loserTree[[1]int64], 6)
	for i := range trees {
		trees[i] = mk()
	}
	next := 0
	allocs := testing.AllocsPerRun(5, func() {
		trees[next].MergeInto(dst)
		next++
	})
	if allocs != 0 {
		t.Errorf("MergeInto allocates %.1f times per drain", allocs)
	}
}

// fuzzRuns decodes the batched-drain fuzz input: data is little-endian
// keys, dealt to runs in order, lens[r] keys to run r and the rest to
// one last run, so the fan-in is 1..17 and any mix of run lengths is one
// mutation away. Each run is then sorted.
func fuzzRuns(data, lens []byte) [][]int64 {
	xs := bytesToInt64s(data)
	lens = lens[:min(len(lens), 16)]
	runs := make([][]int64, 0, len(lens)+1)
	for _, l := range lens {
		n := min(int(l), len(xs))
		runs, xs = append(runs, xs[:n]), xs[n:]
	}
	runs = append(runs, xs)
	for _, r := range runs {
		slices.Sort(r)
	}
	return runs
}

// fuzzSeed encodes sorted runs as fuzzRuns input; every run but the last
// must be shorter than 256.
func fuzzSeed(runs [][]int64) (data, lens []byte) {
	for i, r := range runs {
		if i < len(runs)-1 {
			lens = append(lens, byte(len(r)))
		}
		for _, v := range r {
			data = binary.LittleEndian.AppendUint64(data, uint64(v))
		}
	}
	return data, lens
}

func FuzzMergeBatchedMatchesPerElement(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1}, []byte{1, 0, 0, 0})
	for _, s := range runShapes() {
		data, lens := fuzzSeed(s.keys)
		f.Add(data, lens)
	}
	f.Fuzz(func(t *testing.T, data, lens []byte) {
		drainBoth(t, "fuzz", fuzzRuns(data, lens))
	})
}

func FuzzMerge2MatchesLinear(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{}, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a := bytesToInt64s(da)
		b := bytesToInt64s(db)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		want := make([]int64, len(a)+len(b))
		merge2Linear(want, a, b)
		got := make([]int64, len(a)+len(b))
		Merge2(got, a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gallop Merge2 diverges at %d", i)
			}
		}
	})
}
