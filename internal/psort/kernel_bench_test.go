package psort

import (
	"math/rand"
	"slices"
	"testing"

	"knlmlm/internal/workload"
)

// Kernel benchmarks: old vs new sort and merge paths, both legs of every
// pair in this file so one `go test -bench` run on one host reads a
// ratio. The baselines are internals of this package (the Pop drain
// against the batched one, the plain scatter against the tiled one,
// every digit against the planned ones) or the stdlib sort a caller
// would otherwise reach for (the typed 1e6 pairs CI floors at 1.5x).

// benchSortOf times sortFn on a fresh copy of src per iteration; the
// copy-back is outside the timed region.
func benchSortOf[T any](b *testing.B, src []T, bytes int, sortFn func([]T)) {
	buf := make([]T, len(src))
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, src)
		b.StartTimer()
		sortFn(buf)
	}
}

func benchSort(b *testing.B, n int, sortFn func([]int64)) {
	benchSortOf(b, workload.Generate(workload.Random, n, 1), n*8, sortFn)
}

func BenchmarkSerial1e6(b *testing.B) { benchSort(b, 1_000_000, Serial) }

func BenchmarkRadix1e6(b *testing.B) {
	scratch := make([]int64, 1_000_000)
	benchSort(b, 1_000_000, func(xs []int64) { RadixSortScratch(xs, scratch) })
}

func BenchmarkSerial1e5(b *testing.B) { benchSort(b, 100_000, Serial) }

func BenchmarkRadix1e5(b *testing.B) {
	scratch := make([]int64, 100_000)
	benchSort(b, 100_000, func(xs []int64) { RadixSortScratch(xs, scratch) })
}

// The typed kernels against the stdlib comparison sort over the same
// order (the conformance harness's reference comparators), 1e6 keys
// each: float64 in the bit-exact total order, and key+payload records.

func benchFloat64Sort(b *testing.B, sortFn func([]float64)) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 1_000_000)
	for i := range src {
		src[i] = rng.NormFloat64() * 1e6
	}
	benchSortOf(b, src, len(src)*8, sortFn)
}

func BenchmarkF64Stdlib1e6(b *testing.B) {
	benchFloat64Sort(b, func(xs []float64) { slices.SortFunc(xs, cmpFloat64Total) })
}

func BenchmarkF64Kernel1e6(b *testing.B) {
	scratch := make([]float64, 1_000_000)
	benchFloat64Sort(b, func(xs []float64) { SortFloat64sScratch(xs, scratch) })
}

func benchRecordSort(b *testing.B, sortFn func([]KV)) {
	rng := rand.New(rand.NewSource(2))
	src := make([]KV, 1_000_000)
	for i := range src {
		src[i] = KV{Key: rng.Int63(), Payload: int64(i)}
	}
	benchSortOf(b, src, len(src)*16, sortFn)
}

func BenchmarkRecStdlib1e6(b *testing.B) {
	benchRecordSort(b, func(rs []KV) { slices.SortFunc(rs, cmpKV) })
}

func BenchmarkRecKernel1e6(b *testing.B) {
	scratch := make([]KV, 1_000_000)
	benchRecordSort(b, func(rs []KV) { SortRecordsScratch(rs, scratch) })
}

func benchRuns(k, runLen int) [][]int64 {
	runs := make([][]int64, k)
	for i := range runs {
		r := workload.Generate(workload.Random, runLen, int64(i+1))
		Serial(r)
		runs[i] = r
	}
	return runs
}

// benchDrain times one drain of a freshly Reset tree over src: the
// production batched drain, or the per-element Pop reference.
func benchDrain[C cell](b *testing.B, src [][]int64, batched bool) {
	total := 0
	for _, r := range src {
		total += len(r)
	}
	dst := asCells[C](make([]int64, total))
	var lt loserTree[C]
	b.SetBytes(int64(total * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lt.Reset(src)
		b.StartTimer()
		if batched {
			lt.MergeInto(dst)
			continue
		}
		for n := 0; !lt.Empty(); n++ {
			dst[n] = lt.Pop()
		}
	}
}

func benchMergeK(b *testing.B, k, runLen int, batched bool) {
	benchDrain[[1]int64](b, benchRuns(k, runLen), batched)
}

func BenchmarkMergePerElementK8(b *testing.B)  { benchMergeK(b, 8, 100_000, false) }
func BenchmarkMergeBatchedK8(b *testing.B)     { benchMergeK(b, 8, 100_000, true) }
func BenchmarkMergePerElementK16(b *testing.B) { benchMergeK(b, 16, 50_000, false) }
func BenchmarkMergeBatchedK16(b *testing.B)    { benchMergeK(b, 16, 50_000, true) }

// benchRounds times MergeRounds over the same runs as benchMergeK, laid
// back to back in a spare, on one worker: the final merge's shape where
// the caller holds a buffer as large as the output. Each pass clobbers
// the spare, so it is refilled outside the timer.
func benchRounds(b *testing.B, k, runLen int) {
	runs := benchRuns(k, runLen)
	flat := slices.Concat(runs...)
	src, dst := make([]int64, len(flat)), make([]int64, len(flat))
	in := make([][]int64, k)
	for i := range in {
		in[i] = src[i*runLen : (i+1)*runLen]
	}
	var r rounds[[1]int64]
	b.SetBytes(int64(len(flat) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(src, flat)
		b.StartTimer()
		r.merge(dst, src, in, 1)
	}
}

// BenchmarkMergeRoundsK8 is BenchmarkMergeBatchedK8's runs through three
// rounds of the two-ended two-way merge instead of the 8-way tree; CI's
// pairwise-merge floor holds it at 1.2x the tree.
func BenchmarkMergeRoundsK8(b *testing.B) { benchRounds(b, 8, 100_000) }

// Blocky runs — each run holds contiguous key blocks, the shape produced
// by range-partitioned producers — where the batched drain's bulk copies
// dominate.
func benchBlockyRuns(k, runLen, blockLen int) [][]int64 {
	runs := make([][]int64, k)
	next := int64(0)
	for len(runs[k-1]) < runLen {
		for i := 0; i < k; i++ {
			for j := 0; j < blockLen && len(runs[i]) < runLen; j++ {
				runs[i] = append(runs[i], next)
				next++
			}
		}
	}
	return runs
}

func benchMergeKBlocky(b *testing.B, k, runLen int, batched bool) {
	benchDrain[[1]int64](b, benchBlockyRuns(k, runLen, 512), batched)
}

func BenchmarkMergePerElementK8Blocky(b *testing.B) { benchMergeKBlocky(b, 8, 100_000, false) }
func BenchmarkMergeBatchedK8Blocky(b *testing.B)    { benchMergeKBlocky(b, 8, 100_000, true) }

// The same drains at width 2: the blocky runs read as records (key,
// payload pairs of consecutive integers), still sorted by key.
func BenchmarkMergePerElementK8BlockyRecords(b *testing.B) {
	benchDrain[[2]int64](b, benchBlockyRuns(8, 100_000, 512), false)
}
func BenchmarkMergeBatchedK8BlockyRecords(b *testing.B) {
	benchDrain[[2]int64](b, benchBlockyRuns(8, 100_000, 512), true)
}

// benchScatter times the LSD core (no split) with the scatter forced, on
// cells cells of random keys viewed at width len(C). 256Ki cells is the
// service's block (a 1Mi-key job's megachunk) and the pair CI floors:
// block plus scratch are 4 MiB, twice L2, and production tiles there.
// 1<<23 cells (64 MiB) is where the 256 naked scatter streams miss TLB
// and L2 on every store; skipped under -short for its 128 MiB of buffers.
func benchScatter[C cell](b *testing.B, cells int, tiled bool) {
	if testing.Short() && cells >= 1<<23 {
		b.Skip("128 MiB working set")
	}
	src := workload.Generate(workload.Random, cells, 1)
	buf, scratch := make([]int64, cells), make([]int64, cells)
	b.SetBytes(int64(cells) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, src)
		b.StartTimer()
		radixSort(asCells[C](buf), asCells[C](scratch), nil, tiled, false)
	}
}

func BenchmarkRadixPlain256Ki(b *testing.B)        { benchScatter[[1]int64](b, 256<<10, false) }
func BenchmarkRadixTiled256Ki(b *testing.B)        { benchScatter[[1]int64](b, 256<<10, true) }
func BenchmarkScatterPlain8Mi(b *testing.B)        { benchScatter[[1]int64](b, 1<<23, false) }
func BenchmarkScatterTiled8Mi(b *testing.B)        { benchScatter[[1]int64](b, 1<<23, true) }
func BenchmarkScatterPlainRecords4Mi(b *testing.B) { benchScatter[[2]int64](b, 1<<23, false) }
func BenchmarkScatterTiledRecords4Mi(b *testing.B) { benchScatter[[2]int64](b, 1<<23, true) }

// benchSplit times the radix core on cells cells of random keys at
// width len(C), tiled, with the split on its top digit or without: the
// LSD core that scatters every planned digit across the whole buffer.
// 1Mi keys is a node-staged job's one megachunk and the pair CI floors.
func benchSplit[C cell](b *testing.B, cells int, split bool) {
	src := workload.Generate(workload.Random, cells, 1)
	buf, scratch := make([]int64, cells), make([]int64, cells)
	b.SetBytes(int64(cells) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, src)
		b.StartTimer()
		radixSort(asCells[C](buf), asCells[C](scratch), nil, true, split)
	}
}

func BenchmarkRadixLSD1Mi(b *testing.B)   { benchSplit[[1]int64](b, 1<<20, false) }
func BenchmarkRadixSplit1Mi(b *testing.B) { benchSplit[[1]int64](b, 1<<20, true) }

// benchPlan times the radix core on 96Ki random keys with the digit plan
// the kernel makes for them, or with plan 0: whole histograms and every
// digit scattered, the LSD sort before it diverted.
func benchPlan(b *testing.B, planned bool) {
	const n = 96 << 10
	src := workload.Generate(workload.Random, n, 1)
	buf, scratch := make([]int64, n), make([]int64, n)
	xs, sc := asCells[[1]int64](buf), asCells[[1]int64](scratch)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, src)
		b.StartTimer()
		if planned {
			radixSort(xs, sc, nil, false, false)
			continue
		}
		var counts [radixDigits][256]int
		radixCount(xs, &counts, 0, radixDigits)
		radixLSD(xs, sc, xs, &counts, 0, radixDigits-1, false)
	}
}

func BenchmarkRadixPlanned96Ki(b *testing.B)   { benchPlan(b, true) }
func BenchmarkRadixAllDigits96Ki(b *testing.B) { benchPlan(b, false) }

func benchMerge2(b *testing.B, n int, fn func(dst, a, b []int64)) {
	a := workload.Generate(workload.Random, n, 7)
	bb := workload.Generate(workload.Random, n, 8)
	Serial(a)
	Serial(bb)
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, a, bb)
	}
}

func BenchmarkMerge2Linear(b *testing.B) { benchMerge2(b, 500_000, linear2) }
func BenchmarkMerge2Gallop(b *testing.B) { benchMerge2(b, 500_000, Merge2) }

// The vector merge against the scalar fallback on 512Ki+512Ki random
// keys: CI's "Vector-merge floor" pair. Without AVX-512 both legs run the
// scalar merge.
func BenchmarkMerge2Vector(b *testing.B) { benchMerge2(b, 512<<10, Merge2) }

func BenchmarkMerge2Scalar(b *testing.B) {
	defer forceScalar()()
	benchMerge2(b, 512<<10, Merge2)
}

// linear2 is the reference merge at width 1, in Merge2's signature.
func linear2(dst, a, b []int64) {
	merge2Linear(asCells[[1]int64](dst), asCells[[1]int64](a), asCells[[1]int64](b))
}

// Structured inputs where galloping should shine: disjoint ranges.
func BenchmarkMerge2LinearDisjoint(b *testing.B) {
	n := 500_000
	a := make([]int64, n)
	bb := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i)
		bb[i] = int64(i + n)
	}
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linear2(dst, a, bb)
	}
}

func BenchmarkMerge2GallopDisjoint(b *testing.B) {
	n := 500_000
	a := make([]int64, n)
	bb := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i)
		bb[i] = int64(i + n)
	}
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge2(dst, a, bb)
	}
}
