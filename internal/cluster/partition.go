package cluster

import (
	"math/rand"
	"slices"

	"knlmlm/internal/mem"
)

// Range partitioning: the coordinator splits a job's keys into P
// disjoint key ranges sized to the backends' measured capacity, so each
// backend sorts a share proportional to what it can actually absorb and
// the result is the partitions' sorted streams concatenated.
//
// Splitters come from a sorted random sample, whose cost is bounded by
// the sample rate. One counting pass then sizes every partition, the
// skew guard below reads its verdict off the counts and catches the
// rare bad sample, and one write pass scatters each key once into its
// partition's exact-size region of the job buffer. Duplicate keys never
// straddle a splitter — partition i holds
// [splitter[i-1], splitter[i]) — so equal keys always land together and
// the concatenated partition results are a correct total order.

// plan is one partitioning decision: P-1 splitters plus the measured
// outcome of applying them.
type plan struct {
	// splitters are the P-1 range bounds; partition i holds keys k with
	// splitters[i-1] <= k < splitters[i] (open ends at the extremes).
	splitters []int64
	// parts are the scattered key slices, one per partition, in range
	// order. With more than one partition they are consecutive regions
	// of buf.
	parts [][]int64
	// buf is the one job buffer the parts share: drawn from the pool
	// partition was given, or the input itself when the plan is one
	// partition.
	buf []int64
	// skew is the worst partition's overfill ratio: its actual size over
	// its weight-proportional target. 1.0 is a perfect split.
	skew float64
	// resampled reports whether the skew guard forced a second, larger
	// sample.
	resampled bool
}

// sampleSplitters draws a random sample of keys, sorts it, and reads the
// splitters off the sample's weighted quantiles: partition i's target
// share is weights[i] of the total, so its splitter sits at the sample
// index where the cumulative weight crosses. sampleLen is clamped to
// [parts*8, len(keys)] — too small a sample cannot resolve P quantiles.
func sampleSplitters(keys []int64, weights []float64, sampleLen int, rng *rand.Rand) []int64 {
	parts := len(weights)
	if sampleLen < parts*8 {
		sampleLen = parts * 8
	}
	if sampleLen > len(keys) {
		sampleLen = len(keys)
	}
	sample := make([]int64, sampleLen)
	if sampleLen == len(keys) {
		copy(sample, keys)
	} else {
		for i := range sample {
			sample[i] = keys[rng.Intn(len(keys))]
		}
	}
	slices.Sort(sample)

	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	splitters := make([]int64, 0, parts-1)
	cum := 0.0
	for i := 0; i < parts-1; i++ {
		cum += weights[i] / wsum
		idx := int(cum * float64(len(sample)))
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		splitters = append(splitters, sample[idx])
	}
	return splitters
}

// bucket is k's partition: the number of splitters <= k. Duplicates of
// a splitter value therefore all land above it, together. The count is
// one compare and one conditional add per splitter with no branch on
// the key, which for the handful of splitters a job has beats a binary
// search whose every step is a mispredicted branch.
func bucket(splitters []int64, k int64) int {
	b := 0
	for _, s := range splitters {
		le := 0 // a conditional set: the compiler emits SETLE, not a jump
		if s <= k {
			le = 1
		}
		b += le
	}
	return b
}

// countBuckets sets counts[i] to the number of keys in partition i.
func countBuckets(keys, splitters []int64, counts []int) {
	clear(counts)
	for _, k := range keys {
		counts[bucket(splitters, k)]++
	}
}

// scatter writes every key once into buf, partition after partition,
// each partition an exact-size region sized by counts and holding its
// keys in input order, and returns the regions.
func scatter(keys, splitters []int64, counts []int, buf []int64) [][]int64 {
	parts := make([][]int64, len(counts))
	next := make([]int, len(counts))
	off := 0
	for i, c := range counts {
		parts[i] = buf[off : off+c : off+c]
		next[i] = off
		off += c
	}
	for _, k := range keys {
		b := bucket(splitters, k)
		buf[next[b]] = k
		next[b]++
	}
	return parts
}

// planSkew measures the worst overfill: partition size relative to its
// weight-proportional target. Empty targets (zero weight) are guarded by
// the router's weight floor.
func planSkew(counts []int, weights []float64, n int) float64 {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	worst := 0.0
	for i, c := range counts {
		target := float64(n) * weights[i] / wsum
		if target < 1 {
			target = 1
		}
		if r := float64(c) / target; r > worst {
			worst = r
		}
	}
	return worst
}

// partition builds the job's scatter plan: sample, split, count, measure
// skew, and — when the sample produced a partition more than skewLimit
// times its target — resample once at 4x the sample size and keep the
// better plan. One bounded retry: a pathological key distribution (all
// keys equal, say) cannot be fixed by sampling harder, and the gather is
// correct under any skew; the limit only protects balance. The skew is
// read from counts, so only the plan kept is scattered: every key is
// written once, into one buffer from pool (nil allocates).
func partition(keys []int64, weights []float64, sampleRate, skewLimit float64, rng *rand.Rand, pool *mem.SlicePool) plan {
	if len(weights) == 1 {
		return plan{parts: [][]int64{keys}, buf: keys, skew: 1}
	}
	sampleLen := int(sampleRate * float64(len(keys)))
	pl := plan{splitters: sampleSplitters(keys, weights, sampleLen, rng)}
	counts := make([]int, len(weights))
	countBuckets(keys, pl.splitters, counts)
	pl.skew = planSkew(counts, weights, len(keys))
	if pl.skew > skewLimit {
		re := sampleSplitters(keys, weights, 4*sampleLen, rng)
		reCounts := make([]int, len(weights))
		countBuckets(keys, re, reCounts)
		if reSkew := planSkew(reCounts, weights, len(keys)); reSkew < pl.skew {
			pl.splitters, counts, pl.skew = re, reCounts, reSkew
		}
		pl.resampled = true
	}
	pl.buf = pool.GetOrAlloc(len(keys))
	pl.parts = scatter(keys, pl.splitters, counts, pl.buf)
	return pl
}
