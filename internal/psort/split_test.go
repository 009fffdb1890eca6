package psort

import (
	"math/rand"
	"slices"
	"testing"

	"knlmlm/internal/race"
)

// splitClasses are the inputs the split is decided on, n keys each: the
// diverting radix's classes, groups of 65 to 300 keys that share their
// top 40 bits, and two made for the split: a constant top digit, and a
// top digit one bucket of which holds over half the keys.
func splitClasses(n int, rng *rand.Rand) []genCase[int64] {
	gen := func(f func(i int) int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	uniform := func(int) int64 { return int64(rng.Uint64()) }
	var sixteen [16]int64
	for i := range sixteen {
		sixteen[i] = int64(rng.Uint64())
	}
	rep := func(b uint64, digits ...int) (u uint64) {
		for _, d := range digits {
			u |= b << (8 * d)
		}
		return u
	}
	var groups []int64
	for len(groups) < n {
		prefix := int64(rng.Uint64()) &^ (1<<24 - 1)
		for g := 65 + rng.Intn(236); g > 0 && len(groups) < n; g-- {
			groups = append(groups, prefix|rng.Int63n(1<<24))
		}
	}
	rng.Shuffle(n, func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	return []genCase[int64]{
		{"random", gen(uniform)},
		{"20-bit", gen(func(int) int64 { return rng.Int63n(1 << 20) })},
		{"sawtooth-17", gen(func(i int) int64 { return int64(i % 17) })},
		{"16-valued", gen(func(int) int64 { return sixteen[rng.Intn(16)] })},
		{"3-valued-high", gen(func(int) int64 {
			return int64(rng.Intn(3))<<56 | int64(rng.Intn(3))<<48 | int64(rng.Intn(3))<<40 | rng.Int63n(1<<24)
		})},
		{"rep-5-7", gen(func(int) int64 { return int64(rep(uint64(rng.Intn(256)), 5, 6, 7) | uint64(rng.Int63n(1<<40))) })},
		{"rep-all", gen(func(int) int64 { return int64(rep(uint64(rng.Intn(256)), 0, 1, 2, 3, 4, 5, 6, 7)) })},
		{"equal-prefix-65-300", groups},
		{"constant-top-digit", gen(func(int) int64 { return 0x3a<<56 | rng.Int63n(1<<56) })},
		{"top-bucket-over-half", gen(func(i int) int64 {
			if rng.Intn(10) < 6 {
				return -0x11<<56 | rng.Int63n(1<<56)
			}
			return uniform(i)
		})},
	}
}

// TestSplitThresholdCases runs SortBlock at one, two and three workers,
// in place and into a dst, on every split class at both cell widths: one
// element under the split threshold, at it, and at 1Mi cells. Every width
// must give the stable sorted order, so identical cells, and records keep
// equal keys in input order (the payload is the input index).
func TestSplitThresholdCases(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, cells := range []int{1, 2} {
		threshold := radixSplitMinLen
		if cells == 2 {
			threshold = radixSplitMinLenRec
		}
		for _, size := range []int{threshold - cells, threshold, 1 << 20} {
			if size == 1<<20 && (testing.Short() || race.Enabled) {
				continue
			}
			n := size / cells
			if got, want := cellSplits(cells, n), size >= threshold; got != want {
				t.Errorf("splits(%d elements of %d cells) = %v, want %v", n, cells, got, want)
			}
			for _, c := range splitClasses(n, rng) {
				src := make([]int64, 0, size)
				for i, k := range c.data {
					src = append(src, k)
					if cells == 2 {
						src = append(src, int64(i))
					}
				}
				want := slices.Clone(src)
				if cells == 2 {
					slices.SortStableFunc(KVsFromInt64s(want), cmpKV)
				} else {
					slices.Sort(want)
				}
				scratch := make([]int64, size)
				for w := 1; w <= 3; w++ {
					got := slices.Clone(src)
					if w == 2 {
						dst := make([]int64, size)
						SortBlock(got, scratch, dst, w, cells)
						got = dst
					} else {
						SortBlock(got, scratch, nil, w, cells)
					}
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("%s, %d cells, width %d, %d workers: cell %d is %d, want %d", c.name, size, cells, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// cellSplits is splits at a run-time cell width.
func cellSplits(cells, n int) bool {
	if cells == 2 {
		return splits[[2]int64](n)
	}
	return splits[[1]int64](n)
}

// TestSplitCutsByCount pins how a parallel split shares out the
// finishing: on random keys every worker finishes about n/w keys; with a
// top-digit bucket over half the keys the worker whose range it starts in
// finishes it alone, and the others share what is left.
func TestSplitCutsByCount(t *testing.T) {
	const n = 96 << 10
	rng := rand.New(rand.NewSource(5))
	for _, c := range splitClasses(n, rng) {
		if c.name != "random" && c.name != "top-bucket-over-half" {
			continue
		}
		var counts [radixDigits][256]int
		radixCount(asCells[[1]int64](c.data), &counts, radixDigits-1, radixDigits)
		ends := &counts[radixDigits-1]
		for b := 1; b < 256; b++ {
			ends[b] += ends[b-1]
		}
		for _, w := range []int{2, 3} {
			cuts := make([]int, w+1)
			splitCuts(ends, n, cuts)
			shares := make([]int, w)
			for i := range shares {
				lo, hi := 0, ends[cuts[i+1]-1]
				if cuts[i] > 0 {
					lo = ends[cuts[i]-1]
				}
				if cuts[i+1] == cuts[i] {
					hi = lo
				}
				shares[i] = hi - lo
			}
			if c.name == "random" {
				for i, s := range shares {
					if s < n/w-n/64 || s > n/w+n/64 {
						t.Errorf("random, %d workers: worker %d finishes %d keys, want about %d (shares %v)", w, i, s, n/w, shares)
					}
				}
			} else if slices.Max(shares) < n*55/100 {
				t.Errorf("top bucket over half, %d workers: shares %v, want one worker holding its 0.6n whole", w, shares)
			}
			if sum := func() (s int) {
				for _, x := range shares {
					s += x
				}
				return s
			}(); sum != n || cuts[0] != 0 || cuts[w] != 256 {
				t.Errorf("%s, %d workers: cuts %v share %d keys of %d", c.name, w, cuts, sum, n)
			}
		}
	}
}

// TestRadixWide runs a bucket's two 12-bit passes, and the sweep after
// them, at every low they can start from, on the buffer arrangements a
// split hands them (a spare, or the bucket itself as the other buffer),
// with either pass left nothing to do; records keep their input order.
func TestRadixWide(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 3000
	for low := 0; low <= radixDigits-4; low++ {
		for _, shape := range []string{"random", "first-pass-constant", "second-pass-constant", "both-constant"} {
			for _, spare := range []bool{false, true} {
				src := make([]int64, 0, 2*n)
				prefix := int64(rng.Uint64()) &^ (1<<(8*low+24) - 1)
				for i := 0; i < n; i++ {
					mid := rng.Int63n(1 << 24)
					switch shape {
					case "first-pass-constant":
						mid = mid&^(1<<wideBits-1) | 0x5a5
					case "second-pass-constant":
						mid = mid&(1<<wideBits-1) | 0xa5a<<wideBits
					case "both-constant":
						mid = 0x123456
					}
					src = append(src, prefix|mid<<(8*low)|rng.Int63n(1<<(8*low)), int64(i))
				}
				want := slices.Clone(src)
				slices.SortStableFunc(KVsFromInt64s(want), cmpKV)
				in := slices.Clone(src)
				out := make([]int64, len(src))
				bucket, dst := asCells[[2]int64](in), asCells[[2]int64](out)
				other := bucket
				if spare {
					other = make([][2]int64, n)
				}
				radixWide(bucket, other, dst, low)
				radixSweep(dst, bucket, low)
				if i := firstDiff(out, want); i >= 0 {
					t.Fatalf("low %d, %s, spare %v: cell %d is %d, want %d", low, shape, spare, i, out[i], want[i])
				}
			}
		}
	}
}
