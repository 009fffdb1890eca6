package psort

import (
	"runtime"
	"sync/atomic"
)

// The split (radix.go's header has what it is) counts less than the LSD
// core as well as scattering less out of cache. Each bucket counts its
// own digits to scatter them, which makes a whole-block count of those
// digits redundant: the block counts its top digit alone (radixSketch)
// and plans the digits below from every sketchStride-th key. Below the
// top digit the plan only decides how many digits the buckets scatter
// before their sweep, and the sweep orders whatever the plan left tied,
// so a sampled plan costs time when it is wrong, never the order.

// sketchStride is the sampling interval of radixSketch.
const sketchStride = 16

// radixSpread guesses whether the top digit alone cuts xs into buckets
// worth finishing one by one: 32 keys spread over xs take at least 8
// distinct top digits. Random keys take about 30, a handful of values or
// a constant top byte (small integers, a shared prefix) a few; those
// keep the LSD core, where a split into a few large buckets only adds
// their count.
func radixSpread[C cell](xs []C) bool {
	var seen [256]bool
	step, distinct := len(xs)/32, 0
	for i := 0; i < 32; i++ {
		if b := uint8(uint64(xs[i*step][0]) >> 56); !seen[b] {
			seen[b] = true
			distinct++
		}
	}
	return distinct >= 8
}

// radixSketch is the split's count: digit 7 of every key of xs into
// counts[7], exactly, and digits 0..6 of every sketchStride-th key, each
// sample weighted sketchStride, into the rows below, for the plan alone.
// It adds to counts and reports whether digit 7 varies; when it does not,
// the rows are not the histograms of xs and the caller counts again.
func radixSketch[C cell](xs []C, counts *[radixDigits][256]int) bool {
	var odd [256]int
	top := &counts[radixDigits-1]
	n := len(xs)
	for lo := 0; lo < n; lo += sketchStride {
		hi := min(lo+sketchStride, n)
		u := uint64(xs[lo][0])
		counts[0][u&0xff] += sketchStride
		counts[1][(u>>8)&0xff] += sketchStride
		counts[2][(u>>16)&0xff] += sketchStride
		counts[3][(u>>24)&0xff] += sketchStride
		counts[4][(u>>32)&0xff] += sketchStride
		counts[5][(u>>40)&0xff] += sketchStride
		counts[6][(u>>48)&0xff] += sketchStride
		// Two tables: one would chain every increment on the last.
		i := lo
		for ; i+1 < hi; i += 2 {
			top[uint8(uint64(xs[i][0])>>56)^topBias]++
			odd[uint8(uint64(xs[i+1][0])>>56)^topBias]++
		}
		if i < hi {
			top[uint8(uint64(xs[i][0])>>56)^topBias]++
		}
	}
	for b := range top {
		top[b] += odd[b]
	}
	shift, bias := digitPlan(radixDigits - 1)
	return top[digit(xs[0][0], shift, bias)] != n
}

// radixSplit is radixSort's path for blocks past L2: one tiled scatter of
// xs on digit 7 into scratch, then each bucket sorted by digits low..6 in
// cache, into dst. counts[7] is the exact histogram of digit 7.
func radixSplit[C cell](xs, scratch, dst []C, counts *[radixDigits][256]int, low int) {
	top := &counts[radixDigits-1]
	exclusiveSum(top)
	shift, bias := digitPlan(radixDigits - 1)
	radixScatterTiled(xs, scratch, top, shift, bias)
	radixFinish(scratch, dst, top, 0, 256, low)
}

// radixFinish sorts buckets b0..b1-1 of a split into dst. in holds the
// split, bucket b ending at ends[b]; each bucket is counted, scattered by
// digits low..6 and swept on its own, its passes going back and forth
// between its two places in in and dst. A third buffer would save the
// parity copy, in cache, and cost a first touch of one more place out of
// it.
func radixFinish[C cell](in, dst []C, ends *[256]int, b0, b1, low int) {
	const top = radixDigits - 1
	var counts [radixDigits][256]int
	start := 0
	if b0 > 0 {
		start = ends[b0-1]
	}
	for b := b0; b < b1; b++ {
		end := ends[b]
		bucket, out := in[start:end], dst[start:end]
		switch {
		case len(bucket) < 2:
			copy(out, bucket)
		case low == top:
			copy(out, bucket)
			radixSweep(out, bucket, low)
		case top-low == 3 && len(bucket) >= wideMinLen && !tiles[C](len(bucket)):
			radixWide(bucket, bucket, out, low)
			radixSweep(out, bucket, low)
		default:
			clear(counts[low:top])
			radixCount(bucket, &counts, low, top)
			radixLSD(bucket, bucket, out, &counts, low, top-1, tiles[C](len(bucket)))
			radixSweep(out, bucket, low)
		}
		start = end
	}
}

// wideBits is the digit width of a bucket's passes when the plan leaves
// it three bytes, as it does random keys from 1Mi to past 64Mi: two
// 12-bit passes instead of three 8-bit ones. A bucket under the tiling
// size is in cache, where 4096 write cursors miss no more than 256 do, so
// a pass and a digit's count saved outweigh the longer prefix sums from
// wideMinLen keys; a bucket past it (a top digit most keys share) keeps
// the tiled 8-bit passes.
const (
	wideBits   = 12
	wideMinLen = 1 << 10
)

// radixWide scatters src by bits 8*low to 8*low+23 of its keys, digit 7
// excluded, in two wideBits passes into dst, through other as radixLSD
// does, skipping a digit every key agrees on.
func radixWide[C cell](src, other, dst []C, low int) {
	const mask = 1<<wideBits - 1
	var counts [2][1 << wideBits]uint32
	shifts := [2]uint{uint(8*low) & 63, uint(8*low+wideBits) & 63}
	for i := range src {
		u := uint64(src[i][0])
		counts[0][(u>>shifts[0])&mask]++
		counts[1][(u>>shifts[1])&mask]++
	}
	n, k := uint32(len(src)), 0
	var scatter [2]bool
	for p := range counts {
		if scatter[p] = counts[p][(uint64(src[0][0])>>shifts[p])&mask] != n; scatter[p] {
			k++
		}
	}
	cur := src
	for p := range counts {
		if !scatter[p] {
			continue
		}
		k--
		to := passTarget(k, cur, other, dst)
		c, shift := &counts[p], shifts[p]
		var sum uint32
		for b := range c {
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		for i := range cur {
			b := (uint64(cur[i][0]) >> shift) & mask
			to[c[b]] = cur[i]
			c[b]++
		}
		cur = to
	}
	if &cur[0] != &dst[0] {
		copy(dst, cur)
	}
}

// splitState is a parallel split's shared tables: each worker's
// histograms (then its bucket offsets), their sum, and the bucket range
// each worker finishes. A freelist keeps them, so a loop over megachunks
// reuses one and a job adds no garbage for it; unlike a sync.Pool it is
// not emptied by a collection.
type splitState struct {
	parts [][radixDigits][256]int
	sum   [radixDigits][256]int
	cuts  []int
}

var splitStates = make(chan *splitState, 8)

func getSplitState(w int) *splitState {
	var st *splitState
	select {
	case st = <-splitStates:
	default:
		st = new(splitState)
	}
	if len(st.parts) < w {
		st.parts = make([][radixDigits][256]int, w)
		st.cuts = make([]int, w+1)
	}
	return st
}

func putSplitState(st *splitState) {
	select {
	case splitStates <- st:
	default:
	}
}

// Phases of a parallel split, in order, and the word that ends its
// workers.
const (
	phaseSketch = iota
	phaseScatter
	phaseFinish
	phaseEnd
)

// splitJob is one parallel split: the buffers, the plan, and the phase
// the workers are in. The workers other than 0 are started once and wait
// for each phase by spinning on seq: a goroutine started, or woken, per
// phase reaches an idle core tens of microseconds late on a virtual
// machine, which a phase of a 192Ki-key megachunk cannot hide.
type splitJob[C cell] struct {
	xs, scratch, dst []C
	st               *splitState
	w, phase, low    int
	seq, done        atomic.Int32
}

// start starts workers 1 .. w-1; end stops them, and may be called again.
func (j *splitJob[C]) start() {
	for i := 1; i < j.w; i++ {
		go func() {
			for last := int32(0); ; {
				seq := j.seq.Load()
				if seq == last {
					runtime.Gosched()
					continue
				}
				if last = seq; j.phase == phaseEnd {
					return
				}
				j.run(i)
				j.done.Add(1)
			}
		}()
	}
}

func (j *splitJob[C]) end() {
	j.phase = phaseEnd
	j.seq.Add(1)
}

// each runs phase on all w workers, worker 0 on the calling goroutine,
// and returns when every one has. The phase and its arguments are written
// before seq moves, which publishes them to the workers.
func (j *splitJob[C]) each(phase int) {
	j.phase = phase
	j.done.Store(0)
	j.seq.Add(1)
	j.run(0)
	for j.done.Load() < int32(j.w-1) {
		runtime.Gosched()
	}
}

func (j *splitJob[C]) run(i int) {
	n, part := len(j.xs), &j.st.parts[i]
	share := j.xs[n*i/j.w : n*(i+1)/j.w]
	switch j.phase {
	case phaseSketch:
		radixSketch(share, part)
	case phaseScatter:
		shift, bias := digitPlan(radixDigits - 1)
		radixScatterTiled(share, j.scratch, &part[radixDigits-1], shift, bias)
	case phaseFinish:
		radixFinish(j.scratch, j.dst, &j.st.sum[radixDigits-1], j.st.cuts[i], j.st.cuts[i+1], j.low)
	}
}

// radixSortParallel is radixSort with w >= 2 workers and no merge: the
// workers sketch their shares of xs, scatter them on digit 7 into scratch
// at offsets that keep the scatter stable, and then finish disjoint
// bucket ranges into dst, cut by count at n*i/w. A bucket holding more
// than a share is finished by the worker whose range it starts in, and a
// block whose top digit does not spread (radixSpread) is sorted by one:
// a block whose digits cannot be split fairly is finished by fewer
// workers, and is still not merged. Arguments as radixSort's.
func radixSortParallel[C cell](xs, scratch, dst []C, w int) {
	n := len(xs)
	if !radixSpread(xs) {
		radixSort(xs, scratch, dst, tiles[C](n), false)
		return
	}
	if dst == nil {
		dst = xs
	}
	if len(scratch) < n {
		panic("psort: radix scratch shorter than input")
	}
	// The state goes back only from a sort that ran to the end: after a
	// panic in a phase a worker may still be using it.
	st := getSplitState(w)
	parts, sum := st.parts[:w], &st.sum
	for i := range parts {
		clear(parts[i][:])
	}
	j := &splitJob[C]{xs: xs, scratch: scratch[:n], dst: dst, st: st, w: w}
	j.start()
	defer j.end()
	j.each(phaseSketch)
	for d := range sum {
		for b := range sum[d] {
			s := 0
			for i := range parts {
				s += parts[i][d][b]
			}
			sum[d][b] = s
		}
	}
	top := radixDigits - 1
	if shift, bias := digitPlan(top); sum[top][digit(xs[0][0], shift, bias)] == n {
		j.end()
		putSplitState(st)
		radixSort(xs, scratch, dst, tiles[C](n), false)
		return
	}
	j.low = radixPlan(sum, n, 1)

	// Bucket b of worker i goes after bucket b of the workers before it,
	// which keeps the scatter stable; sum[top] becomes the bucket ends.
	ends := &sum[top]
	pos := 0
	for b := 0; b < 256; b++ {
		for i := range parts {
			cnt := parts[i][top][b]
			parts[i][top][b] = pos
			pos += cnt
		}
		ends[b] = pos
	}
	j.each(phaseScatter)
	splitCuts(ends, n, st.cuts[:w+1])
	j.each(phaseFinish)
	putSplitState(st)
}

// splitCuts cuts a split's 256 buckets, bucket b ending at ends[b] of n,
// into len(cuts)-1 ranges by count: worker i finishes buckets cuts[i] to
// cuts[i+1]-1, those that start in [n*i/w, n*(i+1)/w) of the output.
func splitCuts(ends *[256]int, n int, cuts []int) {
	w := len(cuts) - 1
	cuts[0], cuts[w] = 0, 256
	for i, b := 1, 0; i < w; i++ {
		for b < 256 && (b == 0 || ends[b-1] < n*i/w) {
			b++
		}
		cuts[i] = b
	}
}

// SortBlock sorts block, of cells-wide elements, ascending by key with w
// workers, into dst, or in place when dst is nil; dst, when given, is as
// long as block and aliases neither buffer, and block is then left
// unspecified. scratch is at least as long as block. It is where a
// caller holding cell buffers names the element width: bare keys (cells
// 1) take the adaptive dispatcher's rules (runs, and introsort below
// radixMinLen), records (cells 2) the stable record sort. Past those, one
// worker runs the radix core and the last pass writes dst; w >= 2 split
// the block between them (radixSortParallel) and nothing is merged.
func SortBlock(block, scratch, dst []int64, w, cells int) {
	switch cells {
	case 1:
		if asc, desc := scanRuns(block); asc || desc || len(block) < radixMinLen {
			SortAdaptive(block, scratch)
			copy(dst, block)
			return
		}
		sortBlock(asCells[[1]int64](block), asCells[[1]int64](scratch), asCells[[1]int64](dst), w)
	case 2:
		if len(block) < 2*recRadixMinLen {
			SortRecordsScratch(KVsFromInt64s(block), KVsFromInt64s(scratch))
			copy(dst, block)
			return
		}
		sortBlock(asCells[[2]int64](block), asCells[[2]int64](scratch), asCells[[2]int64](dst), w)
	default:
		panic("psort: SortBlock cell width must be 1 or 2")
	}
}

func sortBlock[C cell](xs, scratch, dst []C, w int) {
	if n := len(xs); w <= 1 {
		radixSort(xs, scratch, dst, tiles[C](n), splits[C](n))
		return
	}
	radixSortParallel(xs, scratch, dst, w)
}
