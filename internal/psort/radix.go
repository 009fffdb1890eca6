package psort

import (
	"math"
	"math/bits"
)

// Diverting LSD radix sort: the throughput kernel behind the adaptive
// dispatcher, written once over the cell width. An introsort moves every
// element O(log n) times; a plain LSD radix sort moves it 8 times (once
// per byte digit); this one moves it once per digit that is needed to
// put n keys in order, three or four on high-entropy keys, with purely
// sequential reads and bucketed writes — the streaming access pattern
// the paper's memory-system analysis wants its compute kernels to have.
// On uniform-random 64-bit keys at 1e6+ elements it beats the comparison
// sort severalfold; the benchmark panel tracks the two
// (psort.radix_i64_1Mi_mbps over host.serial_sort_mbps).
//
// The implementation is a classic stable counting sort per 8-bit digit,
// with four adaptivity tricks:
//
//   - the digit histograms are built in one pass over the input, or two
//     half passes, so the histogram cost does not scale with the number
//     of scatters. When 32 sampled keys all differ in their top halves
//     the top four digits are counted first, and the low four only if
//     those do not settle the plan: high-entropy keys never pay for
//     them. Any other input gets all eight from a single pass;
//   - digits on which every key agrees (a single occupied bucket) are
//     skipped entirely. Narrow-range inputs (few-unique, sawtooth, small
//     positive ints) therefore pay for only the digits that actually
//     discriminate — e.g. a 17-valued sawtooth runs one pass, not eight;
//   - the digit plan (radixPlan) scatters only the top digits whose
//     histograms promise to tell log2(n) + radixSlackBits bits apart,
//     least significant of them first, and a finishing sweep puts in
//     order what they left tied: it walks the result once, finds each run
//     of keys that agree above the lowest scattered digit, and sorts the
//     run in place — by insertion up to radixInsertionMax keys, by this
//     same radix sort (same scratch) beyond, and not at all when the run
//     is one key repeated. On random keys nearly every run is one key
//     long and the sweep is a comparison per element. When the top digits
//     never reach the target the plan is digit 0: the full LSD sort, no
//     sweep. The promise is per digit, so digits that are spread one by
//     one and redundant together (0xABAB…AB keys) break it; the cost is
//     then another level of the same sort on the runs, and is bounded by
//     construction. A digit some level scattered is constant in the runs
//     below it and skipped there, so no element is scattered more than 8
//     times in all; and one digit is worth at most log2 n bits, less
//     than any target, so every plan stops at least two digits below
//     the level above or at digit 0: four levels at most, one histogram
//     of the element each;
//   - from radixTileMinLen cells the scatter runs through software-managed
//     write buffers: each of the 256 buckets stages its elements in a
//     cache-resident buffer that is flushed to the destination in
//     multi-cache-line bursts. The naive scatter keeps 256 write streams
//     live across the destination; once block and scratch have left the
//     core's L2 every store is a miss plus a read-for-ownership of a line
//     that will be fully overwritten anyway. The staged scatter touches
//     destination lines once, whole, in bursts the hardware
//     write-combines; the same discipline the DGEMM-on-KNL kernels apply
//     to their C-tile write-back. The plain scatter stays as the path of
//     blocks that fit, where staging is a second store per element for
//     nothing, and as the baseline leg of the in-package tiling benchmark.
//
// Signedness is handled on the top digit alone: flipping its high bit
// makes two's-complement order agree with unsigned bucket order.
// float64 keys enter as biased int64 after the keys.go bit flip, and
// key+payload records are the same kernel at cell width 2: the digit is
// read from c[0] and the whole cell moves.

// radixDigits is the number of 8-bit digits in a 64-bit key.
const radixDigits = 8

// radixMinLen is the input size at which the dispatcher prefers the radix
// kernel over introsort when scratch is available. Below a few thousand
// elements the O(n) histogram pass and the 16 KiB counter state dominate;
// above it the linear pass count wins. The crossover on amd64 hosts sits
// near 1–2k elements; 2048 is conservative in introsort's favour.
const radixMinLen = 2048

// radixTileMinLen and radixTileMinLenRec are the buffer sizes, in int64
// cells, from which bare keys and records scatter through the tiled
// write buffers. Staging costs two stores per element (stage, then burst
// copy) against the plain scatter's one: a loss while block and scratch
// sit in the core's L2, a gain once they have left it. Both are measured,
// not derived. Host cpu="Intel(R) Xeon(R) Processor @ 2.10GHz"
// caches[L1d=48K L2=2048K L3=266240K]; radixSort with each scatter
// forced, the legs alternated, minimum ns per cell plain / tiled on
// random keys: 64Ki 7.8 / 8.2, 96Ki 8.1 / 8.2, 128Ki 9.1 / 8.7, 192Ki
// 10.8 / 8.9, 256Ki 11.8 / 9.3, 1Mi 15.0 / 11.0, 8Mi 36.6 / 19.5; on
// random records 128Ki 5.6 / 6.0, 160Ki 6.2 / 6.2, 192Ki 6.7 / 6.2,
// 256Ki 7.4 / 6.4, 1Mi 7.6 / 6.7, 8Mi 20.6 / 14.1. Each constant is the
// lowest size at which tiled is level with plain on random and on 20-bit
// keys of its width; a single one would cost keys 5-16% or records 6-13%
// between the two. Inputs that fill few buckets do not miss and pay for
// the second store at any size (17-valued records 0.85-0.89x tiled, up to
// 8Mi cells). EXPERIMENTS.md, "Scatter crossover and digit credit", has
// every class and size; CI's "Scatter crossover floor" re-measures
// 256Ki keys on its runner.
const (
	radixTileMinLen    = 128 << 10
	radixTileMinLenRec = 192 << 10
)

// tileCells is the per-bucket staging capacity in int64 cells: 64 bare
// keys or 32 KV records, eight 64-byte cache lines per flush either way,
// making the stage array 128 KiB — L2-resident rather than L1, which
// measures better than line-sized buffers because each flush amortizes
// its bounds checks and memmove call over 8x the payload. Re-checked
// where tiling now starts (host and method as above, random and 20-bit
// input, 256Ki and 1Mi cells, both widths): 32 reads 5-10% slower than
// 64 and 16 16-22% slower. 128 KiB is also the largest array the
// compiler keeps on the stack; a wider stage is a heap allocation per
// pass. Must stay a multiple of every cell width and at most 255
// elements per bucket (fill counters are uint8).
const tileCells = 64

// radixSlackBits is how far past log2(n) the digit plan goes: the passes
// scatter the top digits whose min-entropies add up to
// ceil(log2 n) + radixSlackBits bits. The slack keeps tied runs rare — k
// bits of real margin leave about 2^-k of the keys beside a neighbour
// they tie with — and it is all the margin there is: a digit is credited
// what its histogram shows, so three uniform digits (23.7 bits credited,
// 24 real) carry 512Ki keys with 5 bits to spare, one key in 32 tied. A
// tied pair costs an insertion and a mispredicted branch, far less than
// its share of a scatter, so the slack measures flat within a digit
// count and shows only where it adds a pass: random keys take three
// digits up to 512Ki and four from 1Mi (4 x 7.9 reaches any target to
// 2^27 keys). 4 keeps keys whose digits are exactly as poor as credited
// to one tie in 16; EXPERIMENTS.md has the sweeps.
const radixSlackBits = 4

// radixInsertionMax is the longest tied run the finishing sweep sorts by
// insertion; a longer one is radix-sorted on its own, which costs a
// histogram, a plan and prefix sums before a key moves (about 4 µs on the
// tuning host). With every run of the input the same length and in
// random order the two cost the same near 97 keys (runs of 65: 37–42
// ns/key by insertion and 48–52 by radix; of 97: 43 either way). A run
// in reverse order doubles insertion's moves and brings the crossover
// down to about 68, so 64.
const radixInsertionMax = 64

// RadixSort sorts xs ascending, allocating its own scratch buffer. Hot
// paths should use RadixSortScratch (or SortAdaptive) with pooled scratch
// instead.
func RadixSort(xs []int64) {
	if len(xs) < 2 {
		return
	}
	RadixSortScratch(xs, make([]int64, len(xs)))
}

// RadixSortScratch sorts xs ascending using scratch as the ping-pong
// buffer; scratch must be at least as long as xs and must not alias it.
// The sort performs no allocation. Scratch contents on return are
// unspecified. Large inputs scatter through the tiled write buffers;
// small ones use the plain scatter (see radixTileMinLen).
func RadixSortScratch(xs, scratch []int64) {
	radixSort(asCells[[1]int64](xs), asCells[[1]int64](scratch), tiles[[1]int64](len(xs)))
}

// tiles reports whether n elements of width len(C) fill a buffer the
// scatter should tile.
func tiles[C cell](n int) bool {
	var c C
	if len(c) == 2 {
		return 2*n >= radixTileMinLenRec
	}
	return n >= radixTileMinLen
}

// radixSort is the diverting LSD core: it sorts xs ascending by key,
// stably, with the tiling decision lifted out so the callers can make it
// on the buffer's size in cells and the differential tests and benchmarks
// can force either scatter at any size.
func radixSort[C cell](xs, scratch []C, tiled bool) {
	n := len(xs)
	if n < 2 {
		return
	}
	if len(scratch) < n {
		panic("psort: radix scratch shorter than input")
	}

	// On high-entropy keys the top four digits settle the plan and the
	// low four are never counted, so they are counted first when a sample
	// says they may; if they then miss the target, or were not tried, one
	// more pass counts what is still uncounted.
	var counts [radixDigits][256]int
	low, topFirst := 0, radixTopFirst(xs)
	if topFirst {
		radixCount(xs, &counts, false, true)
		low = radixPlan(&counts, n, radixDigits/2)
	}
	if low == 0 {
		radixCount(xs, &counts, true, !topFirst)
		low = radixPlan(&counts, n, 1)
	}
	radixPasses(xs, scratch, &counts, low, tiled)
}

// radixTopFirst guesses whether the top half of the key can carry the
// digit plan alone: it says so when 32 keys spread over xs all differ in
// theirs. Few distinct values, small integers and a shared prefix fail
// it within a few samples and get all eight histograms from one pass; a
// wrong guess either way costs half a histogram pass, never the order.
func radixTopFirst[C cell](xs []C) bool {
	var tops [32]uint32
	step := len(xs) / len(tops)
	for i := range tops {
		tops[i] = uint32(uint64(xs[i*step][0]) >> 32)
		for _, t := range tops[:i] {
			if t == tops[i] {
				return false
			}
		}
	}
	return true
}

// radixCount adds the histograms of the key's low four digits, its top
// four, or all eight to counts in one pass over xs. The top digit is
// biased so negative keys land in the low buckets.
func radixCount[C cell](xs []C, counts *[radixDigits][256]int, lowHalf, topHalf bool) {
	for i := range xs {
		u := uint64(xs[i][0])
		if lowHalf {
			counts[0][u&0xff]++
			counts[1][(u>>8)&0xff]++
			counts[2][(u>>16)&0xff]++
			counts[3][(u>>24)&0xff]++
		}
		if topHalf {
			counts[4][(u>>32)&0xff]++
			counts[5][(u>>40)&0xff]++
			counts[6][(u>>48)&0xff]++
			counts[7][uint8(u>>56)^topBias]++
		}
	}
}

// radixPlan is the digit plan, a pure function of the histograms and n:
// the lowest digit the passes scatter. It walks down from digit 7 adding
// up what each digit's histogram says the digit is sure to tell apart —
// its min-entropy log2(n / largest bucket), to the fraction of a bit, so
// 0 for a constant digit and at most 8 — and stops at the digit where the
// sum reaches ceil(log2 n) + radixSlackBits. A walk that passes digit
// floor without getting there plans digit 0. With floor 1 that is the
// full LSD sort, nothing to finish: small integers, few distinct values.
// radixSort also asks with floor 4, when only the top half is counted.
func radixPlan(counts *[radixDigits][256]int, n, floor int) (low int) {
	need := float64(bits.Len(uint(n-1)) + radixSlackBits)
	for d, sure := radixDigits-1, 0.0; d >= floor; d-- {
		// Four running maxima: one would chain 256 dependent compares.
		c := &counts[d]
		var m0, m1, m2, m3 int
		for b := 0; b < 256; b += 4 {
			m0, m1, m2, m3 = max(m0, c[b]), max(m1, c[b+1]), max(m2, c[b+2]), max(m3, c[b+3])
		}
		largest := max(m0, m1, m2, m3)
		if sure += math.Log2(float64(n) / float64(largest)); sure >= need {
			return d
		}
	}
	return 0
}

// radixPasses scatters xs by digits low..7, least significant first, and
// then orders what those digits left tied. counts holds the histograms
// of xs and is consumed.
func radixPasses[C cell](xs, scratch []C, counts *[radixDigits][256]int, low int, tiled bool) {
	n := len(xs)
	src, dst := xs, scratch[:n]
	for d := low; d < radixDigits; d++ {
		c := &counts[d]
		shift, bias := digitPlan(d)
		// Skip digits every key agrees on: one bucket holds everything.
		// Probing the bucket of the first key settles it in O(1).
		if c[digit(src[0][0], shift, bias)] == n {
			continue
		}
		// Exclusive prefix sum: c[b] becomes the first write index for
		// bucket b, which makes the scatter below stable.
		var sum int
		for b := 0; b < 256; b++ {
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		if tiled {
			radixScatterTiled(src, dst, c, shift, bias)
		} else {
			radixScatterPlain(src, dst, c, shift, bias)
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	if low == 0 {
		return
	}

	// The finishing sweep. xs is in order of the digits scattered and
	// stable below them, so the keys still out of place sit in runs that
	// agree above digit low-1. Neighbours the scattered digits told apart
	// are the usual case and cost one comparison; inside a run, mixed
	// gathers the low bits its neighbours differ in, so equal keys cost
	// no more than that either.
	shift := uint(8*low) & 63
	for i := 1; i < n; i++ {
		if uint64(xs[i][0]^xs[i-1][0])>>shift != 0 {
			continue
		}
		start, mixed := i-1, uint64(0)
		for ; i < n; i++ {
			x := uint64(xs[i][0] ^ xs[i-1][0])
			if x>>shift != 0 {
				break
			}
			mixed |= x
		}
		switch run := xs[start:i]; {
		case mixed == 0:
		case len(run) <= radixInsertionMax:
			insertion(run)
		default:
			radixSort(run, scratch, tiles[C](len(run)))
		}
	}
}

// radixScatterPlain is the pre-tiling scatter: one write per element,
// straight to the destination bucket cursor.
func radixScatterPlain[C cell](src, dst []C, c *[256]int, shift uint, bias uint8) {
	for i := range src {
		b := digit(src[i][0], shift, bias)
		dst[c[b]] = src[i]
		c[b]++
	}
}

// radixScatterTiled stages each bucket's elements in a cache-resident
// buffer and flushes whole cache lines to the destination in bursts.
// Flushes keep per-bucket FIFO order, so the scatter — and therefore the
// whole LSD sort — stays stable. The tail flush drains partial buffers
// in bucket order. The stage is declared in cells, not elements, so it
// is the same tileCells-per-bucket block of stack at either width, and
// is viewed as elements once, outside the loop.
func radixScatterTiled[C cell](src, dst []C, c *[256]int, shift uint, bias uint8) {
	var cells [256 * tileCells]int64
	var fill [256]uint8
	stage := asCells[C](cells[:])
	line := len(stage) / 256
	for i := range src {
		b := digit(src[i][0], shift, bias)
		at := int(b) * line
		f := int(fill[b])
		stage[at+f] = src[i]
		f++
		if f == line {
			pos := c[b]
			copy(dst[pos:pos+line], stage[at:at+line])
			c[b] = pos + line
			f = 0
		}
		fill[b] = uint8(f)
	}
	for b := 0; b < 256; b++ {
		if f := int(fill[b]); f > 0 {
			pos := c[b]
			copy(dst[pos:pos+f], stage[b*line:b*line+f])
			c[b] = pos + f
		}
	}
}

// topBias flips the high bit of the top digit, which makes
// two's-complement keys bucket in signed order.
const topBias = 0x80

// digitPlan gives digit d's shift and bias. Every pass takes them as
// loop invariants, so the per-element digit is one shift and one xor
// with no test for the top digit inside the loop.
func digitPlan(d int) (shift uint, bias uint8) {
	if d == radixDigits-1 {
		bias = topBias
	}
	return uint(8 * d), bias
}

// digit extracts the byte of key v that digitPlan describes, in bucket
// order.
func digit(v int64, shift uint, bias uint8) uint8 {
	return uint8(uint64(v)>>(shift&63)) ^ bias // &63: a bare shift, no oversize-count guard
}

// SortAdaptive is the kernel dispatcher used by the real execution paths:
// it sorts xs ascending choosing the cheapest applicable kernel.
//
//  1. Run detection (one linear scan): fully ascending inputs return
//     untouched and strictly descending inputs are reversed in place —
//     the same adaptivity Serial has always had, and the mechanism behind
//     the paper's reverse-ordered results.
//  2. LSD radix sort when the input is large (>= radixMinLen) and scratch
//     can hold it: O(n) per discriminating digit, allocation-free, tiled
//     scatter from radixTileMinLen.
//  3. Introsort otherwise (small inputs, or no scratch available).
//
// scratch may be nil; the dispatcher never allocates. Scratch contents on
// return are unspecified.
func SortAdaptive(xs, scratch []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	if asc, desc := scanRuns(xs); asc {
		return
	} else if desc {
		reverse(xs)
		return
	}
	if n >= radixMinLen && len(scratch) >= n {
		RadixSortScratch(xs, scratch)
		return
	}
	introsort(xs, 2*log2(n))
}

// SortBlock sorts one block of cells-wide elements ascending by key
// using scratch as SortAdaptive and SortRecordsScratch do. Like
// MergeRound it is where a caller holding cell buffers names the
// element width: bare keys (cells 1) take the adaptive dispatcher,
// key+payload records (cells 2) the stable record sort, which needs
// scratch at least as long as the block.
func SortBlock(block, scratch []int64, cells int) {
	switch cells {
	case 1:
		SortAdaptive(block, scratch)
	case 2:
		SortRecordsScratch(KVsFromInt64s(block), KVsFromInt64s(scratch))
	default:
		panic("psort: SortBlock cell width must be 1 or 2")
	}
}
