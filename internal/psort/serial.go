// Package psort is the from-scratch sorting substrate underneath the MLM
// algorithms: a pattern-detecting serial sort (the stand-in for std::sort
// inside each MLM-sort thread), a loser-tree k-way merge, multisequence
// selection for splitting merges across threads, and a parallel multiway
// mergesort equivalent in structure to GNU libstdc++ parallel mode sort
// (the paper's baseline).
//
// Everything operates on []int64, the paper's element type; the
// per-element kernels (loser tree, gallop, two-way merge, LSD radix) are
// written once over a fixed-width cell (view.go) that a bare key fills at
// width 1 and a key+payload record at width 2. The package is
// pure algorithm code — no simulated timing — and is exercised both by the
// execution layer (real runs on real data) and, for byte accounting, by the
// simulation layer's cost models.
package psort

// insertionThreshold is the subarray size below which quicksort falls back
// to insertion sort; 24 matches common introsort practice.
const insertionThreshold = 24

// Serial sorts xs ascending in place using an introsort with upfront
// run detection: fully ascending inputs return immediately and strictly
// descending inputs are reversed in one pass. This mirrors the adaptive
// behaviour of modern std::sort implementations that MLM-sort leans on,
// and is the mechanism behind the paper's observation that reverse-sorted
// inputs favour the MLM variants.
func Serial(xs []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	// Run detection: one linear scan settles fully ascending and strictly
	// descending inputs.
	if asc, desc := scanRuns(xs); asc {
		return
	} else if desc {
		reverse(xs)
		return
	}
	introsort(xs, 2*log2(n))
}

// scanRuns reports whether xs is entirely ascending (non-decreasing) or
// strictly descending.
func scanRuns(xs []int64) (asc, desc bool) {
	asc, desc = true, true
	for i := 1; i < len(xs) && (asc || desc); i++ {
		if xs[i-1] > xs[i] {
			asc = false
		}
		if xs[i-1] <= xs[i] {
			desc = false
		}
	}
	return asc, desc
}

func reverse(xs []int64) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func introsort(xs []int64, depth int) {
	for len(xs) > insertionThreshold {
		if depth == 0 {
			heapsort(xs)
			return
		}
		depth--
		p := partition(xs)
		// Recurse on the smaller side, loop on the larger: O(log n) stack.
		if p < len(xs)-p-1 {
			introsort(xs[:p], depth)
			xs = xs[p+1:]
		} else {
			introsort(xs[p+1:], depth)
			xs = xs[:p]
		}
	}
	insertion(asCells[[1]int64](xs))
}

// partition performs a Hoare-style partition around a median-of-three
// pivot moved to the end, returning the pivot's final index.
func partition(xs []int64) int {
	n := len(xs)
	m := n / 2
	medianOfThree(xs, 0, m, n-1)
	xs[m], xs[n-1] = xs[n-1], xs[m]
	pivot := xs[n-1]
	i := 0
	for j := 0; j < n-1; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[n-1] = xs[n-1], xs[i]
	return i
}

// medianOfThree orders xs[a] <= xs[b] <= xs[c].
func medianOfThree(xs []int64, a, b, c int) {
	if xs[b] < xs[a] {
		xs[a], xs[b] = xs[b], xs[a]
	}
	if xs[c] < xs[b] {
		xs[b], xs[c] = xs[c], xs[b]
		if xs[b] < xs[a] {
			xs[a], xs[b] = xs[b], xs[a]
		}
	}
}

// insertion sorts xs by key, stably: introsort's leaf at width 1 and the
// radix finishing sweep's small-run sort at either width.
func insertion[C cell](xs []C) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j][0] > v[0] {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func heapsort(xs []int64) {
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(xs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		xs[0], xs[i] = xs[i], xs[0]
		siftDown(xs, 0, i)
	}
}

func siftDown(xs []int64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && xs[child+1] > xs[child] {
			child++
		}
		if xs[root] >= xs[child] {
			return
		}
		xs[root], xs[child] = xs[child], xs[root]
		root = child
	}
}

// gallopMin is the consecutive-win streak at which merge2 switches from
// element-wise merging to galloping bulk copies, and the gallop length
// below which it switches back. Seven-ish matches timsort practice: long
// enough that random interleavings never gallop, short enough that real
// structure is exploited quickly.
const gallopMin = 8

// vectorBlock is the keys merge2AVX512 loads and merges at a time: one
// 8-lane register.
const vectorBlock = 8

// Merge2 merges the sorted runs a and b into dst, which must have length
// len(a)+len(b) and not alias either input. It is the compute kernel of
// the paper's streaming merge benchmark.
func Merge2(dst, a, b []int64) {
	merge2(asCells[[1]int64](dst), asCells[[1]int64](a), asCells[[1]int64](b))
}

// merge2 is the two-way merge at either cell width, stable: ties go to a.
// Bare keys take the vector kernel where the CPU has one (merge2Keys);
// equal bare keys cannot be told apart, so its network need not be
// stable. Records, and keys on other CPUs, take the scalar merge below.
//
// The scalar merge is adaptive: it runs the element-wise loop
// (merge2Steps) until one side wins gallopMin times in a row at the
// front, then gallops (gallop2) — exponential-search the end of each
// side's winning streak and memmove the whole prefix — dropping back to
// element-wise when streaks shrink. Output is identical to the plain
// linear merge.
func merge2[C cell](dst, a, b []C) {
	if len(dst) != len(a)+len(b) {
		panic("psort: two-way merge destination length mismatch")
	}
	var c C
	if len(c) == 1 && vectorMerge {
		merge2Keys(keyCells(dst), keyCells(a), keyCells(b))
		return
	}
	merge2Scalar(dst, a, b)
}

// merge2Scalar is merge2 without the vector kernel: records always, and
// bare keys on a CPU without one.
func merge2Scalar[C cell](dst, a, b []C) {
	for len(a) > 0 && len(b) > 0 {
		i, j, ia, jb := merge2Steps(dst, a, b)
		dst, a, b = dst[i+j:ia+jb+2], a[i:ia+1], b[j:jb+1]
		dst, a, b = gallop2(dst, a, b)
	}
	copy(dst, a)
	copy(dst[len(a):], b)
}

// merge2Keys is merge2 for bare keys with the vector kernel.
// merge2AVX512 merges while both runs hold a block of vectorBlock keys it
// has not loaded. It leaves its last vectorBlock keys in a register, but
// those are exactly what the n keys it wrote leave of the prefixes it
// read, so coRank finds where the runs resume. It stops early before a
// block that lies wholly before the other run's head with nothing of
// the carry above it: that is a streak, which gallop2 copies. The tails,
// where a run has under a block left, go through the scalar merge.
func merge2Keys(dst, a, b [][1]int64) {
	for len(a) >= vectorBlock && len(b) >= vectorBlock {
		i, j := merge2AVX512(dst, a, b)
		tail := i > len(a)-vectorBlock || j > len(b)-vectorBlock
		n := i + j - vectorBlock
		p := coRank(a[:i], b[:j], n)
		dst, a, b = dst[n:], a[p:], b[n-p:]
		if tail {
			break
		}
		dst, a, b = gallop2(dst, a, b)
	}
	merge2Scalar(dst, a, b)
}

// coRank reports how many of the n smallest keys of the sorted runs a
// and b lie in a, taking them from a and b in whichever way keeps both
// parts sorted; 0 <= n <= len(a)+len(b).
func coRank(a, b [][1]int64, n int) int {
	lo, hi := max(0, n-len(b)), min(len(a), n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid][0] < b[n-mid-1][0] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// merge2Steps is merge2's element-wise loop. It is two-ended: each step
// emits the smaller head at the front of dst and the larger tail at the
// back, so the merge runs as two independent dependency chains, each
// waiting only on its own previous comparison. The back keeps the same
// stability from its side: on equal tails it emits b's first, because
// b's equal keys come last. While both runs hold an unconsumed element
// the two picks are distinct elements (the smallest and the largest of
// what is left), so the loop needs no other guard.
//
// It returns what is left, a[i..ia] and b[j..jb] (the front has written
// i+j elements and the back everything after ia+jb+1), when a run is
// used up or when one side has won gallopMin front picks in a row.
func merge2Steps[C cell](dst, a, b []C) (i, j, ia, jb int) {
	ia, jb = len(a)-1, len(b)-1
	last, streak := 0, 0
	for i <= ia && j <= jb {
		// Which side holds the smaller head (or the larger tail) is a coin
		// flip on interleaved runs, so nothing here branches on it: each
		// comparison is read as 0 or 1, which masks the element in cell by
		// cell and advances one cursor. The front keeps the streak count.
		take := b2i(b[j][0] < a[i][0])   // 1 takes b's head; ties go to a
		back := b2i(a[ia][0] > b[jb][0]) // 1 takes a's tail; ties go to b
		f, t := i+j, ia+jb+1
		for c := 0; c < len(dst[f]); c++ {
			dst[f][c] = a[i][c] ^ (a[i][c]^b[j][c])&-int64(take)
			dst[t][c] = b[jb][c] ^ (b[jb][c]^a[ia][c])&-int64(back)
		}
		i, j = i+1-take, j+take
		ia, jb = ia-back, jb-1+back
		streak = streak&-b2i(take == last) + 1
		last = take
		if streak >= gallopMin {
			return
		}
	}
	return
}

// gallop2 emits the runs' winning streaks by alternate bulk copies while
// either streak is at least gallopMin long, and returns what is left.
// Each round emits at least one element: if a's streak is empty then
// b[0] < a[0], so b's streak is not.
func gallop2[C cell](dst, a, b []C) ([]C, []C, []C) {
	for len(a) > 0 && len(b) > 0 {
		ma := gallopLE(a, b[0][0])
		copy(dst, a[:ma])
		dst, a = dst[ma:], a[ma:]
		if len(a) == 0 {
			break
		}
		mb := gallopLT(b, a[0][0])
		copy(dst, b[:mb])
		dst, b = dst[mb:], b[mb:]
		if ma < gallopMin && mb < gallopMin {
			break
		}
	}
	return dst, a, b
}

// merge2Linear is the pre-gallop, one-ended element-wise merge at either
// cell width, kept as the reference implementation for differential tests
// and the old-vs-new kernel benchmarks.
func merge2Linear[C cell](dst, a, b []C) {
	if len(dst) != len(a)+len(b) {
		panic("psort: Merge2 destination length mismatch")
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i][0] <= b[j][0] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}
