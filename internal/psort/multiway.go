package psort

import (
	"math/bits"
	"sort"
	"sync"
)

// Select performs multisequence selection: given k sorted runs and a target
// global rank r (0 <= r <= total length), it returns per-run cut positions
// cuts[i] such that sum(cuts) == r and every element before a cut is <=
// every element after any cut. This is how the parallel multiway merge
// splits work between threads without communication, as in the MCSTL/GNU
// parallel multiway merge.
func Select(runs [][]int64, r int) []int {
	cuts := make([]int, len(runs))
	selectCuts(runs, 1, r, cuts)
	return cuts
}

// selectCuts is Select over runs of cells-wide elements, writing the cuts
// (in elements) into cuts. Equal keys at the rank are taken in run order,
// so the first r elements of the stable merge lie before the cuts and a
// rank-split merge stays stable.
func selectCuts(runs [][]int64, cells, r int, cuts []int) {
	total := 0
	for _, run := range runs {
		total += len(run) / cells
	}
	if r < 0 || r > total {
		panic("psort: selection rank out of range")
	}
	if r == 0 || r == total {
		for i, run := range runs {
			cuts[i] = 0
			if r == total {
				cuts[i] = len(run) / cells
			}
		}
		return
	}

	// Binary search over the value domain for the smallest v such that
	// count(<= v) >= r. The range can span the whole int64 domain, so the
	// midpoint is computed through uint64 to avoid (hi - lo) overflow.
	lo, hi := minHead(runs), maxTail(runs, cells) // inclusive bounds
	for lo < hi {
		mid := int64(uint64(lo) + (uint64(hi)-uint64(lo))/2)
		if countLE(runs, cells, mid) >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	v := lo

	// Take all elements < v, then distribute elements == v until rank r.
	taken := 0
	for i, run := range runs {
		cuts[i] = sort.Search(len(run)/cells, func(j int) bool { return run[j*cells] >= v })
		taken += cuts[i]
	}
	for i, run := range runs {
		if taken == r {
			break
		}
		// Extend cut i through its elements equal to v as needed.
		for cuts[i] < len(run)/cells && run[cuts[i]*cells] == v && taken < r {
			cuts[i]++
			taken++
		}
	}
	if taken != r {
		panic("psort: selection failed to reach target rank")
	}
}

func minHead(runs [][]int64) int64 {
	m, found := int64(0), false
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		if !found || run[0] < m {
			m = run[0]
			found = true
		}
	}
	return m
}

func maxTail(runs [][]int64, cells int) int64 {
	m, found := int64(0), false
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		if last := run[len(run)-cells]; !found || last > m {
			m = last
			found = true
		}
	}
	return m
}

func countLE(runs [][]int64, cells int, v int64) int {
	n := 0
	for _, run := range runs {
		n += sort.Search(len(run)/cells, func(j int) bool { return run[j*cells] > v })
	}
	return n
}

// ParallelMergeK merges the sorted runs into dst using p workers. Each
// worker merges one rank-slice of the output located via multisequence
// selection, so workers never contend. dst must have the combined length
// and must not alias the runs.
func ParallelMergeK(dst []int64, runs [][]int64, p int) {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if len(dst) != total {
		panic("psort: ParallelMergeK destination length mismatch")
	}
	if p < 1 {
		panic("psort: ParallelMergeK needs at least one worker")
	}
	if total == 0 {
		return
	}
	if p > total {
		p = total
	}

	// Rank boundaries 0 = r0 <= r1 <= ... <= rp = total and their cuts.
	bounds := make([][]int, p+1)
	bounds[0] = make([]int, len(runs))
	bounds[p] = Select(runs, total)
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			bounds[w] = Select(runs, total*w/p)
		}()
	}
	wg.Wait()

	for w := 0; w < p; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := bounds[w], bounds[w+1]
			slice := make([][]int64, len(runs))
			for i := range runs {
				slice[i] = runs[i][lo[i]:hi[i]]
			}
			start := total * w / p
			end := total * (w + 1) / p
			MergeK(dst[start:end], slice...)
		}()
	}
	wg.Wait()
}

// MergeRounds merges sorted runs of cells-wide elements into dst in
// rounds of the two-ended two-way merge, for a caller that holds a spare
// buffer as large as the output. The runs must lie back to back, in run
// order, across src, which has dst's length: the rounds ping-pong
// between src and dst, so src is clobbered, and the last round lands in
// dst. k runs take ceil(log2 k) pairwise rounds; when that count is even
// the first round takes four runs at a time through the loser tree
// instead, so an odd count of rounds remains and none is a copy. Each
// round is one pass over the whole output, rank-split across up to
// threads workers with multisequence selection (stable: equal keys keep
// run order at every cut). At the fan-ins a run reaches, the rounds
// together cost less than one pass of the k-way tree (EXPERIMENTS.md,
// "The library's sweeps"): the two-way step's two dependency chains
// overlap, where the tree's replay is one chain of log2 k dependent
// matches per element.
func MergeRounds(dst, src []int64, runs [][]int64, threads, cells int) {
	switch cells {
	case 1:
		new(rounds[[1]int64]).merge(dst, src, runs, threads)
	case 2:
		new(rounds[[2]int64]).merge(dst, src, runs, threads)
	default:
		panic("psort: MergeRounds cell width must be 1 or 2")
	}
}

// rounds is MergeRounds' state, one roundWorker per worker, kept so a
// reused rounds merges with no allocation beyond its goroutines.
type rounds[C cell] struct {
	workers []roundWorker[C]
}

// roundWorker is one worker's view of the groups it merges: a group's
// input runs, its cut positions in each, and a tree for four-run groups.
type roundWorker[C cell] struct {
	in, part [4][]int64
	lo, hi   [4]int
	lt       loserTree[C]
}

func (r *rounds[C]) merge(dst, src []int64, runs [][]int64, threads int) {
	off := 0
	for _, run := range runs {
		if off+len(run) > len(src) || len(run) > 0 && &run[0] != &src[off] {
			panic("psort: MergeRounds runs must lie back to back across src")
		}
		off += len(run)
	}
	if off != len(src) || len(dst) != len(src) {
		panic("psort: MergeRounds destination length mismatch")
	}
	k := len(runs)
	if k < 2 {
		copy(dst, src)
		return
	}
	p := 1
	if threads > 1 && len(dst) >= parallelMergeMin {
		p = min(threads, len(dst)/(parallelMergeMin/2))
	}
	if len(r.workers) < p {
		r.workers = make([]roundWorker[C], p)
	}
	fan := 2
	if bits.Len(uint(k-1))%2 == 0 {
		fan = 4
	}
	from, to := src, dst
	// g is how many of the caller's runs each of this round's runs holds.
	for g := 1; g < k; g, fan = g*fan, 2 {
		r.round(to, from, runs, g, fan, p)
		from, to = to, from
	}
}

// round runs one round on p workers, each merging an equal share of the
// output.
func (r *rounds[C]) round(to, from []int64, runs [][]int64, g, fan, p int) {
	var c C
	n := len(to) / len(c)
	if p == 1 {
		r.workers[0].merge(to, from, runs, g, fan, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.workers[w].merge(to, from, runs, g, fan, n*w/p, n*(w+1)/p)
		}()
	}
	r.workers[0].merge(to, from, runs, g, fan, 0, n/p)
	wg.Wait()
}

// merge merges output elements [a, b) of one round: every group of fan
// consecutive runs (each the merge of g of the caller's runs) overlapping
// that range is cut at the range's ends by selection and its slice
// merged into place.
func (w *roundWorker[C]) merge(to, from []int64, runs [][]int64, g, fan, a, b int) {
	var c C
	cells := len(c)
	for first, start := 0, 0; first < len(runs) && start < b; first += g * fan {
		m, end := 0, start // the group's runs, and its end in elements
		for r := first; r < min(first+g*fan, len(runs)); r += g {
			cellsIn := 0
			for _, run := range runs[r:min(r+g, len(runs))] {
				cellsIn += len(run)
			}
			w.in[m] = from[end*cells : end*cells+cellsIn]
			m++
			end += cellsIn / cells
		}
		if end > a {
			lo, hi := max(a, start)-start, min(b, end)-start
			in := w.in[:m]
			selectCuts(in, cells, lo, w.lo[:m])
			selectCuts(in, cells, hi, w.hi[:m])
			for i, run := range in {
				w.part[i] = run[w.lo[i]*cells : w.hi[i]*cells]
			}
			w.mergeGroup(to[(start+lo)*cells:(start+hi)*cells], w.part[:m])
		}
		start = end
	}
}

// mergeGroup merges one group's slices: two through merge2, three or four
// through the loser tree, and a lone run (a round's odd one out) through
// the tree's drain, which copies it.
func (w *roundWorker[C]) mergeGroup(dst []int64, parts [][]int64) {
	if len(parts) == 2 {
		merge2(asCells[C](dst), asCells[C](parts[0]), asCells[C](parts[1]))
		return
	}
	w.lt.Reset(parts)
	w.lt.MergeInto(asCells[C](dst))
}

// Parallel sorts xs ascending using the structure of GNU libstdc++
// parallel-mode sort (the paper's baseline): split into p equal blocks,
// sort each block independently (with the serial pattern-detecting sort),
// then one parallel p-way merge through scratch space. It allocates a
// scratch buffer of len(xs).
func Parallel(xs []int64, p int) {
	if p < 1 {
		panic("psort: Parallel needs at least one worker")
	}
	n := len(xs)
	if n < 2 {
		return
	}
	if p > n {
		p = n
	}
	if p == 1 {
		Serial(xs)
		return
	}

	runs := make([][]int64, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		start, end := n*w/p, n*(w+1)/p
		runs[w] = xs[start:end]
		wg.Add(1)
		go func(block []int64) {
			defer wg.Done()
			Serial(block)
		}(runs[w])
	}
	wg.Wait()

	scratch := make([]int64, n)
	ParallelMergeK(scratch, runs, p)
	copy(xs, scratch)
}
