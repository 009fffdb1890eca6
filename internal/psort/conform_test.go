package psort

// Kernel-conformance harness: one table-driven engine that runs every
// sort and merge kernel in the package against a reference
// slices.SortStableFunc path over a shared library of adversarial
// generators, asserting stability where the kernel claims it. The
// fixed-width kernels are one table run at both cell widths — bare int64
// keys and KV records go through the same rows, each under the subtest
// label it has always had. The generator library doubles as
// the seed corpus for the differential fuzz targets (conformCorpus*),
// and TestConformanceCoversExportedAPI walks the package's exported
// functions with go/parser and fails if any kernel is not registered
// here — adding a kernel without wiring it into the harness is a test
// failure, not a review nit.

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// ---------------------------------------------------------------------
// Adversarial generator library
// ---------------------------------------------------------------------

// genCase is one adversarial input in the conformance library.
type genCase[E any] struct {
	name string
	data []E
}

// int64Cases covers the integer kernels: radix crossovers (2047/2048),
// digit-skip shapes (all-equal, sawtooth, few-unique), sign boundaries,
// and plain randomness at a size that exercises several digits.
// repeatInt64 builds an all-equal slice (slices.Repeat needs go1.23;
// the module directive is 1.22).
func repeatInt64(v int64, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func int64Cases() []genCase[int64] {
	rng := rand.New(rand.NewSource(101))
	random := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63() - rng.Int63()
		}
		return xs
	}
	sawtooth := make([]int64, 4096)
	for i := range sawtooth {
		sawtooth[i] = int64(i % 17)
	}
	fewUnique := make([]int64, 4096)
	for i := range fewUnique {
		fewUnique[i] = []int64{-3, 0, 1 << 40, -1 << 40, 7}[rng.Intn(5)]
	}
	organ := make([]int64, 3000)
	for i := range organ {
		if i < 1500 {
			organ[i] = int64(i)
		} else {
			organ[i] = int64(3000 - i)
		}
	}
	sorted := random(2500)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	extremes := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	return append([]genCase[int64]{
		{"empty", nil},
		{"single", []int64{42}},
		{"two-swapped", []int64{5, -5}},
		{"all-equal", repeatInt64(-77, 3000)},
		{"sawtooth", sawtooth},
		{"few-unique", fewUnique},
		{"organ-pipe", organ},
		{"sorted", sorted},
		{"reversed", reversed},
		{"extremes", extremes},
		{"random-below-radix", random(radixMinLen - 1)},
		{"random-at-radix", random(radixMinLen)},
		{"random-large", random(20000)},
	}, divertCases()...)
}

// divertCases are the shapes the diverting radix is decided on: in each
// the digit plan stops above digit 0 (TestRadixPlanOnDivertCases holds
// them to that), so the finishing sweep meets the runs the name
// describes. They are part of int64Cases and, with index payloads, of
// kvCases, and seed the radix and record fuzz targets.
func divertCases() []genCase[int64] {
	rng := rand.New(rand.NewSource(505))
	low40 := func() int64 { return rng.Int63n(1 << 40) }
	// One run past the insertion limit among random singles: 80 keys that
	// agree in their top 24 bits, few enough beside 32Ki that each top
	// digit still looks uniform and the plan scatters only those three.
	shared := make([]int64, 1<<15)
	for i := range shared {
		shared[i] = int64(rng.Uint64())
	}
	for i := 0; i < 80; i++ {
		shared[rng.Intn(len(shared))] = 0x5eed42<<40 | low40()
	}
	// Every digit spread over all 256 values, jointly one byte of entropy.
	replicated := make([]int64, 8192)
	for i := range replicated {
		replicated[i] = int64(uint64(rng.Intn(256)) * 0x0101010101010101)
	}
	// Two prefixes of opposite sign over random low bits.
	cluster := make([]int64, 8192)
	for i := range cluster {
		cluster[i] = []int64{0x123456 << 40, -(0x123456 << 40)}[rng.Intn(2)] + low40()
	}
	// 256 prefixes whose three digits are each a permutation of 0..255,
	// so every top digit is exactly uniform, carrying runs of exactly the
	// insertion limit and one more.
	var atLimit []int64
	for p := 0; p < 256; p++ {
		prefix := int64(p)<<16 | int64((7*p+3)&0xff)<<8 | int64((13*p+5)&0xff)
		for j := 0; j < radixInsertionMax+p%2; j++ {
			atLimit = append(atLimit, prefix<<40|low40())
		}
	}
	rng.Shuffle(len(atLimit), func(i, j int) { atLimit[i], atLimit[j] = atLimit[j], atLimit[i] })
	return []genCase[int64]{
		{"shared-prefix", shared},
		{"byte-replicated", replicated},
		{"two-cluster", cluster},
		{"run-at-limit", atLimit},
	}
}

// float64Specials are the values whose placement the float64 total order
// pins: signed zeros, infinities, and NaNs of both signs with distinct
// payloads (the order is a bijection on bits, so payloads must round-trip).
func float64Specials() []float64 {
	return []float64{
		math.NaN(),
		-math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // +NaN, low payload
		math.Float64frombits(0xfff8000000abcdef), // -NaN, distinct payload
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // denormals
		1.5, -1.5, math.Pi, -math.Pi,
	}
}

func float64Cases() []genCase[float64] {
	rng := rand.New(rand.NewSource(202))
	specials := float64Specials()
	randomFinite := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return xs
	}
	mixed := randomFinite(4096)
	for i := 0; i < len(mixed); i += 10 {
		mixed[i] = specials[rng.Intn(len(specials))]
	}
	allNaN := make([]float64, 600)
	for i := range allNaN {
		// Distinct payloads, both signs: orderable only by the total order.
		allNaN[i] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63())&0x7ffff | uint64(rng.Intn(2))<<63)
	}
	zeros := make([]float64, 500)
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(1-2*(i%2)))
	}
	return []genCase[float64]{
		{"empty", nil},
		{"single-nan", []float64{math.NaN()}},
		{"specials", specials},
		{"all-nan-mixed-sign", allNaN},
		{"signed-zeros", zeros},
		{"random-finite-small", randomFinite(300)},
		{"random-with-specials", mixed},
		{"random-finite-large", randomFinite(8192)},
	}
}

// kvCases sets every payload to the record's original index, which is
// what lets the engine assert stability exactly: the stable reference
// and a stable kernel must agree on payloads, not just keys.
func kvCases() []genCase[KV] {
	rng := rand.New(rand.NewSource(303))
	withIdx := func(keys []int64) []KV {
		rs := make([]KV, len(keys))
		for i, k := range keys {
			rs[i] = KV{Key: k, Payload: int64(i)}
		}
		return rs
	}
	dupHeavy := make([]int64, 6000)
	for i := range dupHeavy {
		dupHeavy[i] = int64(rng.Intn(16)) // ~375 records per key: stability stress
	}
	random := make([]int64, 8192)
	for i := range random {
		random[i] = rng.Int63() - rng.Int63()
	}
	sorted := slices.Clone(random[:2000])
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	cases := []genCase[KV]{
		{"empty", nil},
		{"single", withIdx([]int64{9})},
		{"all-equal", withIdx(make([]int64, 4000))},
		{"dup-heavy", withIdx(dupHeavy)},
		{"below-insertion-cut", withIdx(dupHeavy[:recRadixMinLen-1])},
		{"at-radix-cut", withIdx(dupHeavy[:recRadixMinLen])},
		{"sorted", withIdx(sorted)},
		{"reversed", withIdx(reversed)},
		{"random", withIdx(random)},
	}
	for _, c := range divertCases() {
		cases = append(cases, genCase[KV]{c.name, withIdx(c.data)})
	}
	return cases
}

// ---------------------------------------------------------------------
// Conformance engine
// ---------------------------------------------------------------------

// sortKernel registers one sort entry point. covers lists the exported
// psort identifiers this entry certifies for the API meta-test; internal
// differential entries (forced code paths) leave it empty.
type sortKernel[E any] struct {
	name   string
	covers []string
	stable bool
	run    func(xs []E)
}

// mergeKernel registers one k-way merge entry point; arity 0 accepts any
// run count, arity 2 restricts the engine to two-run inputs.
type mergeKernel[E any] struct {
	name   string
	covers []string
	arity  int
	run    func(dst []E, runs [][]E)
}

// runSortConformance checks every kernel against the stable reference
// sort on every generator case. cmp must be a total order on the element
// *representation* (bit-level for floats), which
// makes the reference permutation content-unique: an unstable kernel
// must still produce an element comparing equal at every rank, and a
// stable kernel must reproduce the reference exactly (eq is identity
// including payloads).
func runSortConformance[E any](t *testing.T, kernels []sortKernel[E], cases []genCase[E], cmp func(a, b E) int, eq func(a, b E) bool) {
	t.Helper()
	for _, k := range kernels {
		for _, c := range cases {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				got := slices.Clone(c.data)
				want := slices.Clone(c.data)
				slices.SortStableFunc(want, cmp)
				k.run(got)
				if len(got) != len(want) {
					t.Fatalf("length changed: got %d want %d", len(got), len(want))
				}
				for i := range got {
					if k.stable {
						if !eq(got[i], want[i]) {
							t.Fatalf("index %d: got %v want %v (stable kernel must match stable reference exactly)", i, got[i], want[i])
						}
					} else if cmp(got[i], want[i]) != 0 {
						t.Fatalf("index %d: got %v want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// chunkRuns splits data into k sorted runs (contiguous chunks, each
// stable-sorted), the shape every merge kernel consumes.
func chunkRuns[E any](data []E, k int, cmp func(a, b E) int) [][]E {
	runs := make([][]E, 0, k)
	n := len(data)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		run := slices.Clone(data[lo:hi])
		slices.SortStableFunc(run, cmp)
		runs = append(runs, run)
	}
	return runs
}

// runShape is one adversarial set of sorted runs, given by its keys:
// the run counts, lengths and exhaustion orders the generator cases,
// chunked evenly, cannot produce.
type runShape struct {
	name string
	keys [][]int64
}

// runShapes are the inputs the all-live tournament's invariants rest
// on: padding leaves beside real extreme keys, ties everywhere, runs
// that leave the tree at awkward moments. They are run through every
// merge kernel at both widths and seed the batched-drain fuzz target.
func runShapes() []runShape {
	seq := func(lo, n int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = lo + int64(i)
		}
		return out
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	shapes := []runShape{
		// k = 3 and 5 leave padding leaves beside runs holding the extreme keys.
		{"extremes-beside-padding-k3", [][]int64{{lo, hi, hi}, {hi}, {lo, lo, 0, hi}}},
		{"extremes-beside-padding-k5", [][]int64{{hi}, {lo, hi}, {hi, hi}, {lo}, {lo, 0, hi}}},
		{"all-max-k7", [][]int64{{hi, hi}, {hi}, {hi, hi, hi}, {hi}, {hi}, {hi, hi}, {hi}}},
		// Ties across every run, short of and past the gallop threshold.
		{"all-equal-k2", [][]int64{repeatInt64(4, 30), repeatInt64(4, 30)}},
		{"all-equal-k5", [][]int64{repeatInt64(4, 3), repeatInt64(4, 40), repeatInt64(4, 1), repeatInt64(4, gallopMin), repeatInt64(4, 20)}},
		{"tiny-between-long", [][]int64{seq(0, 120), {}, {60}, seq(30, 120), {10, 140}, {}, seq(-20, 120), {200}}},
		// A one-element run that holds the largest key sits at one
		// remaining for the whole merge.
		{"single-is-global-max", [][]int64{seq(0, 100), {1000}, seq(50, 100), seq(-50, 100)}},
		{"single-is-maxint64", [][]int64{seq(0, 100), {hi}, seq(50, 100)}},
		// The runs' last elements are adjacent in the output, so
		// consecutive emissions each exhaust a run, in and against run order.
		{"consecutive-exhaustion", [][]int64{{0, 6, 100}, {1, 7, 101}, {2, 102}, {3, 8, 103}, {4, 104}, {5, 105}}},
		{"consecutive-exhaustion-reversed", [][]int64{{0, 6, 105}, {1, 7, 104}, {2, 103}, {3, 8, 102}, {4, 101}, {5, 100}}},
		{"consecutive-exhaustion-ties", [][]int64{{0, 9}, {1, 9}, {2, 9}, {3, 9}, {4, 9}}},
	}
	// A winning streak that ends exactly at its run's end: at, one short
	// of and one past the gallop threshold, and a long one.
	for _, n := range []int64{gallopMin - 1, gallopMin, gallopMin + 1, 50} {
		shapes = append(shapes, runShape{fmt.Sprintf("streak-%d-ends-run", n), [][]int64{seq(100, 30), seq(0, n), seq(90, 30)}})
	}
	// Every fan-in up to 17, so every padding count up to a 32-leaf tree,
	// with heavy ties and uneven lengths.
	rng := rand.New(rand.NewSource(303))
	for k := 1; k <= 17; k++ {
		keys := make([][]int64, k)
		for i := range keys {
			keys[i] = make([]int64, rng.Intn(40))
			for j := range keys[i] {
				keys[i][j] = int64(rng.Intn(25))
			}
			slices.Sort(keys[i])
		}
		shapes = append(shapes, runShape{fmt.Sprintf("fan-in-%d", k), keys})
	}
	return shapes
}

// runMergeConformance checks every merge kernel against the stable
// reference: the stable sort of the concatenated sorted runs, which for
// equal keys is exactly run-index-then-position order — the stability
// contract every merge in this package claims. Each kernel takes the
// generator cases chunked into even runs, then the run shapes, whose
// elements elem builds from (key, run, position).
func runMergeConformance[E any](t *testing.T, kernels []mergeKernel[E], cases []genCase[E], elem func(key int64, run, pos int) E, cmp func(a, b E) int, eq func(a, b E) bool) {
	t.Helper()
	check := func(t *testing.T, k mergeKernel[E], runs [][]E) {
		want := slices.Concat(runs...)
		slices.SortStableFunc(want, cmp)
		dst := make([]E, len(want))
		k.run(dst, runs)
		for i := range dst {
			if !eq(dst[i], want[i]) {
				t.Fatalf("index %d: got %v want %v", i, dst[i], want[i])
			}
		}
	}
	shapes := runShapes()
	for _, k := range kernels {
		fanIns := []int{1, 2, 3, 5, 8}
		if k.arity == 2 {
			fanIns = []int{2}
		}
		for _, c := range cases {
			for _, fan := range fanIns {
				t.Run(fmt.Sprintf("%s/%s/k=%d", k.name, c.name, fan), func(t *testing.T) {
					check(t, k, chunkRuns(c.data, fan, cmp))
				})
			}
		}
		for _, s := range shapes {
			if k.arity != 0 && k.arity != len(s.keys) {
				continue
			}
			t.Run(fmt.Sprintf("%s/runs/%s", k.name, s.name), func(t *testing.T) {
				runs := make([][]E, len(s.keys))
				for r, keys := range s.keys {
					for p, key := range keys {
						runs[r] = append(runs[r], elem(key, r, p))
					}
				}
				check(t, k, runs)
			})
		}
	}
}

// ---------------------------------------------------------------------
// Element orders
// ---------------------------------------------------------------------

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat64Total is the reference total order: unsigned order of the
// keys.go sort key, total on bit patterns.
func cmpFloat64Total(a, b float64) int {
	ka, kb := Float64SortKey(a), Float64SortKey(b)
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	default:
		return 0
	}
}

func cmpKV(a, b KV) int { return cmpInt64(a.Key, b.Key) }

func eqInt64(a, b int64) bool { return a == b }
func eqFloat64Bits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
func eqKV(a, b KV) bool { return a == b }

// ---------------------------------------------------------------------
// Kernel registries
// ---------------------------------------------------------------------

// cellSortKernel is one row of the fixed-width sort table: the same
// kernel at cell width 1 (bare int64 keys) and width 2 (KV records),
// taking its input as a cell buffer. name and run are indexed by
// width-1; an empty name skips that width (the comparison sorts have no
// stable record form, binary insertion no int64 one).
type cellSortKernel struct {
	name   [2]string
	covers []string
	run    [2]func(xs []int64)
}

// cellMergeKernel is the merge table's row, same indexing; arity as in
// mergeKernel.
type cellMergeKernel struct {
	name   [2]string
	covers []string
	arity  int
	run    [2]func(dst []int64, runs [][]int64)
}

func scratchFor(xs []int64) []int64 { return make([]int64, len(xs)) }

// longScratch is a scratch two elements of either width longer than xs.
func longScratch(xs []int64) []int64 { return make([]int64, len(xs)+4) }

// forcedRadix runs the radix core with the scatter and the split chosen
// by hand: the production dispatch only tiles from radixTileMinLen cells
// and splits from radixSplitMinLen, past the sizes of this matrix
// (TestPublicEntriesAcrossTileThreshold and TestSplitThresholdCases cross
// them).
func forcedRadix[C cell](tiled, split bool) func(xs []int64) {
	return func(xs []int64) { radixSort(asCells[C](xs), asCells[C](scratchFor(xs)), nil, tiled, split) }
}

func cellSortKernels() []cellSortKernel {
	type fn = func(xs []int64)
	sortBlock := func(w, cells int) fn { return func(xs []int64) { SortBlock(xs, scratchFor(xs), nil, w, cells) } }
	// Into a dst: the block is left unspecified, and the result is copied
	// back for the engine to check.
	sortBlockInto := func(w, cells int) fn {
		return func(xs []int64) {
			dst := make([]int64, len(xs))
			SortBlock(xs, scratchFor(xs), dst, w, cells)
			copy(xs, dst)
		}
	}
	return []cellSortKernel{
		{name: [2]string{"Serial"}, covers: []string{"Serial"}, run: [2]fn{Serial}},
		{name: [2]string{"Parallel"}, covers: []string{"Parallel"}, run: [2]fn{func(xs []int64) { Parallel(xs, 4) }}},
		// The labels date from when RadixSort and SortRecords were exports
		// that drew their own scratch. The row hands the Scratch entries a
		// scratch longer than the input, as a pool's size class is.
		{name: [2]string{"RadixSort", "SortRecords"}, run: [2]fn{
			func(xs []int64) { RadixSortScratch(xs, longScratch(xs)) },
			func(xs []int64) { SortRecordsScratch(KVsFromInt64s(xs), KVsFromInt64s(longScratch(xs))) },
		}},
		{name: [2]string{"RadixSortScratch", "SortRecordsScratch"}, covers: []string{"RadixSortScratch", "SortRecordsScratch"},
			run: [2]fn{
				func(xs []int64) { RadixSortScratch(xs, scratchFor(xs)) },
				func(xs []int64) { SortRecordsScratch(KVsFromInt64s(xs), KVsFromInt64s(scratchFor(xs))) },
			}},
		{name: [2]string{"SortAdaptive"}, covers: []string{"SortAdaptive"}, run: [2]fn{func(xs []int64) { SortAdaptive(xs, scratchFor(xs)) }}},
		{name: [2]string{"SortAdaptive-nil-scratch"}, run: [2]fn{func(xs []int64) { SortAdaptive(xs, nil) }}},
		{name: [2]string{"SortBlock", "SortBlock-records"}, covers: []string{"SortBlock"}, run: [2]fn{sortBlock(1, 1), sortBlock(1, 2)}},
		{name: [2]string{"SortBlock-into", "SortBlock-records-into"}, run: [2]fn{sortBlockInto(1, 1), sortBlockInto(1, 2)}},
		{name: [2]string{"SortBlock-w2", "SortBlock-records-w2"}, run: [2]fn{sortBlock(2, 1), sortBlock(2, 2)}},
		{name: [2]string{"SortBlock-w3-into", "SortBlock-records-w3-into"}, run: [2]fn{sortBlockInto(3, 1), sortBlockInto(3, 2)}},
		// The width-1 label dates from when the plain scatter was an export.
		{name: [2]string{"RadixSortScratchUntiled", "record-radix-forced-plain"}, run: [2]fn{forcedRadix[[1]int64](false, false), forcedRadix[[2]int64](false, false)}},
		{name: [2]string{"radix-forced-tiled", "record-radix-forced-tiled"}, run: [2]fn{forcedRadix[[1]int64](true, false), forcedRadix[[2]int64](true, false)}},
		{name: [2]string{"radix-forced-split", "record-radix-forced-split"}, run: [2]fn{forcedRadix[[1]int64](false, true), forcedRadix[[2]int64](false, true)}},
		{name: [2]string{"", "record-binary-insertion"}, run: [2]fn{nil, func(xs []int64) { binaryInsertionRecords(KVsFromInt64s(xs)) }}},
	}
}

// popDrain is the per-element drain: one Pop, and one replay, per
// element, with no streak counting or galloping on top.
func popDrain[C cell](dst []int64, runs [][]int64) {
	var lt loserTree[C]
	lt.Reset(runs)
	out := asCells[C](dst)
	n := 0
	for !lt.Empty() {
		out[n] = lt.Pop()
		n++
	}
	if n != len(out) {
		panic(fmt.Sprintf("Pop drain wrote %d of %d elements", n, len(out)))
	}
}

// batchedDrain is the production drain on a fresh tree.
func batchedDrain[C cell](dst []int64, runs [][]int64) {
	var lt loserTree[C]
	lt.Reset(runs)
	if out := asCells[C](dst); lt.MergeInto(out) != len(out) {
		panic("batched drain did not fill dst")
	}
}

// resetReuse drains a throwaway merge first, then Resets onto the real
// runs — output must be identical to a fresh tree's.
func resetReuse[C cell](dst []int64, runs [][]int64) {
	var lt loserTree[C]
	var c C
	one, zero := make([]int64, len(c)), make([]int64, len(c))
	one[0] = 1
	lt.Reset([][]int64{one, zero})
	lt.MergeInto(make([]C, 2))
	lt.Reset(runs)
	lt.MergeInto(asCells[C](dst))
}

func cellMergeKernels() []cellMergeKernel {
	type fn = func(dst []int64, runs [][]int64)
	round := func(cells int) fn { return func(dst []int64, runs [][]int64) { MergeRound(dst, runs, 4, cells) } }
	window := func(cells int) fn { return func(dst []int64, runs [][]int64) { windowMergeWhole(dst, runs, cells) } }
	rounds := func(cells int) fn { return func(dst []int64, runs [][]int64) { mergeRoundsWhole(dst, runs, 4, cells) } }
	scalar := func(f fn) fn { return func(dst []int64, runs [][]int64) { defer forceScalar()(); f(dst, runs) } }
	return []cellMergeKernel{
		// The width-2 label dates from when MergeRecords2 was an export; a
		// two-run record round is what reaches merge2 at that width now.
		{name: [2]string{"Merge2", "MergeRecords2"}, covers: []string{"Merge2"}, arity: 2,
			run: [2]fn{
				func(dst []int64, runs [][]int64) { Merge2(dst, runs[0], runs[1]) },
				round(2),
			}},
		// The width-2 label dates from when the record k-way merge was an
		// export of its own; mergeCells is what MergeRound calls now.
		{name: [2]string{"MergeK", "MergeRecordsK"}, covers: []string{"MergeK"},
			run: [2]fn{func(dst []int64, runs [][]int64) { MergeK(dst, runs...) }, mergeCells[[2]int64]}},
		{name: [2]string{"ParallelMergeK"}, covers: []string{"ParallelMergeK"},
			run: [2]fn{func(dst []int64, runs [][]int64) { ParallelMergeK(dst, runs, 4) }}},
		// Labels from the two trees these rows used to build: MergeInto was
		// the int64 tree's per-element drain and the record tree's batched one.
		{name: [2]string{"LoserTree.MergeInto", "RecordLoserTree.Pop-drain"}, run: [2]fn{popDrain[[1]int64], popDrain[[2]int64]}},
		{name: [2]string{"LoserTree.MergeIntoBatched", "RecordLoserTree.MergeInto"}, run: [2]fn{batchedDrain[[1]int64], batchedDrain[[2]int64]}},
		{name: [2]string{"LoserTree.Reset-reuse", "RecordLoserTree.Reset-reuse"}, run: [2]fn{resetReuse[[1]int64], resetReuse[[2]int64]}},
		{name: [2]string{"MergeRound", "MergeRound-records"}, covers: []string{"MergeRound"}, run: [2]fn{round(1), round(2)}},
		{name: [2]string{"WindowMerge", "WindowMerge-records"}, covers: []string{"WindowMerge"}, run: [2]fn{window(1), window(2)}},
		{name: [2]string{"MergeRounds", "MergeRounds-records"}, covers: []string{"MergeRounds"}, run: [2]fn{rounds(1), rounds(2)}},
		// The rows above run merge2's vector path for bare keys where the
		// CPU has it; these two force the scalar fallback.
		{name: [2]string{"Merge2-scalar"}, arity: 2, run: [2]fn{scalar(func(dst []int64, runs [][]int64) { Merge2(dst, runs[0], runs[1]) })}},
		{name: [2]string{"MergeRounds-scalar"}, run: [2]fn{scalar(rounds(1))}},
	}
}

// sortKernelsAt instantiates the fixed-width sort table at one cell
// width for element type E, whose slices cellsOf views as cell buffers.
// Every row is asserted stable: at width 1 equal keys are identical, so
// that is plain correctness; at width 2 it is the payload-order claim.
func sortKernelsAt[E any](width int, cellsOf func([]E) []int64) []sortKernel[E] {
	var out []sortKernel[E]
	for _, k := range cellSortKernels() {
		if run := k.run[width-1]; k.name[width-1] != "" {
			out = append(out, sortKernel[E]{name: k.name[width-1], stable: true, run: func(xs []E) { run(cellsOf(xs)) }})
		}
	}
	return out
}

// mergeKernelsAt is sortKernelsAt for the merge table.
func mergeKernelsAt[E any](width int, cellsOf func([]E) []int64) []mergeKernel[E] {
	var out []mergeKernel[E]
	for _, k := range cellMergeKernels() {
		if run := k.run[width-1]; k.name[width-1] != "" {
			out = append(out, mergeKernel[E]{name: k.name[width-1], arity: k.arity, run: func(dst []E, runs [][]E) {
				cells := make([][]int64, len(runs))
				for i, r := range runs {
					cells[i] = cellsOf(r)
				}
				run(cellsOf(dst), cells)
			}})
		}
	}
	return out
}

func int64sAsCells(xs []int64) []int64 { return xs }

func float64SortKernels() []sortKernel[float64] {
	return []sortKernel[float64]{
		// The label dates from when SortFloat64s was an export. The row hands
		// SortFloat64sScratch a scratch too short for the radix, which takes
		// the comparison path.
		{name: "SortFloat64s", run: func(xs []float64) { SortFloat64sScratch(xs, make([]float64, len(xs)/2)) }},
		{name: "SortFloat64sScratch", covers: []string{"SortFloat64sScratch"}, run: func(xs []float64) { SortFloat64sScratch(xs, make([]float64, len(xs))) }},
		{name: "SortFloat64sScratch-nil", run: func(xs []float64) { SortFloat64sScratch(xs, nil) }},
	}
}

// mergeRoundsWhole runs MergeRounds as a plain k-way merge kernel: the
// runs are laid back to back in a spare, which the rounds clobber.
func mergeRoundsWhole(dst []int64, runs [][]int64, threads, cells int) {
	src := slices.Concat(runs...)
	in := make([][]int64, len(runs))
	off := 0
	for i, r := range runs {
		in[i] = src[off : off+len(r)]
		off += len(r)
	}
	MergeRounds(dst, src, in, threads, cells)
}

// windowMergeWhole runs WindowMerge as a plain k-way merge kernel: every
// run one block, output gathered into dst.
func windowMergeWhole(dst []int64, runs [][]int64, cells int) {
	srcs := make([]BlockSource, len(runs))
	for i, r := range runs {
		srcs[i] = &scriptedSource{blocks: [][]int64{slices.Clone(r)}}
	}
	pos := 0
	if _, err := WindowMerge(context.Background(), srcs, cells, 4, nil, func(block []int64) error {
		pos += copy(dst[pos:], block)
		return nil
	}); err != nil {
		panic(err)
	}
}

// ---------------------------------------------------------------------
// The conformance tests
// ---------------------------------------------------------------------

func TestConformInt64Sorts(t *testing.T) {
	runSortConformance(t, sortKernelsAt(1, int64sAsCells), int64Cases(), cmpInt64, eqInt64)
}

func TestConformInt64Merges(t *testing.T) {
	runMergeConformance(t, mergeKernelsAt(1, int64sAsCells), int64Cases(), func(key int64, _, _ int) int64 { return key }, cmpInt64, eqInt64)
}

func TestConformFloat64Sorts(t *testing.T) {
	runSortConformance(t, float64SortKernels(), float64Cases(), cmpFloat64Total, eqFloat64Bits)
}

func TestConformRecordSorts(t *testing.T) {
	runSortConformance(t, sortKernelsAt(2, Int64sFromKVs), kvCases(), cmpKV, eqKV)
}

func TestConformRecordMerges(t *testing.T) {
	runMergeConformance(t, mergeKernelsAt(2, Int64sFromKVs), kvCases(), func(key int64, run, pos int) KV { return KV{Key: key, Payload: int64(run)<<32 | int64(pos)} }, cmpKV, eqKV)
}

// TestConformSelect certifies the multisequence selector: for every case
// and rank, the returned split has exactly r elements on the left and
// max(left) <= min(right).
func TestConformSelect(t *testing.T) {
	for _, c := range int64Cases() {
		for _, fan := range []int{1, 3, 6} {
			runs := chunkRuns(c.data, fan, cmpInt64)
			total := len(c.data)
			for _, r := range []int{0, total / 3, total / 2, total} {
				cut := Select(runs, r)
				got := 0
				lmax, rmin := int64(math.MinInt64), int64(math.MaxInt64)
				for i, run := range runs {
					got += cut[i]
					if cut[i] > 0 && run[cut[i]-1] > lmax {
						lmax = run[cut[i]-1]
					}
					if cut[i] < len(run) && run[cut[i]] < rmin {
						rmin = run[cut[i]]
					}
				}
				if got != r {
					t.Fatalf("%s k=%d r=%d: split has %d elements", c.name, fan, r, got)
				}
				if r > 0 && r < total && lmax > rmin {
					t.Fatalf("%s k=%d r=%d: left max %d > right min %d", c.name, fan, r, lmax, rmin)
				}
			}
		}
	}
}

// TestConformFloat64KeyTransforms certifies the float64 key bijection:
// round-trip identity on bits, agreement between the uint64 and int64
// domains, and monotonicity against the pinned total order.
func TestConformFloat64KeyTransforms(t *testing.T) {
	vals := append(float64Specials(), float64Cases()[6].data...)
	for _, f := range vals {
		bits := math.Float64bits(f)
		if got := math.Float64bits(Float64FromSortKey(Float64SortKey(f))); got != bits {
			t.Fatalf("Float64FromSortKey round-trip: %x -> %x", bits, got)
		}
		if got := f64BitsFromSortable(sortableFromF64Bits(int64(bits))); got != int64(bits) {
			t.Fatalf("sortable round-trip: %x -> %x", bits, got)
		}
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, b := vals[i], vals[j]
			wantLess := Float64TotalLess(a, b)
			ka := sortableFromF64Bits(int64(math.Float64bits(a)))
			kb := sortableFromF64Bits(int64(math.Float64bits(b)))
			if (ka < kb) != wantLess {
				t.Fatalf("int64-domain order disagrees for %v vs %v", a, b)
			}
		}
	}
	// Slice transforms are the elementwise maps and mutually inverse.
	bits := make([]int64, len(vals))
	for i, f := range vals {
		bits[i] = int64(math.Float64bits(f))
	}
	mapped := slices.Clone(bits)
	SortableFromFloat64Bits(mapped)
	for i := range mapped {
		if mapped[i] != sortableFromF64Bits(bits[i]) {
			t.Fatalf("SortableFromFloat64Bits[%d] mismatch", i)
		}
	}
	Float64BitsFromSortable(mapped)
	if !slices.Equal(mapped, bits) {
		t.Fatal("Float64BitsFromSortable did not invert SortableFromFloat64Bits")
	}
	// The pinned placement: one element of each class, sorted.
	order := []float64{
		math.Float64frombits(0xfff8000000000001), // -NaN
		math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1.5, math.MaxFloat64, math.Inf(1),
		math.NaN(), // +NaN
	}
	for i := 1; i < len(order); i++ {
		if !Float64TotalLess(order[i-1], order[i]) {
			t.Fatalf("pinned placement violated at %d: %v !< %v", i-1, order[i-1], order[i])
		}
	}
}

// TestConformKVViews certifies the reinterpret views and the layouts
// they stand on: a bare key, a [1]int64 and an int64 are one cell, a KV
// and a [2]int64 two, all 8-aligned — which is all that makes handing
// the same memory to the kernels as []C sound.
func TestConformKVViews(t *testing.T) {
	for _, l := range []struct {
		name        string
		size, align uintptr
		want        uintptr
	}{
		{"[1]int64", unsafe.Sizeof([1]int64{}), unsafe.Alignof([1]int64{}), 8},
		{"[2]int64", unsafe.Sizeof([2]int64{}), unsafe.Alignof([2]int64{}), 16},
		{"KV", unsafe.Sizeof(KV{}), unsafe.Alignof(KV{}), 16},
	} {
		if l.size != l.want || l.align != unsafe.Alignof(int64(0)) {
			t.Errorf("%s: size %d align %d, want size %d and int64's alignment", l.name, l.size, l.align, l.want)
		}
	}
	if off := unsafe.Offsetof(KV{}.Payload); off != 8 {
		t.Errorf("KV.Payload at offset %d, want 8 (the second cell)", off)
	}

	xs := []int64{1, 10, 2, 20, 3, 30}
	keys, recs := asCells[[1]int64](xs), asCells[[2]int64](xs)
	if len(keys) != 6 || len(recs) != 3 || &keys[0][0] != &xs[0] || &recs[2][1] != &xs[5] {
		t.Fatalf("asCells does not alias its buffer: %v %v", keys, recs)
	}
	if asCells[[1]int64](nil) != nil || asCells[[2]int64](nil) != nil {
		t.Fatal("empty cell views must be nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("asCells[[2]int64] on odd length must panic")
			}
		}()
		asCells[[2]int64]([]int64{1, 2, 3})
	}()

	rs := KVsFromInt64s(xs)
	want := []KV{{1, 10}, {2, 20}, {3, 30}}
	if !slices.Equal(rs, want) {
		t.Fatalf("KVsFromInt64s: got %v", rs)
	}
	rs[1] = KV{Key: -2, Payload: -20}
	if xs[2] != -2 || xs[3] != -20 {
		t.Fatal("KV view is not aliasing the int64 backing")
	}
	back := Int64sFromKVs(rs)
	if &back[0] != &xs[0] || len(back) != len(xs) {
		t.Fatal("Int64sFromKVs did not return the original backing")
	}
	if KVsFromInt64s(nil) != nil || Int64sFromKVs(nil) != nil {
		t.Fatal("empty views must be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("KVsFromInt64s on odd length must panic")
		}
	}()
	KVsFromInt64s([]int64{1, 2, 3})
}

// ---------------------------------------------------------------------
// API meta-test
// ---------------------------------------------------------------------

// conformanceCovered is the set of exported functions certified by the
// registries above plus the dedicated conformance tests in this file.
func conformanceCovered() map[string]bool {
	covered := map[string]bool{
		// Dedicated conformance tests in this file:
		"Select":                  true, // TestConformSelect
		"Float64SortKey":          true, // TestConformFloat64KeyTransforms
		"Float64FromSortKey":      true,
		"Float64TotalLess":        true,
		"SortableFromFloat64Bits": true,
		"Float64BitsFromSortable": true,
		"KVsFromInt64s":           true, // TestConformKVViews
		"Int64sFromKVs":           true,
	}
	for _, k := range cellSortKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range cellMergeKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range float64SortKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	return covered
}

// TestConformanceCoversExportedAPI parses the package source and fails
// if any exported function is not certified by the conformance harness.
// Adding a kernel to psort's API without registering it here is a test
// failure by construction. It also fails on stale covers entries, so the
// registry cannot drift from the real API after a rename.
func TestConformanceCoversExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse package: %v", err)
	}
	exported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue
				}
				exported[fn.Name.Name] = true
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("parsed no exported functions; harness is looking at the wrong directory")
	}
	covered := conformanceCovered()
	var missing []string
	for name := range exported {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		t.Fatalf("exported kernels not registered in the conformance harness: %v\n"+
			"register each in the kernel tables in conform_test.go (or add a dedicated TestConform* and list it in conformanceCovered)", missing)
	}
	var stale []string
	for name := range covered {
		if !exported[name] {
			stale = append(stale, name)
		}
	}
	if len(stale) > 0 {
		slices.Sort(stale)
		t.Fatalf("conformance registry names functions that no longer exist: %v", stale)
	}
}
